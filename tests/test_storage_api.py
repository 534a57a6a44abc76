"""The public storage surface: repro.storage.api, the keyword-only
ExperimentStore constructor and resolve_store."""

import warnings

import pytest

from repro.facade import resolve_store
from repro.storage import (
    ExperimentStore,
    FileBackend,
    RunRecord,
    SQLiteBackend,
    StorageBackend,
    StoreError,
)
from repro.storage import api as storage_api


def _tiny_record(run_id: str, app_name: str = "api", version: str = "1") -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name=app_name,
        version=version,
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0,
        search_done_time=None,
        pairs_tested=0,
        total_requests=0,
        peak_cost=0.0,
    )


class TestApiSurface:
    def test_explicit_all(self):
        assert set(storage_api.__all__) == {
            "StorageBackend",
            "StoreInfo",
            "CompactionStats",
            "RecoveryReport",
            "StoreError",
            "StoreCorruption",
            "StoreUnavailable",
        }
        for name in storage_api.__all__:
            assert hasattr(storage_api, name)

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            StorageBackend()

    def test_backends_implement_the_contract(self, tmp_path):
        for backend in (
            FileBackend(tmp_path / "f"),
            SQLiteBackend(tmp_path / "s"),
        ):
            assert isinstance(backend, StorageBackend)

    def test_store_corruption_carries_quarantine_path(self):
        exc = storage_api.StoreCorruption("bad", quarantined_to=None)
        assert isinstance(exc, storage_api.StoreError)
        assert exc.quarantined_to is None


class TestKeywordOnlyConstructor:
    def test_positional_cache_size_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            ExperimentStore(tmp_path / "runs", 8)
        assert not (tmp_path / "runs").exists()

    def test_keyword_args_do_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ExperimentStore(tmp_path / "runs", cache_size=8)
        assert store.cache_info()["maxsize"] == 8

    def test_backend_instance_supplies_root(self, tmp_path):
        backend = FileBackend(tmp_path / "runs")
        store = ExperimentStore(backend=backend)
        assert store.root == tmp_path / "runs"
        assert store.backend is backend

    def test_no_root_no_backend_rejected(self):
        with pytest.raises(StoreError):
            ExperimentStore()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown storage backend"):
            ExperimentStore(tmp_path / "runs", backend="etcd")


class TestResolveStore:
    """``resolve_store`` hands back the store itself: where it lives is
    its ``root``, what it runs on its ``backend.name``."""

    def test_path_opens_a_store(self, tmp_path):
        store = resolve_store(tmp_path / "runs")
        assert isinstance(store, ExperimentStore)
        assert store.backend.name == "file"
        assert store.root == tmp_path / "runs"
        assert store.info().runs == 0

    def test_open_store_passes_through(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        assert resolve_store(store) is store
        assert resolve_store(store, backend="file") is store

    def test_backend_pin(self, tmp_path):
        store = resolve_store(tmp_path / "runs", backend="sqlite")
        assert store.backend.name == "sqlite"

    def test_resilience_setting_applies_to_an_opened_path(self, tmp_path):
        assert resolve_store(tmp_path / "raw", resilience=False) \
            .resilience_metrics() == {}
        assert resolve_store(tmp_path / "armed") \
            .resilience_metrics()["ops_total"] >= 0.0

    def test_backend_pin_conflict_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="file")
        with pytest.raises(StoreError, match="already open"):
            resolve_store(store, backend="sqlite")

    def test_auto_detects_sqlite_layout(self, tmp_path):
        ExperimentStore(tmp_path / "runs", backend="sqlite").save(
            _tiny_record("r0")
        )
        store = resolve_store(tmp_path / "runs")
        assert store.backend.name == "sqlite"
        assert store.list() == ["r0"]
