"""The public storage surface: repro.storage.api, the keyword-only
ExperimentStore constructor and resolve_store."""

import warnings

import pytest

from repro.facade import resolve_store
from repro.storage import ExperimentStore, RunRecord
from repro.storage import api as storage_api
from tests.test_legacy_stores import lay_down_sqlite


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
            "StoreInfo",
            "CompactionStats",
            "RecoveryReport",
            "StoreError",
            "StoreCorruption",
            "StoreUnavailable",
        }
        for name in storage_api.__all__:
            assert hasattr(storage_api, name)

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

    def test_no_root_no_backend_rejected(self):
        with pytest.raises(TypeError):
            ExperimentStore()

    def test_unknown_backend_rejected(self, tmp_path):
        """There is one backend: naming any is an unknown keyword."""
        with pytest.raises(TypeError, match="backend"):
            ExperimentStore(tmp_path / "runs", backend="etcd")
        assert not (tmp_path / "runs").exists()


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

    def test_resilience_setting_applies_to_an_opened_path(self, tmp_path):
        assert resolve_store(tmp_path / "raw", resilience=False) \
            .resilience_metrics() == {}
        assert resolve_store(tmp_path / "armed") \
            .resilience_metrics()["ops_total"] >= 0.0

    def test_auto_detects_sqlite_layout(self, tmp_path):
        """A directory an older release wrote as a sqlite store opens as
        the file store it is converted into."""
        lay_down_sqlite(tmp_path / "runs", [_tiny_record("r0")], [0])
        store = resolve_store(tmp_path / "runs")
        assert store.backend.name == "file"
        assert store.list() == ["r0"]
