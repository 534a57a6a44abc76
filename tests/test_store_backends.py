"""Backend equivalence: file and SQLite stores must answer
queries byte-identically, and records must migrate between them without
changing what history-directed search harvests."""

import json

import pytest

from repro import diagnose, harvest
from repro.apps.synthetic import make_pingpong
from repro.storage import (
    ExperimentStore,
    RunRecord,
    StoreCorruption,
    migrate_store,
)

FAST = dict(min_interval=5.0, check_period=0.5, insertion_latency=0.2,
            cost_limit=50.0)

BACKENDS = ("file", "sqlite")


def _tiny_record(run_id: str, app_name: str, version: str) -> RunRecord:
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


@pytest.fixture(scope="module")
def corpus():
    """A mixed record set: two real diagnoses (whose summaries harvest
    into non-empty directive sets) plus filtering fodder."""
    real = [
        diagnose(make_pingpong(iterations=60), run_id=f"ping-{i}", **FAST)
        for i in range(2)
    ]
    tiny = [
        _tiny_record("t-a1", "tiny", "A"),
        _tiny_record("t-a2", "tiny", "A"),
        _tiny_record("t-b1", "tiny", "B"),
    ]
    return real + tiny


@pytest.fixture()
def stores(tmp_path, corpus):
    out = {}
    for backend in BACKENDS:
        store = ExperimentStore(tmp_path / backend, backend=backend)
        for record in corpus:
            store.save(record)
        out[backend] = store
    return out


def _canon(mapping):
    return json.dumps(mapping, sort_keys=True)


class TestCrossBackendEquivalence:
    def test_summaries_byte_identical(self, stores):
        views = {
            name: _canon(store.summaries()) for name, store in stores.items()
        }
        assert len(set(views.values())) == 1, sorted(views)

    def test_filtered_queries_byte_identical(self, stores):
        for kwargs in (
            {"app_name": "tiny"},
            {"app_name": "tiny", "version": "A"},
            {"app_name": "pingpong"},
            {"app_name": "ghost"},
        ):
            views = {
                name: _canon(store.index_entries(**kwargs))
                for name, store in stores.items()
            }
            assert len(set(views.values())) == 1, (kwargs, sorted(views))

    def test_run_id_lookup_order_and_misses_match(self, stores):
        ids = ["t-b1", "ping-0", "missing", "t-a1"]
        views = {
            name: _canon(store.summaries(run_ids=[i for i in ids
                                                  if i != "missing"]))
            for name, store in stores.items()
        }
        assert len(set(views.values())) == 1
        for store in stores.values():
            entries = store.backend.query_summaries(run_ids=ids)
            assert list(entries) == ids
            assert entries["missing"] is None

    def test_harvested_directives_byte_identical(self, stores):
        texts = {
            name: harvest(store, app="pingpong",
                          include_thresholds=True).to_text()
            for name, store in stores.items()
        }
        assert len(set(texts.values())) == 1
        assert "prune" in texts["file"] or "priority" in texts["file"]

    def test_loaded_records_identical(self, stores, corpus):
        for record in corpus:
            payloads = {
                name: _canon(store.load(record.run_id).to_dict())
                for name, store in stores.items()
            }
            assert len(set(payloads.values())) == 1

    def test_list_and_len_match(self, stores, corpus):
        for store in stores.values():
            assert len(store) == len(corpus)
            assert store.list() == [r.run_id for r in corpus]


class TestMigration:
    def test_file_to_sqlite_round_trip(self, tmp_path, stores, corpus):
        source = stores["file"]
        dest = ExperimentStore(tmp_path / "migrated", backend="sqlite")
        assert migrate_store(source, dest) == len(corpus)
        assert _canon(dest.summaries()) == _canon(source.summaries())
        assert (
            harvest(dest, app="pingpong").to_text()
            == harvest(source, app="pingpong").to_text()
        )

    def test_sqlite_back_to_file(self, tmp_path, stores):
        source = stores["sqlite"]
        dest = ExperimentStore(tmp_path / "back", backend="file")
        migrate_store(source, dest)
        assert _canon(dest.summaries()) == _canon(source.summaries())

    def test_duplicate_ids_need_overwrite(self, tmp_path, stores):
        source = stores["file"]
        dest = ExperimentStore(tmp_path / "dup", backend="sqlite")
        migrate_store(source, dest)
        from repro.storage import StoreError

        with pytest.raises(StoreError):
            migrate_store(source, dest)
        assert migrate_store(source, dest, overwrite=True) == len(source)


class TestSQLiteIntegrity:
    def test_corrupt_payload_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite",
                                cache_size=0)
        store.save(_tiny_record("good", "tiny", "A"))
        store.save(_tiny_record("bad", "tiny", "A"))
        conn = store.backend._conn
        conn.execute(
            "UPDATE runs SET payload = ? WHERE run_id = ?",
            (json.dumps({"run_id": "bad", "tampered": True}), "bad"),
        )
        with pytest.raises(StoreCorruption, match="quarantine"):
            store.load("bad")
        # quarantined: gone from the index, preserved in the quarantine table
        assert store.list() == ["good"]
        rows = conn.execute(
            "SELECT run_id, reason FROM quarantine"
        ).fetchall()
        assert rows and rows[0][0] == "bad"

    def test_rebuild_quarantines_bad_rows(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite")
        store.save(_tiny_record("good", "tiny", "A"))
        store.save(_tiny_record("bad", "tiny", "A"))
        store.backend._conn.execute(
            "UPDATE runs SET payload = 'not json' WHERE run_id = 'bad'"
        )
        report = store.rebuild_index()
        assert report.kept == ["good"]
        assert len(report.quarantined) == 1
        assert store.list() == ["good"]

    def test_compact_is_vacuum(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite")
        store.save(_tiny_record("r0", "tiny", "A"))
        stats = store.compact()
        assert stats.entries == 1
        assert store.list() == ["r0"]

    def test_overwrite_bumps_record_token(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite")
        store.save(_tiny_record("r0", "tiny", "A"))
        cached = store.load("r0")
        store.save(_tiny_record("r0", "tiny", "B"), overwrite=True)
        assert store.load("r0").version == "B"
        assert store.load("r0") is not cached
        # seq preserved across the overwrite
        assert dict(store.backend.iter_summaries())["r0"]["seq"] == 0
