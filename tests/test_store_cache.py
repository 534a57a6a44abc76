"""Correctness of the history-query fast path: record memoization, the
store's LRU record cache, format-4 index summaries, and batched loads."""

import gc
import json
import weakref

import pytest

from repro.storage import ExperimentStore, RunRecord, StoreError, summarize_record
from repro.storage.store import StoreCorruption
from tests.test_store_segments import lay_down_old_store


def make_record(run_id="r1", app_name="app", version="1", **overrides):
    fields = dict(
        run_id=run_id,
        app_name=app_name,
        version=version,
        n_processes=2,
        nodes=["n0", "n1"],
        placement={"p0": "n0", "p1": "n1"},
        hierarchies={
            "Code": ["/Code", "/Code/a.c", "/Code/a.c/main", "/Code/a.c/tiny"],
            "Process": ["/Process", "/Process/p0", "/Process/p1"],
            "Machine": ["/Machine", "/Machine/n0", "/Machine/n1"],
            "SyncObject": ["/SyncObject"],
        },
        shg_nodes=[
            {
                "id": 0, "hypothesis": "CPUbound", "focus": "< /Code/a.c/main, /Machine, /Process, /SyncObject >",
                "state": "true", "priority": "medium", "persistent": False,
                "value": 0.4, "t_requested": 0.0, "t_concluded": 5.0,
                "quality": None, "parents": [], "children": [],
            },
            {
                "id": 1, "hypothesis": "ExcessiveIOBlockingTime",
                "focus": "< /Code/a.c/tiny, /Machine, /Process, /SyncObject >",
                "state": "false", "priority": "medium", "persistent": False,
                "value": 0.01, "t_requested": 0.0, "t_concluded": 6.0,
                "quality": None, "parents": [], "children": [],
            },
        ],
        profile={
            "by_code": {
                "/Code/a.c/main": {"compute": 9.0},
                "/Code/a.c/tiny": {"compute": 0.01},
            },
            "by_process": {"/Process/p0": {"sync": 1.0}},
            "by_node": {"/Machine/n0": {"sync": 0.5}},
            "by_tag": {},
            "totals": {"compute": 10.0},
            "elapsed": 10.0,
        },
        finish_time=10.0,
        search_done_time=6.0,
        pairs_tested=2,
        total_requests=2,
        peak_cost=1.5,
    )
    fields.update(overrides)
    return RunRecord(**fields)


# ---------------------------------------------------------------------------
# RunRecord memoization
# ---------------------------------------------------------------------------
class TestRecordMemoization:
    def test_reconstructions_are_cached(self):
        rec = make_record()
        assert rec.flat_profile() is rec.flat_profile()
        assert rec.shg() is rec.shg()
        assert rec.space() is rec.space()

    def test_field_reassignment_invalidates(self):
        rec = make_record()
        before = rec.flat_profile()
        rec.profile = dict(rec.profile, totals={"compute": 20.0})
        after = rec.flat_profile()
        assert after is not before
        assert after.total_time() == pytest.approx(20.0)
        # unrelated caches survive the reassignment
        assert rec.shg() is rec.shg()

    def test_each_backing_field_invalidates_its_own_cache(self):
        rec = make_record()
        shg, space = rec.shg(), rec.space()
        rec.shg_nodes = list(rec.shg_nodes[:1])
        assert rec.shg() is not shg
        assert rec.space() is space
        rec.hierarchies = dict(rec.hierarchies)
        assert rec.space() is not space

    def test_invalidate_caches_after_inplace_mutation(self):
        rec = make_record()
        before = rec.shg()
        rec.shg_nodes.append(dict(rec.shg_nodes[0], id=2))
        assert rec.shg() is before  # in-place mutation is invisible...
        rec.invalidate_caches()
        assert len(rec.shg()) == 3  # ...until caches are dropped

    def test_memo_not_serialised(self):
        rec = make_record()
        rec.flat_profile()
        assert "_memo" not in rec.to_dict()
        assert rec.to_dict() == make_record().to_dict()


# ---------------------------------------------------------------------------
# store record cache
# ---------------------------------------------------------------------------
class TestStoreCache:
    def test_repeat_load_hits_cache(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record())
        first = store.load("r1")
        assert store.load("r1") is first
        assert store.cache_info()["hits"] >= 1

    def test_save_primes_cache(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        rec = make_record()
        store.save(rec)
        assert store.load("r1") is rec

    def test_save_does_not_keep_a_dropped_record_alive(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        rec = make_record()
        store.save(rec)
        ref, expected = weakref.ref(rec), rec.to_dict()
        del rec
        gc.collect()
        assert ref() is None
        assert store.load("r1").to_dict() == expected

    def test_cache_disabled(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", cache_size=0)
        store.save(make_record())
        assert store.load("r1") is not store.load("r1")
        assert store.cache_info()["size"] == 0

    def test_lru_bound(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", cache_size=2)
        for i in range(4):
            store.save(make_record(run_id=f"r{i}"))
        assert store.cache_info()["size"] == 2

    def test_overwrite_after_load_returns_new_record(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record())
        store.load("r1")
        store.save(make_record(version="2"), overwrite=True)
        assert store.load("r1").version == "2"

    def test_cross_instance_overwrite_invalidates(self, tmp_path):
        a = ExperimentStore(tmp_path / "runs")
        b = ExperimentStore(tmp_path / "runs")
        a.save(make_record())
        assert b.load("r1").version == "1"
        a.save(make_record(version="2"), overwrite=True)
        # b never coordinated with a, but the record file's stat
        # signature changed with the atomic rename
        assert b.load("r1").version == "2"

    def test_delete_evicts(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record())
        store.load("r1")
        store.delete("r1")
        with pytest.raises(StoreError):
            store.load("r1")

    def test_corruption_quarantines_despite_cache(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record())
        store.load("r1")
        path = tmp_path / "runs" / "r1.json"
        data = json.loads(path.read_text())
        data["record"]["pairs_tested"] = 999  # breaks the checksum
        path.write_text(json.dumps(data))
        with pytest.raises(StoreCorruption):
            store.load("r1")
        assert (tmp_path / "runs" / "quarantine" / "r1.json").exists()
        with pytest.raises(StoreError):
            store.load("r1")


# ---------------------------------------------------------------------------
# load_many
# ---------------------------------------------------------------------------
class TestLoadMany:
    def test_order_preserved_with_mixed_hits(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", cache_size=2)
        ids = [f"r{i}" for i in range(5)]
        for run_id in ids:
            store.save(make_record(run_id=run_id))
        got = store.load_many(list(reversed(ids)))
        assert [r.run_id for r in got] == list(reversed(ids))

    def test_missing_run_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record())
        with pytest.raises(StoreError):
            store.load_many(["r1", "ghost"])

    def test_corrupt_file_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", cache_size=0)
        store.save(make_record())
        (tmp_path / "runs" / "r1.json").write_text("not json")
        with pytest.raises(StoreCorruption):
            store.load_many(["r1"])
        assert (tmp_path / "runs" / "quarantine" / "r1.json").exists()


# ---------------------------------------------------------------------------
# format-4 index summaries
# ---------------------------------------------------------------------------
def lay_down_format2(root):
    """A store as the format-2 releases left it: one checksummed record
    beside a bare run→meta ``index.json`` without summaries."""
    lay_down_old_store(root, [make_record()], (0,), index_format=2)


def read_index(root):
    """The base index as written, every summary's pair ids read back
    through the file's own pair table."""
    data = json.loads((root / "index.json").read_text())
    for meta in data["runs"].values():
        summary = meta["summary"]
        for field in ("true_pairs", "false_pairs"):
            summary[field] = [data["pairs"][i] for i in summary[field]]
    return data


class TestIndexSummaries:
    def test_save_writes_format4_envelope_with_summary(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record())
        # the save landed in an append-only index segment; compaction
        # folds it into the format-4 base envelope
        assert store.info().segments == 1
        store.compact()
        raw = json.loads((tmp_path / "runs" / "index.json").read_text())
        assert raw["runs"]["r1"]["summary"]["true_pairs"] == [0]
        data = read_index(tmp_path / "runs")
        assert data["format"] == 4
        summary = data["runs"]["r1"]["summary"]
        assert summary["true_pairs"] == [[
            "CPUbound", "< /Code/a.c/main, /Machine, /Process, /SyncObject >",
        ]]
        assert summary["duration"] == pytest.approx(10.0)

    def test_summarize_record_fractions(self):
        summary = summarize_record(make_record())
        assert summary["total_time"] == pytest.approx(10.0)
        assert summary["fractions"]["Code"]["/Code/a.c/main"]["compute"] == (
            pytest.approx(0.9)
        )
        assert summary["code_exec_fractions"]["/Code/a.c/tiny"] == (
            pytest.approx(0.001)
        )
        assert summary["code_leaves"] == ["/Code/a.c/main", "/Code/a.c/tiny"]
        assert summary["hyp_values"] == {
            "CPUbound": [0.4], "ExcessiveIOBlockingTime": [0.01],
        }

    def test_format2_store_loads_transparently(self, tmp_path):
        lay_down_format2(tmp_path / "runs")
        fresh = ExperimentStore(tmp_path / "runs")
        assert fresh.list() == ["r1"]
        assert fresh.load("r1").run_id == "r1"

    def test_lazy_backfill_upgrades_index(self, tmp_path):
        """No backfill is left: the open converts the whole index."""
        lay_down_format2(tmp_path / "runs")
        fresh = ExperimentStore(tmp_path / "runs")
        data = read_index(tmp_path / "runs")
        assert data["format"] == 4
        assert data["runs"]["r1"]["summary"] == summarize_record(make_record())
        assert fresh.summaries()["r1"]["summary"]["status"] == "complete"

    def test_single_summary_backfill(self, tmp_path):
        """``summary()`` on a converted store is a read: the token holds."""
        lay_down_format2(tmp_path / "runs")
        fresh = ExperimentStore(tmp_path / "runs")
        token = fresh.index_token()
        assert fresh.summary("r1")["peak_cost"] == pytest.approx(1.5)
        assert fresh.index_token() == token
        assert "summary" in read_index(tmp_path / "runs")["runs"]["r1"]

    def test_summary_matches_record(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        rec = make_record()
        store.save(rec)
        assert store.summary("r1") == summarize_record(rec)

    def test_rebuild_index_roundtrips_to_format4(self, tmp_path):
        lay_down_format2(tmp_path / "runs")
        report = ExperimentStore(tmp_path / "runs").rebuild_index()
        assert report.count == 1
        data = read_index(tmp_path / "runs")
        assert data["format"] == 4
        assert data["runs"]["r1"]["summary"] == summarize_record(make_record())
        assert data["runs"]["r1"]["seq"] == 0

    def test_summaries_filter_and_order(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record(run_id="a1", app_name="x"))
        store.save(make_record(run_id="b1", app_name="y"))
        store.save(make_record(run_id="a2", app_name="x"))
        assert list(store.summaries(app_name="x")) == ["a1", "a2"]
        assert list(store.summaries(run_ids=["a2", "b1"])) == ["a2", "b1"]

    def test_missing_run_summary_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        with pytest.raises(StoreError):
            store.summary("ghost")
