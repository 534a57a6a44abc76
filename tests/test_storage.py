"""Tests for the experiment store and run-record round-trips."""

import pytest

from repro.apps.synthetic import make_pingpong
from repro.core import SearchConfig, run_diagnosis
from repro.metrics import CostModel
from repro.storage import ExperimentStore, RunRecord, StoreError

FAST = SearchConfig(min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0)


@pytest.fixture(scope="module")
def record():
    app = make_pingpong(iterations=60)
    return run_diagnosis(
        app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0), run_id="pp-base"
    )


class TestRunRecordRoundtrip:
    def test_dict_roundtrip_equal(self, record):
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_roundtrip_preserves_queries(self, record):
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.true_pairs() == record.true_pairs()
        assert clone.found_times() == record.found_times()
        assert clone.pairs_tested == record.pairs_tested
        assert clone.placement == record.placement

    def test_space_reconstruction(self, record):
        space = record.space()
        assert "/Code/pp.c/work" in space
        assert "/SyncObject/Message/9/0" in space

    def test_shg_reconstruction(self, record):
        shg = record.shg()
        assert len(shg) == len(record.shg_nodes)

    def test_efficiency(self, record):
        assert record.efficiency() == pytest.approx(
            record.bottleneck_count() / record.pairs_tested
        )

    def test_time_to_find_all(self, record):
        assert record.time_to_find_all() == max(record.found_times().values())


class TestExperimentStore:
    def test_save_and_load(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(record)
        loaded = store.load("pp-base")
        assert loaded.to_dict() == record.to_dict()

    def test_duplicate_save_rejected(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(record)
        with pytest.raises(StoreError):
            store.save(record)
        store.save(record, overwrite=True)  # explicit overwrite allowed

    def test_load_missing(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        with pytest.raises(StoreError):
            store.load("nope")

    def test_contains_and_len(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        assert "pp-base" not in store
        store.save(record)
        assert "pp-base" in store
        assert len(store) == 1

    def test_unindexed_orphan_payload_is_not_in_store(self, tmp_path, record):
        """``in`` answers from the index, as ``list()``, ``len()`` and
        ``save`` do: a payload file no index entry names (a kill between
        a save's record rename and its segment seal) is absent until
        ``rebuild_index()`` adopts it."""
        donor = ExperimentStore(tmp_path / "donor")
        donor.save(record)
        store = ExperimentStore(tmp_path / "runs")
        (tmp_path / "runs" / "pp-base.json").write_bytes(
            (tmp_path / "donor" / "pp-base.json").read_bytes())
        assert "pp-base" not in store
        assert store.list() == [] and len(store) == 0
        store.rebuild_index()
        assert "pp-base" in store
        assert store.list() == ["pp-base"]

    def test_list_filters(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(record)
        other = RunRecord.from_dict(record.to_dict())
        other.run_id = "pp-2"
        other.version = "2"
        store.save(other)
        assert store.list() == ["pp-base", "pp-2"]
        assert store.list(version="2") == ["pp-2"]
        assert store.list(app_name="pingpong") == ["pp-base", "pp-2"]
        assert store.list(app_name="other") == []

    def test_latest(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(record)
        other = RunRecord.from_dict(record.to_dict())
        other.run_id = "pp-2"
        store.save(other)
        assert store.latest("pingpong").run_id == "pp-2"
        assert store.latest("ghost") is None

    def test_delete(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(record)
        store.delete("pp-base")
        assert "pp-base" not in store
        assert store.list() == []
        store.delete("pp-base")  # idempotent

    def test_load_all(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(record)
        recs = store.load_many(["pp-base"])
        assert len(recs) == 1 and recs[0].run_id == "pp-base"

    def test_persists_across_instances(self, tmp_path, record):
        ExperimentStore(tmp_path / "runs").save(record)
        again = ExperimentStore(tmp_path / "runs")
        assert "pp-base" in again
        assert again.list() == ["pp-base"]


class TestSequenceNumbers:
    def _clones(self, record, *run_ids):
        out = []
        for run_id in run_ids:
            clone = RunRecord.from_dict(record.to_dict())
            clone.run_id = run_id
            out.append(clone)
        return out

    def _seqs(self, store):
        return {rid: meta["seq"] for rid, meta in store.backend.query_summaries().items()}

    def test_overwrite_preserves_seq(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        a, b, c = self._clones(record, "a", "b", "c")
        for rec in (a, b, c):
            store.save(rec)
        before = self._seqs(store)
        store.save(a, overwrite=True)
        after = self._seqs(store)
        assert after == before  # regression: overwrite used to get seq=len(index)
        assert sorted(after.values()) == [0, 1, 2]
        assert store.list() == ["a", "b", "c"]

    def test_seq_monotonic_after_delete(self, tmp_path, record):
        store = ExperimentStore(tmp_path / "runs")
        a, b, c = self._clones(record, "a", "b", "c")
        store.save(a)
        store.save(b)
        store.delete("a")
        store.save(c)
        seqs = self._seqs(store)
        assert seqs["c"] > seqs["b"]  # never reuses a live seq
        assert store.list() == ["b", "c"]
