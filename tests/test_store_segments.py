"""The sharded index: segment append, compaction, and crash safety.

The file backend's save path appends sealed segment files instead of
rewriting the whole index; compaction folds them into a new base
generation.  These tests pin the segment lifecycle, the auto-compaction
policy, every intermediate crash state of the compaction protocol, and
survival of a real SIGKILL landing mid-write/mid-compaction.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.apps.synthetic import make_pingpong
from repro.cli import main as cli_main
from repro.core import SearchConfig, run_diagnosis
from repro.storage import ExperimentStore, RunRecord
from repro.storage.file_backend import FileBackend
from repro.storage.summary import meta_for_record
from tests.reference_extraction import facts_of_record, reference_directives


def _tiny_record(run_id: str, version: str = "1") -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="seg",
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


class TestSegmentLifecycle:
    def test_each_save_appends_one_segment(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        for i in range(5):
            store.save(_tiny_record(f"r{i}"))
            assert store.info().segments == i + 1
        # base untouched: all five live only in segments
        base = json.loads((tmp_path / "runs" / "index.json").read_text())
        assert base["runs"] == {}
        assert len(store) == 5

    def test_compact_folds_and_bumps_generation(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        for i in range(4):
            store.save(_tiny_record(f"r{i}"))
        before = store.summaries()
        stats = store.compact()
        assert stats.segments_folded == 4
        assert stats.entries == 4
        assert stats.generation == 1
        assert store.info().segments == 0
        assert store.summaries() == before
        # a second compaction folds nothing but keeps counting generations
        assert store.compact().generation == 2

    def test_auto_compact_threshold(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", auto_compact=3)
        store.save(_tiny_record("r0"))
        store.save(_tiny_record("r1"))
        assert store.info().segments == 2
        store.save(_tiny_record("r2"))  # hits the threshold -> inline fold
        assert store.info().segments == 0
        assert store.info().generation == 1
        assert len(store) == 3

    def test_fresh_reader_sees_unfolded_segments(self, tmp_path):
        writer = ExperimentStore(tmp_path / "runs", auto_compact=0)
        for i in range(3):
            writer.save(_tiny_record(f"r{i}"))
        reader = ExperimentStore(tmp_path / "runs")
        assert set(reader.list()) == {"r0", "r1", "r2"}
        assert all(
            meta["summary"]["status"] == "complete"
            for meta in reader.summaries().values()
        )

    def test_delete_is_a_segment_op(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        store.save(_tiny_record("keep"))
        store.save(_tiny_record("drop"))
        store.delete("drop")
        assert store.list() == ["keep"]
        assert ExperimentStore(tmp_path / "runs").list() == ["keep"]
        store.compact()
        assert ExperimentStore(tmp_path / "runs").list() == ["keep"]


class TestCompactionCrashStates:
    """The compaction protocol is: (1) write the new base via atomic
    rename, (2) delete the folded segments, (3) bump the state
    generation.  A crash after any prefix must leave the merged view
    unchanged for every later reader."""

    def _store_with_segments(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        for i in range(4):
            store.save(_tiny_record(f"r{i}"))
        return store, store.summaries()

    def test_crash_after_base_write(self, tmp_path):
        store, view = self._store_with_segments(tmp_path)
        backend = store.backend
        # step (1) only: new base written, segments still on disk
        backend._write_base(backend.read_merged(), generation=1)
        assert ExperimentStore(tmp_path / "runs").summaries() == view

    def test_crash_mid_segment_deletion(self, tmp_path):
        store, view = self._store_with_segments(tmp_path)
        backend = store.backend
        backend._write_base(backend.read_merged(), generation=1)
        # step (2) interrupted: only some folded segments deleted
        survivors = backend._segment_names()
        os.unlink(tmp_path / "runs" / "segments" / survivors[0])
        os.unlink(tmp_path / "runs" / "segments" / survivors[2])
        assert ExperimentStore(tmp_path / "runs").summaries() == view

    def test_crash_before_state_bump_then_write(self, tmp_path):
        store, view = self._store_with_segments(tmp_path)
        backend = store.backend
        backend._write_base(backend.read_merged(), generation=1)
        for name in backend._segment_names():
            os.unlink(tmp_path / "runs" / "segments" / name)
        # step (3) never ran: the stale state file must not clash with
        # the next writer
        after = ExperimentStore(tmp_path / "runs")
        assert after.summaries() == view
        after.save(_tiny_record("r4"))
        seqs = sorted(m["seq"] for _rid, m in after.backend.query_summaries().items())
        assert seqs == [0, 1, 2, 3, 4]

    def test_rebuild_recovers_from_arbitrary_wreckage(self, tmp_path):
        store, _view = self._store_with_segments(tmp_path)
        (tmp_path / "runs" / "index.json").write_text('{"format": 3')
        for name in list(store.backend._segment_names())[:2]:
            (tmp_path / "runs" / "segments" / name).write_text("garbage")
        report = ExperimentStore(tmp_path / "runs").rebuild_index()
        assert sorted(report.kept) == ["r0", "r1", "r2", "r3"]
        fresh = ExperimentStore(tmp_path / "runs")
        assert sorted(fresh.list()) == ["r0", "r1", "r2", "r3"]
        assert fresh.info().segments == 0


def _churn(root, stop_after):
    """Child: save + compact in a tight loop until killed."""
    store = ExperimentStore(root, auto_compact=2)
    for i in range(stop_after):
        store.save(_tiny_record(f"churn-{i:04d}"))


class TestSigkillMidCompaction:
    def test_store_survives_sigkill_and_rebuild_recovers(self, tmp_path):
        root = tmp_path / "runs"
        seed = ExperimentStore(root, auto_compact=0)
        seed.save(_tiny_record("seed"))
        ctx = multiprocessing.get_context()
        child = ctx.Process(target=_churn, args=(root, 2000))
        child.start()
        # let it get through some save/compact cycles, then kill it cold
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stored = len(list(root.glob("churn-*.json")))
            if stored >= 6:
                break
            time.sleep(0.002)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert stored >= 6

        # readable without any repair, whatever instant the kill hit
        survivor = ExperimentStore(root)
        ids = survivor.list()
        assert "seed" in ids
        for run_id in ids:
            assert survivor.load(run_id).run_id == run_id

        # rebuild recovers every record file on disk, including any whose
        # index op the kill swallowed
        report = survivor.rebuild_index()
        on_disk = {p.stem for p in root.glob("*.json")} - {"index"}
        assert set(report.kept) == on_disk
        assert report.quarantined == []
        fresh = ExperimentStore(root)
        assert set(fresh.list()) == on_disk
        seqs = sorted(m["seq"] for _rid, m in fresh.backend.query_summaries().items())
        assert seqs == list(range(len(on_disk)))


def _segment_writer(root, worker, barrier, n_records):
    store = ExperimentStore(root, auto_compact=0)
    barrier.wait()
    for i in range(n_records):
        store.save(_tiny_record(f"w{worker}-r{i}"))


def _compactor(root, barrier, rounds):
    store = ExperimentStore(root, auto_compact=0)
    barrier.wait()
    for _ in range(rounds):
        store.compact()


class TestConcurrentSegmentWriters:
    N_WRITERS = 4
    RECORDS_EACH = 6

    def test_compaction_racing_writers_loses_nothing(self, tmp_path):
        root = tmp_path / "runs"
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(self.N_WRITERS + 1)
        procs = [
            ctx.Process(
                target=_segment_writer,
                args=(root, w, barrier, self.RECORDS_EACH),
            )
            for w in range(self.N_WRITERS)
        ]
        procs.append(ctx.Process(target=_compactor, args=(root, barrier, 8)))
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)

        store = ExperimentStore(root)
        expected = {
            f"w{w}-r{i}"
            for w in range(self.N_WRITERS)
            for i in range(self.RECORDS_EACH)
        }
        assert set(store.list()) == expected
        seqs = sorted(m["seq"] for _rid, m in store.backend.query_summaries().items())
        assert seqs == list(range(len(expected)))
        for run_id in expected:
            assert store.load(run_id).run_id == run_id


# ---------------------------------------------------------------------------
# stores written before the index had segments
# ---------------------------------------------------------------------------
def lay_down_old_store(root, records, seqs, *, index_format=3):
    """Write by hand what the monolithic-index releases left on disk:
    one checksummed file per record beside a single ``index.json`` — the
    format-3 envelope, or the bare format-2 mapping that predates index
    summaries — and no ``segments/``, claim file or aggregate sidecar.
    The first open converts it (``tests/test_legacy_stores.py`` pins
    the answers against the reader that predates the conversion)."""
    root.mkdir(parents=True)
    runs = {}
    for record, seq in zip(records, seqs):
        payload = record.to_dict()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        (root / f"{record.run_id}.json").write_text(json.dumps({
            "format": 2,
            "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "record": payload,
        }))
        meta = dict(meta_for_record(record), seq=seq)
        if index_format == 2:
            del meta["summary"]
        runs[record.run_id] = meta
    index = {"format": 3, "runs": runs} if index_format == 3 else runs
    (root / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True))
    return runs


class TestStoreWrittenBeforeSegments:
    FAST = SearchConfig(min_interval=5.0, check_period=0.5,
                        insertion_latency=0.2, cost_limit=50.0)

    def diagnosed(self, run_id, iterations):
        return run_diagnosis(make_pingpong(iterations=iterations),
                             run_id=run_id, config=self.FAST)

    @pytest.mark.parametrize("index_format", (3, 2))
    def test_opens_extends_harvests_and_compacts(self, tmp_path, index_format):
        root = tmp_path / "old"
        records = [self.diagnosed(f"old-{i}", 40 + 20 * i) for i in range(3)]
        # written out of seq order, with the gaps deletes left behind
        lay_down_old_store(root, records, (5, 0, 2), index_format=index_format)

        # the open converts it: every meta summarized, every seq kept,
        # the stamp written and the whole index aggregated
        store = ExperimentStore(root, auto_compact=0)
        assert store.info().backend == "file"
        assert list(store.backend.query_summaries().items()) == [
            (r.run_id, dict(meta_for_record(r), seq=seq))
            for r, seq in ((records[1], 0), (records[2], 2), (records[0], 5))]
        assert store.load("old-2").to_dict() == records[2].to_dict()
        assert os.listdir(root / "segments") == ["_state.json"]
        info = store.info()
        assert info.aggregated_runs == info.runs == 3

        new = self.diagnosed("new-0", 50)
        store.save(new)
        assert dict(store.backend.query_summaries().items())["new-0"]["seq"] == 6
        assert sorted(os.listdir(root / "segments")) == [
            "000000000000.json", "_state.json"]
        assert store.list() == ["old-1", "old-2", "old-0", "new-0"]

        expected = reference_directives(
            [facts_of_record(r) for r in (records[1], records[2], records[0], new)],
            include_thresholds=True,
        ).to_text()
        # the first seal rolls the converted sidecar over the new run
        info = store.info()
        assert info.aggregated_runs == info.runs == 4
        assert store.backend.harvest_aggregate() is not None
        assert store.harvest_evidence().finalize(
            include_thresholds=True).to_text() == expected

        store.compact()
        fresh = ExperimentStore(root)
        assert fresh.info().aggregated_runs == fresh.info().runs == 4
        assert fresh.backend.harvest_aggregate() is not None
        assert fresh.harvest_evidence().finalize(
            include_thresholds=True).to_text() == expected

    def test_monolithic_backend_name_is_gone(self, tmp_path, capsys):
        with pytest.raises(TypeError, match="backend"):
            ExperimentStore(tmp_path / "runs", backend="file-legacy")
        ExperimentStore(tmp_path / "runs").save(_tiny_record("r0"))
        with pytest.raises(SystemExit) as usage:
            cli_main(["store", "stats", "--store", str(tmp_path / "runs"),
                      "--backend", "file"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
