"""The sharded index: segment append, compaction, and crash safety.

The file backend's save path appends sealed segment files instead of
rewriting the whole index; compaction folds them into a new base
generation.  These tests pin the segment lifecycle, the auto-compaction
policy, every intermediate crash state of the compaction protocol, and
survival of a real SIGKILL landing mid-write/mid-compaction.
"""

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import signal
import time
import tracemalloc

import pytest

from repro.apps.catalog import build_catalog_app
from repro.apps.synthetic import make_pingpong
from repro.cli import main as cli_main
from repro.core import DiagnosisSession, SearchConfig, run_diagnosis
from repro.faults import io as io_faults
from repro.storage import ExperimentStore, RunRecord, StoreCorruption, file_backend
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

    def test_fresh_reader_sees_unfolded_segments(self, tmp_path, monkeypatch):
        # the base as this release writes it, and as older releases did
        for base_json in ("compact", "indented"):
            root = tmp_path / base_json
            with monkeypatch.context() as patch:
                if base_json == "indented":
                    patch.setattr(FileBackend, "_write_base",
                                  _write_indented_base)
                writer = ExperimentStore(root, auto_compact=0)
                for i in range(5):
                    writer.save(_paired_record(f"r{i}"))
                    if i == 2:
                        writer.compact()  # r0-r2 in the base, r3-r4 in segments
            base = (root / "index.json").read_text()
            assert ("\n" in base) == (base_json == "indented")

            reader = ExperimentStore(root)
            assert reader.list() == ["r0", "r1", "r2", "r3", "r4"]
            assert all(
                meta["summary"]["status"] == "complete"
                for meta in reader.summaries().values()
            )
            assert reader.summaries() == writer.summaries()
            # opened as it is: no rebuild (generation 1) and the sidecar
            # the writer left still covers every run
            info = reader.info()
            assert info.generation == 1 and info.segments == 2
            assert info.aggregated_runs == info.runs == 5

    def test_delete_is_a_segment_op(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        store.save(_tiny_record("keep"))
        store.save(_tiny_record("drop"))
        store.delete("drop")
        assert store.list() == ["keep"]
        assert ExperimentStore(tmp_path / "runs").list() == ["keep"]
        store.compact()
        assert ExperimentStore(tmp_path / "runs").list() == ["keep"]


_WRITE_BASE = FileBackend._write_base


def _write_indented_base(backend, index, generation=0):
    """``_write_base`` as older releases ran it: the base index with
    ``indent=1`` and sorted keys, rewritten through the atomic write
    (every other file is written as this release writes it)."""
    _WRITE_BASE(backend, index, generation)
    envelope = json.loads(backend._index_path.read_text())
    file_backend._atomic_write(
        backend._index_path, [json.dumps(envelope, indent=1, sort_keys=True)])


def _paired_record(run_id: str) -> RunRecord:
    """A tiny record that concluded one true and one false pair."""
    nodes = [
        {"id": i, "hypothesis": hyp, "focus": f"< /Code/{hyp}.c, /Process >",
         "state": state, "priority": "medium", "persistent": False,
         "value": 0.5, "t_requested": 0.0, "t_concluded": 1.0,
         "quality": None, "parents": [], "children": []}
        for i, (hyp, state) in enumerate(
            (("CPUbound", "true"), ("ExcessiveSyncWaitingTime", "false")))
    ]
    return dataclasses.replace(_tiny_record(run_id), shg_nodes=nodes)


def _pairs_of(metas, field):
    return [meta["summary"][field][0] for meta in metas.values()]


def _index_reads(monkeypatch) -> list:
    """Every base-index or segment file the store opens for reading from
    now on (the claim file ``segments/_state.json`` is not counted)."""
    reads = []
    real_check = io_faults.check

    def counting(op, path=None):
        if op == "read" and path is not None:
            path = str(path)
            if path.endswith("index.json") or (
                    os.sep + "segments" + os.sep in path
                    and not path.endswith("_state.json")):
                reads.append(path)
        return real_check(op, path)

    monkeypatch.setattr(io_faults, "check", counting)
    return reads


class TestSharedPairsAndWarmPuts:
    """Every meta the backend caches points each ``[hypothesis, focus]``
    at one shared list, and a put advances the cached view by its own
    op instead of replaying the index."""

    def test_same_pair_is_one_object(self, tmp_path):
        root = tmp_path / "runs"
        writer = ExperimentStore(root, auto_compact=0)
        for i in range(4):
            writer.save(_paired_record(f"r{i}"))
            if i == 1:
                writer.compact()  # r0, r1 in the base; r2, r3 in segments
        # base parse + segment parse (a fresh open), the writer's puts
        # over its compacted base, and a rebuilt base
        for metas in (ExperimentStore(root).summaries(), writer.summaries()):
            for field in ("true_pairs", "false_pairs"):
                first, *rest = _pairs_of(metas, field)
                assert all(pair is first for pair in rest)
        writer.rebuild_index()
        for field in ("true_pairs", "false_pairs"):
            first, *rest = _pairs_of(writer.summaries(), field)
            assert all(pair is first for pair in rest)
        # values are unchanged: lists of [hypothesis, focus] lists
        assert writer.summary("r0")["true_pairs"] == [
            ["CPUbound", "< /Code/CPUbound.c, /Process >"]]

    def test_held_index_grows_by_pointers_per_run(self, tmp_path):
        """Around ``read_merged()`` on a fresh open, each added run of
        the Poisson record grows the held index by well under a third of
        the ~260 KB a plain parse of its spelled-out summary held
        (measured: ~40 KB), and the base on disk by well under the
        ~92 KB its summary took with every pair spelled out as two
        strings (measured: ~15 KB with a per-file pair table)."""
        record = DiagnosisSession(
            app=build_catalog_app("poisson", "A", 1000),
            config=SearchConfig(stop_engine_when_done=True)).run()
        assert len(record.false_pairs()) > 500

        def held(n_runs):
            root = tmp_path / f"s{n_runs}"
            store = ExperimentStore(root, auto_compact=0)
            for i in range(n_runs):
                store.save(dataclasses.replace(record, run_id=f"r{i}"))
            store.compact()
            base_bytes = (root / "index.json").stat().st_size
            store.save(dataclasses.replace(record, run_id="tail"))
            gc.collect()
            tracemalloc.start()
            try:
                backend = FileBackend(root)
                view = backend.read_merged()
                shared = tracemalloc.get_traced_memory()[0]
                del backend, view
            finally:
                tracemalloc.stop()
            return shared, base_bytes

        shared_2, base_2 = held(2)
        shared_6, base_6 = held(6)
        assert (shared_6 - shared_2) / 4 < 87_000
        assert (base_6 - base_2) / 4 < 23_000

    def test_warm_put_reads_and_replays_nothing(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path / "runs", auto_compact=0)
        for i in range(3):
            store.save(_paired_record(f"r{i}"))
        store.compact()
        store.save(_paired_record("r3"))  # warm: base and a segment cached
        reads = _index_reads(monkeypatch)
        applied = []
        apply_ops = file_backend._apply_ops

        def counting_apply(view, ops):
            applied.append(len(ops))
            apply_ops(view, ops)

        monkeypatch.setattr(file_backend, "_apply_ops", counting_apply)
        store.save(_paired_record("r4"))
        store.save(_paired_record("r2"), overwrite=True)  # sidecar rebuilt
        listed = store.summaries()
        assert reads == []
        assert applied == [1, 1]  # each put's own op, no replay
        monkeypatch.undo()
        fresh = ExperimentStore(tmp_path / "runs")
        assert fresh.summaries() == listed
        assert list(listed) == ["r0", "r1", "r2", "r3", "r4"]
        assert store.harvest_evidence() == fresh.harvest_evidence()

    def test_two_backends_in_turn_match_one_writer(self, tmp_path):
        root = tmp_path / "two"
        writers = (ExperimentStore(root, auto_compact=3),
                   ExperimentStore(root, auto_compact=0))
        solo = ExperimentStore(tmp_path / "one", auto_compact=3)
        steps = [("save", f"r{i}") for i in range(5)] + [
            ("overwrite", "r1"), ("delete", "r0"), ("save", "r5"),
            ("overwrite", "r3"), ("save", "r6"), ("save", "r7")]
        for turn, (op, run_id) in enumerate(steps):
            for store in (writers[turn % 2], solo):
                if op == "delete":
                    store.delete(run_id)
                else:
                    store.save(_paired_record(run_id),
                               overwrite=op == "overwrite")
            want = solo.summaries()
            for store in writers + (ExperimentStore(root),):
                assert store.summaries() == want, (turn, op, run_id)
        assert writers[0].harvest_evidence() == solo.harvest_evidence()
        assert writers[1].harvest_evidence() == solo.harvest_evidence()


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


class TestIndexFilesOfAnotherFormat:
    """A layout-2 store reads only format-4 bases and format-2 segments:
    a file an older release wrote into it is refused by name, never
    decoded as pair ids, and ``rebuild`` recovers the store."""

    def _store(self, root):
        store = ExperimentStore(root, auto_compact=0)
        store.save(_paired_record("r0"))
        store.compact()
        store.save(_paired_record("r1"))
        return store

    def test_base_of_format_3_is_refused(self, tmp_path):
        root = tmp_path / "runs"
        listed = self._store(root).summaries()
        (root / "index.json").write_text(json.dumps({"format": 3, "runs": {
            "r0": listed["r0"]}}))
        fresh = ExperimentStore(root)
        with pytest.raises(StoreCorruption, match=(
                r"index\.json: format 3 .*repro store rebuild")):
            fresh.summaries()
        fresh.rebuild_index()
        assert ExperimentStore(root).summaries() == listed

    def test_segment_with_string_pairs_is_refused(self, tmp_path):
        root = tmp_path / "runs"
        listed = self._store(root).summaries()
        (name,) = [n for n in os.listdir(root / "segments") if n[0] != "_"]
        (root / "segments" / name).write_text(json.dumps({"format": 1, "ops": [
            {"op": "put", "run_id": "r1", "meta": listed["r1"]}]}))
        fresh = ExperimentStore(root)
        with pytest.raises(StoreCorruption, match=(
                rf"segments/{name}: format 1 .*repro store rebuild")):
            fresh.summaries()
        fresh.rebuild_index()
        assert ExperimentStore(root).summaries() == listed


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
