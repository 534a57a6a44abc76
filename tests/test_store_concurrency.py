"""Concurrent-writer stress tests for the experiment store.

N processes save records into one store simultaneously; the locked index
merge must keep every entry, assign unique monotonic ``seq`` values, and
leave every record file loadable.
"""

import multiprocessing

import pytest

from repro.storage import ExperimentStore, RunRecord

N_PROCS = 6
RECORDS_EACH = 5


def _tiny_record(run_id: str, version: str = "1") -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="stress",
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


def _writer(root, worker, barrier):
    store = ExperimentStore(root)
    barrier.wait()  # maximise overlap: all workers start saving at once
    for i in range(RECORDS_EACH):
        store.save(_tiny_record(f"w{worker}-r{i}"))


def test_concurrent_writers_lose_nothing(tmp_path):
    root = tmp_path / "runs"
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(N_PROCS)
    procs = [
        ctx.Process(target=_writer, args=(root, worker, barrier))
        for worker in range(N_PROCS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)

    store = ExperimentStore(root)
    expected = {f"w{w}-r{i}" for w in range(N_PROCS) for i in range(RECORDS_EACH)}
    assert len(store) == len(expected)
    assert set(store.list()) == expected
    index = dict(store.backend.query_summaries().items())
    seqs = sorted(meta["seq"] for meta in index.values())
    assert seqs == list(range(len(expected)))  # unique, gapless, monotonic
    for run_id in expected:
        assert store.load(run_id).run_id == run_id


def test_concurrent_store_creation(tmp_path):
    """Racing __init__ must not clobber an index another process wrote."""
    root = tmp_path / "runs"
    ready = ExperimentStore(root)
    ready.save(_tiny_record("keeper"))
    # a second instance opening the same directory must keep the entry
    again = ExperimentStore(root)
    assert again.list() == ["keeper"]


def test_rebuild_index_recovers_lost_entries(tmp_path):
    root = tmp_path / "runs"
    store = ExperimentStore(root)
    for i in range(3):
        store.save(_tiny_record(f"r{i}"))
    # simulate total index loss: base generation, segments, claim file
    # (with no index.json left the open starts a new, empty index)
    (root / "index.json").unlink()
    for seg in (root / "segments").glob("*.json"):
        seg.unlink()
    assert ExperimentStore(root).list() == []
    report = store.rebuild_index()
    assert report.count == 3
    assert sorted(report.kept) == ["r0", "r1", "r2"]
    assert report.quarantined == []
    assert set(store.list()) == {"r0", "r1", "r2"}
    seqs = sorted(m["seq"] for _rid, m in store.backend.query_summaries().items())
    assert seqs == [0, 1, 2]


def test_rebuild_preserves_existing_seq(tmp_path):
    store = ExperimentStore(tmp_path / "runs")
    for i in range(3):
        store.save(_tiny_record(f"r{i}"))
    before = {rid: m["seq"] for rid, m in store.backend.query_summaries().items()}
    store.rebuild_index()
    after = {rid: m["seq"] for rid, m in store.backend.query_summaries().items()}
    assert after == before


def test_concurrent_writers_all_have_summaries(tmp_path):
    """Every entry landed by racing writers carries its query summary —
    the locked merge must not drop another process's format-3 metadata."""
    root = tmp_path / "runs"
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(N_PROCS)
    procs = [
        ctx.Process(target=_writer, args=(root, worker, barrier))
        for worker in range(N_PROCS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)

    store = ExperimentStore(root)
    metas = store.summaries()
    assert len(metas) == N_PROCS * RECORDS_EACH
    for meta in metas.values():
        assert meta["summary"]["status"] == "complete"


def _overwriter(root, version, barrier):
    store = ExperimentStore(root)
    barrier.wait()
    rec = _tiny_record("shared", version=version)
    store.save(rec, overwrite=True)


def test_cross_process_overwrite_never_serves_stale_record(tmp_path):
    """A reader that cached the record before another process overwrote
    it must re-read: record body, index summary, and cache agree."""
    root = tmp_path / "runs"
    reader = ExperimentStore(root)
    reader.save(_tiny_record("shared", version="old"))
    assert reader.load("shared").version == "old"  # now cached

    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(1)
    p = ctx.Process(target=_overwriter, args=(root, "new", barrier))
    p.start()
    p.join(timeout=60)
    assert p.exitcode == 0

    assert reader.load("shared").version == "new"
    assert reader.summaries(run_ids=["shared"])["shared"]["version"] == "new"
