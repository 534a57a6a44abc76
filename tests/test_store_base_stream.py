"""The streamed base index.

``FileBackend._write_base`` writes ``index.json`` one run at a time,
byte for byte what ``json.dumps`` of the whole envelope gave, and then
caches the view it wrote instead of a re-encoded, re-decoded copy.  The
oracle is that whole-envelope dump: ``_whole_envelope_write_base`` below
is the base writer as it was before it streamed, and the same operations
through either writer must leave the same bytes.
"""

import dataclasses
import gc
import json
import os
import tracemalloc

import pytest

from repro.apps.catalog import build_catalog_app
from repro.core import DiagnosisSession, SearchConfig
from repro.faults import io as io_faults
from repro.faults.io import IOFault, IOFaultPlan, SimulatedCrash
from repro.storage import ExperimentStore, RunRecord, file_backend
from repro.storage.file_backend import FileBackend


def _whole_envelope_write_base(backend, index, generation=0):
    """The oracle: re-encode every meta, dump the envelope as one
    string, and cache a decoded copy of what was written."""
    ids = {}

    def encoded(meta):
        summary = dict(meta["summary"])
        for field in ("true_pairs", "false_pairs"):
            summary[field] = [ids.setdefault((hyp, focus), len(ids))
                              for hyp, focus in summary[field]]
        return dict(meta, summary=summary)

    runs = {run_id: encoded(meta) for run_id, meta in index.items()}
    envelope = {"format": 4, "pairs": list(ids), "runs": runs}
    if generation:
        envelope["generation"] = generation
    file_backend._atomic_write(backend._index_path, [json.dumps(envelope)])
    with backend._cache_lock:
        backend._pairs = {}
        backend._resolve_pairs("index.json", ids, runs.values())
        backend._base_cache = (file_backend._stat_sig(backend._index_path),
                               generation, runs)
        backend._merged_cache = None


def _diagnose(app, version, iterations):
    return DiagnosisSession(
        app=build_catalog_app(app, version, iterations),
        config=SearchConfig(stop_engine_when_done=True)).run()


@pytest.fixture(scope="module")
def records():
    """Two Poisson versions and Ocean: two apps, differing pair sets."""
    return {"A": _diagnose("poisson", "A", 200),
            "C": _diagnose("poisson", "C", 200),
            "ocean": _diagnose("ocean", None, 200)}


def _save(store, record, run_id, overwrite=False):
    store.save(dataclasses.replace(record, run_id=run_id), overwrite=overwrite)


def _index_bytes_through_every_writer(root, records):
    """``index.json`` after each base write of one fixed history: the
    empty-store initialisation, a generation-0 rewrite, compactions
    over deletes and overwrites in a store of two apps, and a rebuild."""
    seen = []

    def checkpoint():
        seen.append((root / "index.json").read_bytes())

    store = ExperimentStore(root, auto_compact=0)
    checkpoint()
    for i in range(3):
        _save(store, records["A"], f"a{i}")
    _save(store, records["ocean"], "o0")
    store.backend._write_base(store.backend.read_merged())  # generation 0
    checkpoint()
    _save(store, records["C"], "c0")
    _save(store, records["ocean"], "o1")
    store.compact()
    checkpoint()
    _save(store, records["C"], "a1", overwrite=True)
    store.delete("a0")
    store.delete("o0")
    _save(store, records["A"], "a3")
    store.compact()
    checkpoint()
    # rebuild adopts the record files in mtime order: pin it
    for i, run_id in enumerate(["a1", "a2", "c0", "o1", "a3"]):
        os.utime(root / f"{run_id}.json", ns=(10**9 * (i + 1),) * 2)
    store.rebuild_index()
    checkpoint()
    for run_id in store.list():
        store.delete(run_id)
    store.compact()
    checkpoint()
    return seen


def test_index_bytes_match_the_whole_envelope_dump(tmp_path, records,
                                                    monkeypatch):
    streamed = _index_bytes_through_every_writer(tmp_path / "streamed",
                                                 records)
    monkeypatch.setattr(FileBackend, "_write_base", _whole_envelope_write_base)
    oracle = _index_bytes_through_every_writer(tmp_path / "oracle", records)
    assert streamed == oracle
    generations = [json.loads(text).get("generation", 0) for text in oracle]
    assert generations == [0, 0, 1, 2, 3, 4]
    assert oracle[0] == b'{"format": 4, "pairs": [], "runs": {}}'
    runs = json.loads(oracle[3])["runs"]
    assert sorted(runs) == ["a1", "a2", "a3", "c0", "o1"]
    assert {meta["app_name"] for meta in runs.values()} == {"poisson", "ocean"}


def _distinct_pair_record(run_id):
    """A tiny record whose one true pair is its own."""
    return RunRecord(
        run_id=run_id, app_name="seg", version="1", n_processes=1,
        nodes=["n0"], placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[{"id": 0, "hypothesis": "CPUbound",
                    "focus": f"< /Code/{run_id}.c, /Process >",
                    "state": "true", "priority": "medium",
                    "persistent": False, "value": 0.5, "t_requested": 0.0,
                    "t_concluded": 1.0, "quality": None, "parents": [],
                    "children": []},
                   {"id": 1, "hypothesis": "ExcessiveSyncWaitingTime",
                    "focus": "< /Code, /Process >", "state": "false",
                    "priority": "medium", "persistent": False, "value": 0.1,
                    "t_requested": 0.0, "t_concluded": 1.0,
                    "quality": None, "parents": [], "children": []}],
        profile={}, finish_time=1.0, search_done_time=None,
        pairs_tested=2, total_requests=2, peak_cost=0.0)


def _pairs_in(view):
    return {tuple(pair) for meta in view.values()
            for field in ("true_pairs", "false_pairs")
            for pair in meta["summary"][field]}


def _assert_decoded_as_read(backend, view):
    """Every pair list in *view* is the backend's one shared list, and
    the table holds the pairs of *view*'s runs and no others."""
    assert set(backend._pairs) == _pairs_in(view)
    for meta in view.values():
        for field in ("true_pairs", "false_pairs"):
            for pair in meta["summary"][field]:
                assert pair is backend._pairs[tuple(pair)]


def test_cache_after_a_write_is_the_written_view(tmp_path):
    root = tmp_path / "runs"
    store = ExperimentStore(root, auto_compact=0)
    for i in range(4):
        store.save(_distinct_pair_record(f"r{i}"))
        if i == 1:
            store.compact()
    store.delete("r0")  # its pair must leave the table with it
    backend = store.backend
    before = backend.read_merged()
    store.compact()
    base, generation = backend._read_base()
    assert generation == 2
    # the very metas the merged view held: nothing re-encoded or copied
    assert list(base) == list(before)
    assert all(base[run_id] is meta for run_id, meta in before.items())
    _assert_decoded_as_read(backend, base)
    assert ("CPUbound", "< /Code/r0.c, /Process >") not in backend._pairs
    # a rebuild's fresh metas enter the cache decoded the same way
    store.rebuild_index()
    base, _generation = backend._read_base()
    _assert_decoded_as_read(backend, base)
    assert store.summaries() == ExperimentStore(root).summaries()
    # the writer keeps decoding later segments against that table
    store.save(_distinct_pair_record("r9"))
    _assert_decoded_as_read(backend, backend.read_merged())


def test_compaction_seals_each_file_through_one_seam_call(tmp_path):
    """The fault seams are consulted once per file, however many chunks
    it is written in: a compaction writes the base, the sidecar and the
    claim file."""
    store = ExperimentStore(tmp_path / "runs", auto_compact=0)
    for i in range(3):
        store.save(_distinct_pair_record(f"r{i}"))
    with io_faults.injected(IOFaultPlan()) as injector:
        store.backend.compact()
    counts = injector.counters
    assert (counts["write"], counts["fsync"], counts["replace"]) == (3, 3, 3)


def test_compaction_of_64_poisson_runs_peaks_low(tmp_path):
    """The traced peak of ``compact()`` over 64 Poisson A runs: one run's
    encoding plus the pair-id table (measured ~0.4 MiB; the
    whole-envelope dump peaked at ~4.7 MiB)."""
    record = _diagnose("poisson", "A", 1000)
    store = ExperimentStore(tmp_path / "runs", auto_compact=0)
    for i in range(64):
        store.save(dataclasses.replace(record, run_id=f"r{i}"))
    store.summaries()  # the merged view is held before, as a writer holds it
    gc.collect()
    tracemalloc.start()
    try:
        store.compact()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    assert len(store) == 64


#: Neither operation writes a file before its base, so the first call of
#: each op is the base write's (its temp file is ``index.json.tmp``; the
#: sidecar's, written after it, is ``index.aggregate.tmp``).
_BASE_WRITE_FAULTS = {
    "short-0.1": IOFault("write", 0, "short", arg=0.1, path_part="index.json.tmp"),
    "short-0.5": IOFault("write", 0, "short", arg=0.5, path_part="index.json.tmp"),
    "short-0.9": IOFault("write", 0, "short", arg=0.9, path_part="index.json.tmp"),
    "lost-fsync": IOFault("fsync", 0, "lost", path_part="index.json.tmp"),
    "failed-replace": IOFault("replace", 0, "eio", path_part="index.json"),
    "crash": IOFault("write", 0, "crash", path_part="index.json.tmp"),
}


@pytest.mark.parametrize("operation", ["compact", "rebuild"])
@pytest.mark.parametrize("fault", sorted(_BASE_WRITE_FAULTS))
def test_fault_in_the_base_write_keeps_the_store(tmp_path, operation, fault):
    root = tmp_path / "runs"
    store = ExperimentStore(root, auto_compact=0)
    for i in range(5):
        store.save(_distinct_pair_record(f"r{i}"))
        if i == 2:
            store.compact()
    store.delete("r1")
    before = store.summaries()
    run = {"compact": FileBackend.compact, "rebuild": FileBackend.rebuild}
    with io_faults.injected(IOFaultPlan(faults=(_BASE_WRITE_FAULTS[fault],))) \
            as injector:
        try:
            run[operation](store.backend)
        except (OSError, SimulatedCrash):
            pass
    assert [strike[2] for strike in injector.injected] == [
        _BASE_WRITE_FAULTS[fault].kind]
    torn = root / "index.json.tmp"
    landed = torn.read_text() if fault.startswith("short") else None

    reopened = ExperimentStore(root)
    assert reopened.summaries() == before
    if landed is not None:
        # the same operation, unfaulted, writes the text that was cut
        run[operation](FileBackend(root))
        whole = (root / "index.json").read_text()
        assert 0 < len(landed) < len(whole) and whole.startswith(landed)
        reopened = ExperimentStore(root)
    reopened.compact()
    assert reopened.summaries() == before
    assert ExperimentStore(root).summaries() == before


def test_each_file_has_a_temp_name_of_its_own(tmp_path):
    """A fault aimed at the base's temp file strikes the base alone: the
    sidecar a compaction writes after it has a temp name of its own."""
    root = tmp_path / "runs"
    store = ExperimentStore(root, auto_compact=0)
    for i in range(3):
        store.save(_distinct_pair_record(f"r{i}"))
    before = store.summaries()
    lost = IOFault("fsync", 0, "lost", times=99, path_part="index.json.tmp")
    with io_faults.injected(IOFaultPlan(faults=(lost,))) as injector:
        store.compact()
    assert injector.counters["fsync"] >= 2  # the base's and the sidecar's
    assert [(strike[2], os.path.basename(strike[3]))
            for strike in injector.injected] == [("lost", "index.json.tmp")]
    assert (root / "index.aggregate").exists()
    assert not list(root.glob("*.tmp"))
    assert ExperimentStore(root).summaries() == before
