"""The harvest aggregate: monoid laws, byte-identity with the naive
reference extraction, cross-backend equivalence, the pool's re-harvest
off the rolling aggregate, the index token it is cached against, the
seal that heals the sidecar, and the degrade-to-rescan guarantees under
crashes and missing aggregates.

The contract under test everywhere: a persisted aggregate may be
*absent* (forcing a fold over the full summary scan) but never *wrong* —
every answer is compared against the text the reference
(``tests/reference_extraction.py``: each rule a plain scan over the
store's summaries) gives for the same runs."""

import json
import random

import pytest

from repro.core.combination import union_directives
from repro.core.extraction import HarvestAggregate
from repro.facade import harvest
from repro.faults import IOFault, IOFaultPlan, SimulatedCrash
from repro.faults import io as io_faults
from repro.server.pool import StorePool
from repro.storage import ExperimentStore, RunRecord, StoreError
from repro.storage.file_backend import _stat_sig
from tests.reference_extraction import reference_directives

BACKENDS = ("file", "sqlite")

HYPS = ("CPUbound", "ExcessiveSyncWaitingTime", "ExcessiveIOBlockingTime")

OPTION_COMBOS = (
    {},
    {"include_thresholds": True},
    {"include_pair_prunes": False, "include_priorities": False},
    {"include_thresholds": True, "include_general_prunes": False,
     "min_exec_fraction": 0.05},
)


def _focus(name: str) -> str:
    return f"< {name}, /Machine, /Process, /SyncObject >"


def random_summary(rng: random.Random) -> dict:
    """One synthetic index summary with every key the harvest reads,
    including the awkward cases: empty leaf lists, fractions straddling
    the default ``min_exec_fraction``, near-duplicate hypothesis values."""
    leaves = [f"/Code/mod{j % 3}.c/fn{j:02d}"
              for j in range(rng.randint(0, 8))]
    pairs = lambda: [  # noqa: E731 - local shorthand
        [rng.choice(HYPS), _focus(rng.choice(leaves))]
        for _ in range(rng.randint(0, 3))
    ] if leaves else []
    fractions = {
        name: rng.choice(
            [0.0, 0.00012, 0.0049, 0.005, 0.3, rng.random()])
        for name in leaves if rng.random() < 0.8
    }
    hyp_values = {
        h: [round(rng.uniform(0.0, 1.0), rng.choice([2, 4, 6]))
            for _ in range(rng.randint(1, 4))]
        for h in HYPS if rng.random() < 0.7
    }
    return {
        "version": 1,
        "machine_nodes": rng.choice([2, 4, 8]),
        "n_processes": rng.choice([2, 4, 8]),
        "true_pairs": pairs(),
        "false_pairs": pairs(),
        "code_leaves": leaves,
        "code_exec_fractions": fractions,
        "hyp_values": hyp_values,
    }


def make_run(i: int, app: str = "aggtest") -> RunRecord:
    """A small diagnosed run whose summary exercises every harvest
    input: true/false pairs, hot + tiny functions, hypothesis values."""
    funcs = [f"/Code/m{j % 2}.c/fn{j:02d}" for j in range(6)]
    by_code = {
        name: {"compute": (20.0 + i if j < 2 else 0.001 + 0.0001 * j)}
        for j, name in enumerate(funcs)
    }
    nodes = []
    for j, state in enumerate(("true", "true", "false", "false")):
        nodes.append({
            "id": j, "hypothesis": HYPS[j % 2],
            "focus": _focus(funcs[j]),
            "state": state, "priority": "medium", "persistent": False,
            "value": 0.2 + 0.01 * j + 0.001 * (i % 3),
            "t_requested": 0.0, "t_concluded": 5.0 + j,
            "quality": None, "parents": [], "children": [],
        })
    return RunRecord(
        run_id=f"run-{i:03d}",
        app_name=app,
        version="1",
        n_processes=4,
        nodes=["n0", "n1"],
        placement={"p0": "n0", "p1": "n1"},
        hierarchies={
            "Code": ["/Code", "/Code/m0.c", "/Code/m1.c"] + funcs,
            "Process": ["/Process", "/Process/p0", "/Process/p1"],
            "Machine": ["/Machine", "/Machine/n0", "/Machine/n1"],
            "SyncObject": ["/SyncObject"],
        },
        shg_nodes=nodes,
        profile={
            "by_code": by_code,
            "by_process": {"/Process/p0": {"sync": 0.5}},
            "by_node": {"/Machine/n0": {"sync": 0.2}},
            "by_tag": {},
            "totals": {"compute": sum(
                v for e in by_code.values() for v in e.values())},
            "elapsed": 50.0,
        },
        finish_time=100.0 + i,
        search_done_time=40.0,
        pairs_tested=4,
        total_requests=4,
        peak_cost=1.0,
    )


def _store(root, backend="file", n=3, app="aggtest") -> ExperimentStore:
    store = ExperimentStore(root, backend=backend, auto_compact=0)
    for i in range(n):
        store.save(make_run(i, app=app))
    return store


def _scan_text(store: ExperimentStore, **options) -> str:
    metas = store.summaries()
    return reference_directives(
        [meta["summary"] for meta in metas.values()], **options
    ).to_text()


def _scan_aggregate(store: ExperimentStore, app=None) -> HarvestAggregate:
    """The oracle: a fold over the summary scan (``==`` includes
    ``n_runs``, so a double-folded or skipped segment fails it)."""
    return HarvestAggregate.of_summaries(
        meta["summary"] for meta in store.summaries(app_name=app).values())


def _count_reads(monkeypatch) -> list:
    """Every path the backends open for reading from now on, in order."""
    reads = []
    real_check = io_faults.check

    def counting(op, path=None):
        if op == "read":
            reads.append(str(path))
        return real_check(op, path)

    monkeypatch.setattr(io_faults, "check", counting)
    return reads


# ---------------------------------------------------------------------------
# the monoid
# ---------------------------------------------------------------------------
def test_merge_equals_concat_property():
    """merge(of(A), of(B)) must equal of(A + B) — and finalize to the
    same directives — for seeded random summary sequences split at
    every boundary."""
    rng = random.Random(0xA66)
    for trial in range(60):
        summaries = [random_summary(rng) for _ in range(rng.randint(0, 7))]
        whole = HarvestAggregate.of_summaries(summaries)
        for cut in range(len(summaries) + 1):
            left = HarvestAggregate.of_summaries(summaries[:cut])
            right = HarvestAggregate.of_summaries(summaries[cut:])
            merged = left.merge(right)
            assert merged == whole, f"trial={trial} cut={cut}"
            for options in OPTION_COMBOS:
                assert merged.finalize(**options).to_text() == \
                    whole.finalize(**options).to_text(), \
                    f"trial={trial} cut={cut} options={options}"


def test_merge_associative_and_identity():
    rng = random.Random(0xB17)
    empty = HarvestAggregate()
    for trial in range(40):
        a, b, c = (
            HarvestAggregate.of_summaries(
                random_summary(rng) for _ in range(rng.randint(0, 4)))
            for _ in range(3)
        )
        assert a.merge(b).merge(c) == a.merge(b.merge(c)), f"trial={trial}"
        assert empty.merge(a) == a and a.merge(empty) == a, f"trial={trial}"
    assert empty.merge(empty) == HarvestAggregate()


def test_finalize_matches_scan_route_property():
    rng = random.Random(0xC4E)
    for trial in range(40):
        summaries = [random_summary(rng) for _ in range(rng.randint(0, 6))]
        agg = HarvestAggregate.of_summaries(summaries)
        for options in OPTION_COMBOS:
            expected = reference_directives(
                summaries, **options).to_text()
            assert agg.finalize(**options).to_text() == expected, \
                f"trial={trial} options={options}"


def test_dict_roundtrip_and_version_guard():
    rng = random.Random(0xD0C)
    agg = HarvestAggregate.of_summaries(random_summary(rng) for _ in range(5))
    data = json.loads(json.dumps(agg.to_dict()))  # must survive JSON
    assert HarvestAggregate.from_dict(data) == agg
    data["version"] = 99
    with pytest.raises(ValueError):
        HarvestAggregate.from_dict(data)


# ---------------------------------------------------------------------------
# cross-backend equivalence
# ---------------------------------------------------------------------------
def test_cross_backend_aggregate_equivalence(tmp_path):
    """The aggregate-served harvest must match the summary-scan route on
    every backend, and all backends must agree with each other."""
    texts = {}
    for backend in BACKENDS:
        store = _store(tmp_path / backend, backend=backend, n=4)
        if backend == "file":
            store.compact()  # persists the aggregate sidecar
        fast = store.harvest_evidence().finalize(
            include_thresholds=True).to_text()
        assert fast == _scan_text(store, include_thresholds=True), backend
        texts[backend] = fast
        info = store.info()
        # file: compaction persisted it; sqlite: the first harvest
        # self-healed the aggregate table
        assert info.aggregated_runs == info.runs, backend
    assert len(set(texts.values())) == 1, sorted(texts)


def test_app_scoped_aggregate_matches_scan(tmp_path):
    store = ExperimentStore(tmp_path / "mixed", auto_compact=0)
    for i in range(3):
        store.save(make_run(i, app="alpha"))
    for i in range(3, 5):
        store.save(make_run(i, app="beta"))
    store.compact()
    for app in ("alpha", "beta", "nosuch"):
        metas = store.summaries(app_name=app)
        expected = reference_directives(
            [m["summary"] for m in metas.values()]).to_text()
        assert store.harvest_evidence(app).finalize().to_text() == expected, app


# ---------------------------------------------------------------------------
# federated harvest: aggregated + non-aggregated members
# ---------------------------------------------------------------------------
def test_federated_mixed_members(tmp_path):
    """A federated harvest over one aggregate-backed member and one
    scan-only member keeps per-member union semantics."""
    a = _store(tmp_path / "a", backend="file", n=3)
    a.compact()
    assert a.info().aggregated_runs == 3
    # a trailing delete stops the sidecar: b rescans until its next save
    b = _store(tmp_path / "b", backend="file", n=3, app="other")
    b.delete("run-002")
    assert b.info().aggregated_runs == 0
    federated = harvest([a, b], pool=None)
    expected = union_directives(harvest(a, pool=None), harvest(b, pool=None))
    assert federated.to_text() == expected.to_text()
    # member order must not matter
    assert harvest([b, a], pool=None).to_text() == federated.to_text()


# ---------------------------------------------------------------------------
# the pool: re-harvest off the rolling aggregate, the token and its race
# ---------------------------------------------------------------------------
def test_pool_incremental_fold_after_write(tmp_path, monkeypatch):
    """The one incremental path is the backend's: each save already
    extended the sidecar, so the pool's re-harvest of the same store
    after a write opens no segment and still equals the scan."""
    store = _store(tmp_path / "incr", n=3)
    pool = StorePool()
    first = pool.harvest(store)
    assert pool.harvest(store) is first  # token unchanged: cache hit
    reads = _count_reads(monkeypatch)
    for i in (7, 8):
        store.save(make_run(i))
        del reads[:]
        refolded = pool.harvest(store)
        assert not any("segments" in r for r in reads), reads
        assert refolded.to_text() == _scan_text(store)
    monkeypatch.undo()
    # a delete stops the sidecar: the next harvest rescans but still
    # answers correctly
    store.delete("run-001")
    assert pool.harvest(store).to_text() == _scan_text(store)


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_write_changes_the_index_token(tmp_path, backend):
    """Put, overwrite, delete, compact and rebuild each move the token
    to one never seen before; reads leave it where it is."""
    store = _store(tmp_path / backend, backend=backend, n=3)
    writes = [
        ("put", lambda: store.save(make_run(3))),
        ("overwrite", lambda: store.save(make_run(3), overwrite=True)),
        ("delete", lambda: store.delete("run-000")),
        ("compact", store.compact),
        ("rebuild", store.rebuild_index),
    ]
    seen = [store.index_token()]
    for name, write in writes:
        write()
        token = store.index_token()
        assert token not in seen, name
        seen.append(token)
        store.list()
        store.summaries()
        store.summary("run-001")
        store.load("run-001")
        store.harvest_evidence()
        store.info()
        assert store.index_token() == token, f"a read after {name}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_put_without_a_summary_is_refused(tmp_path, backend):
    """A meta with no dict summary is rejected before anything lands."""
    store = _store(tmp_path / backend, backend=backend, n=2)
    token = store.index_token()
    bare = dict(store.summaries()["run-000"])
    del bare["seq"]
    for summary in (None, "not a dict"):
        meta = dict(bare, summary=summary) if summary else \
            {k: v for k, v in bare.items() if k != "summary"}
        with pytest.raises(StoreError, match="no summary"):
            store.backend.put("run-009", make_run(9).to_dict(), meta)
    assert store.index_token() == token
    assert "run-009" not in store


def test_pool_does_not_cache_when_token_races(tmp_path):
    """A write landing mid-extraction must not pin the extracted
    directives to a token they no longer describe."""
    store = _store(tmp_path / "race", n=3)
    pool = StorePool()
    real_token = store.index_token
    calls = {"n": 0}

    def racing_token():
        calls["n"] += 1
        if calls["n"] == 1:
            return ("raced-away", 0)  # the state extraction started from
        return real_token()

    store.index_token = racing_token
    try:
        raced = pool.harvest(store)
    finally:
        store.index_token = real_token
    assert calls["n"] >= 2, "pool must re-read the token after extraction"
    assert raced.to_text() == _scan_text(store)
    assert pool.stats()["harvest_entries"] == 0, \
        "a raced harvest must not be cached"
    again = pool.harvest(store)
    assert again.to_text() == raced.to_text()
    assert pool.stats()["harvest_misses"] == 2
    assert pool.harvest(store) is again
    assert pool.stats()["harvest_hits"] == 1


# ---------------------------------------------------------------------------
# degrade-to-rescan: crashes and missing aggregates are never wrong
# ---------------------------------------------------------------------------
def _reopen(root) -> ExperimentStore:
    return ExperimentStore(root, auto_compact=0, resilience=False,
                           cache_size=0)


@pytest.mark.parametrize("at", [0, 2, 3])
def test_crash_during_seal_degrades_never_wrong(tmp_path, at):
    """Kill the writer at each atomic-rename boundary inside a save's
    index-segment seal (``at`` counts the save's replace calls: 0 = the
    state-file claim, 2 = the segment seal itself, 3 = the aggregate
    sidecar rolled over it; 1 is the record payload, excluded by
    ``path_part``): whatever prefix survived, the reopened store's
    aggregate-served harvest must equal its scan-route harvest."""
    seed = 8101 + at
    root = tmp_path / f"seal-{at}"
    store = ExperimentStore(root, auto_compact=0, resilience=False)
    for i in range(2):
        store.save(make_run(i))
    plan = IOFaultPlan(seed=seed, faults=(
        IOFault(op="replace", at=at, kind="crash", times=99,
                path_part="index.aggregate" if at == 3 else "segments"),
    ))
    with io_faults.injected(plan) as injector:
        with pytest.raises(SimulatedCrash):
            store.save(make_run(2))
    assert injector.injected, f"seed={seed}: plan never fired"
    reopened = _reopen(root)
    context = f"seed={seed} at={at}: aggregate route diverged after crash"
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened), context
    if at == 3:
        # the segment landed, its sidecar did not: the aggregate is still
        # served, by folding the one uncovered segment — and the next
        # save rolls the sidecar over both
        info = reopened.info()
        assert (info.runs, info.segments) == (3, 3), context
        assert info.aggregated_segments == info.segments - 1, context
        assert reopened.backend.harvest_aggregate() == _scan_aggregate(reopened)
        reopened.save(make_run(3))
        info = _reopen(root).info()
        assert info.aggregated_segments == info.segments == 4, context
        assert info.aggregated_runs == info.runs == 4, context
    # recovery: rebuild backfills a full aggregate over what survived
    reopened.rebuild_index()
    rebuilt = _reopen(root)
    info = rebuilt.info()
    assert info.aggregated_runs == info.runs, context
    assert rebuilt.harvest_evidence().finalize().to_text() == \
        _scan_text(rebuilt), context


def test_crash_before_sidecar_write_goes_stale_then_rescans(tmp_path):
    """Kill compaction after the base rename but before the aggregate
    sidecar lands: the stale sidecar must be rejected (coverage drops to
    zero), the harvest must rescan to the right answer, and a rebuild
    must restore coverage."""
    seed = 8201
    root = tmp_path / "stale"
    store = ExperimentStore(root, auto_compact=0, resilience=False)
    for i in range(3):
        store.save(make_run(i))
    store.compact()  # a valid sidecar for the current base exists now
    store.save(make_run(3))  # new segment → next compact must refresh it
    plan = IOFaultPlan(seed=seed, faults=(
        IOFault(op="replace", at=0, kind="crash", times=99,
                path_part="index.aggregate"),
    ))
    with io_faults.injected(plan) as injector:
        with pytest.raises(SimulatedCrash):
            store.compact()
    assert injector.injected, f"seed={seed}: plan never fired"
    reopened = _reopen(root)
    info = reopened.info()
    assert info.runs == 4, f"seed={seed}: compaction lost runs"
    assert info.aggregated_runs == 0, \
        f"seed={seed}: stale sidecar accepted after crash"
    assert reopened.backend.harvest_aggregate() is None
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened)
    reopened.rebuild_index()
    rebuilt = _reopen(root)
    assert rebuilt.info().aggregated_runs == 4
    assert rebuilt.harvest_evidence().finalize().to_text() == \
        _scan_text(rebuilt)


def _save_without_sidecar(store: ExperimentStore, record: RunRecord) -> None:
    """A save killed at its last write: record and segment land, the
    sidecar rolled over them does not — the segment stays uncovered."""
    plan = IOFaultPlan(seed=8301, faults=(
        IOFault(op="replace", at=0, kind="crash", times=99,
                path_part="index.aggregate"),
    ))
    with io_faults.injected(plan) as injector:
        with pytest.raises(SimulatedCrash):
            store.save(record)
    assert injector.injected, "plan never fired"


def test_sidecar_write_error_never_fails_the_save(tmp_path):
    """The segment rename commits a save; an EIO on the sidecar rolled
    over it afterwards must not surface (a retry would find the run
    "already stored") — coverage is one segment short until the next."""
    root = tmp_path / "eio"
    store = ExperimentStore(root, auto_compact=0, resilience=False)
    store.save(make_run(0))
    plan = IOFaultPlan(seed=8401, faults=(
        IOFault(op="replace", at=0, kind="eio", times=99,
                path_part="index.aggregate"),
    ))
    with io_faults.injected(plan) as injector:
        store.save(make_run(1))
    assert injector.injected, "plan never fired"
    for view in (store, _reopen(root)):
        info = view.info()
        assert (info.runs, info.segments, info.aggregated_segments) == (2, 2, 1)
        assert view.backend.harvest_aggregate() == _scan_aggregate(view)
    store.save(make_run(2))
    info = _reopen(root).info()
    assert info.aggregated_segments == info.segments == 3


def test_put_seal_heals_what_a_delete_stopped(tmp_path, monkeypatch):
    """A delete's seal cannot extend the rolling sidecar and writes
    none; the next save's seal rebuilds it from the merged view it holds
    under the lock, so coverage is whole again and a cold harvest after
    it reads no segment."""
    root = tmp_path / "heal"
    store = _store(root, n=4)
    sidecar = root / "index.aggregate"
    for run_id in ("run-001", "run-002"):
        before = _stat_sig(sidecar)
        store.delete(run_id)
        assert _stat_sig(sidecar) == before, \
            f"delete of {run_id} wrote a sidecar"
        assert store.info().aggregated_runs == 0
        assert store.harvest_evidence().finalize().to_text() == \
            _scan_text(store)
    store.save(make_run(4))
    info = store.info()
    assert info.aggregated_runs == info.runs == 3
    assert info.aggregated_segments == info.segments == 7
    fresh = _reopen(root)
    reads = _count_reads(monkeypatch)
    agg = fresh.harvest_evidence()
    assert not any("segments" in r for r in reads), reads
    monkeypatch.undo()
    assert agg == _scan_aggregate(_reopen(root))


@pytest.mark.parametrize("fault", [
    IOFault(op="read", at=0, kind="eio", times=99,
            path_part="index.aggregate"),
    IOFault(op="read", at=0, kind="eio"),
], ids=["every-sidecar-read", "first-read"])
def test_read_error_in_a_healing_save_never_fails_it(tmp_path, fault):
    """An EIO on the healing save's reads — the pre-seal sidecar (taken
    as absent: the seal heals anyway) or the first segment of the merged
    view (the resilience layer retries the put) — returns normally and
    leaves the harvest equal to the scan."""
    root = tmp_path / "heal-eio"
    _store(root, n=3).delete("run-001")
    cold = ExperimentStore(root, auto_compact=0, cache_size=0)
    with io_faults.injected(IOFaultPlan(seed=8501, faults=(fault,))) \
            as injector:
        cold.save(make_run(3))
    assert injector.injected, "plan never fired"
    reopened = _reopen(root)
    info = reopened.info()
    assert info.aggregated_runs == info.runs == 3
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened)


def test_pre_aggregate_segment_folds_per_op(tmp_path):
    """Sealed segments the sidecar does not cover (two writers in a row
    died before extending it) still harvest exactly: the fast path folds
    their ops one by one on top of the sidecar instead of bailing out."""
    root = tmp_path / "uncovered"
    _store(root, n=3)
    for i in (3, 4):
        _save_without_sidecar(
            ExperimentStore(root, auto_compact=0, resilience=False),
            make_run(i))
    for seg in (root / "segments").glob("0*.json"):
        assert "aggregate" not in json.loads(seg.read_text()), \
            "segments carry ops only"
    reopened = _reopen(root)
    info = reopened.info()
    assert (info.runs, info.segments) == (5, 5)
    assert info.aggregated_segments == info.segments - 2
    assert reopened.backend.harvest_aggregate() == _scan_aggregate(reopened)
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened)


def test_unparseable_segment_forces_rescan_not_wrong(tmp_path):
    """Garbage where an uncovered segment's ops should be degrades the
    aggregate to ``None`` — the harvest rescans (and the scan itself sees
    the merged view the backend serves), never inventing directives."""
    root = tmp_path / "garbage"
    store = _store(root, n=3)
    _save_without_sidecar(store, make_run(3))
    seg = sorted((root / "segments").glob("0*.json"))[-1]
    data = json.loads(seg.read_text())
    data["ops"].append({"op": "garbage"})  # no reader knows it: unprovable
    seg.write_text(json.dumps(data))
    reopened = _reopen(root)
    assert reopened.backend.harvest_aggregate() is None
    assert reopened.info().aggregated_runs == 0
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened)


@pytest.mark.parametrize("text", [
    "[]", "null", "3", "{}", '{"format": 2}',
    '{"format": 2, "base_sig": [1, 2, 3], "max_seq": 2, "through": "",'
    ' "all": null, "by_app": []}',
    '{"format": 2, "base_sig": [1, 2, 3], "max_seq": 2, "through": "",'
    ' "all": null, "by_app": {}}',
    '{"format": 2, "base_sig": [1, 2, 3], "max_seq": 2, "through": 7,'
    ' "all": null, "by_app": {"aggtest": 3}}',
], ids=["list", "null", "int", "empty", "no-fields", "by_app-list",
        "all-null-without-one-app", "through-int"])
def test_misshapen_sidecar_degrades_never_raises(tmp_path, text):
    """A sidecar that is valid JSON but not the expected shape is
    *absent*: harvest and ``info()`` rescan instead of raising."""
    root = tmp_path / "shape"
    _store(root, n=3).compact()
    (root / "index.aggregate").write_text(text)
    reopened = _reopen(root)
    assert reopened.backend.harvest_aggregate() is None
    assert reopened.info().aggregated_runs == 0
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened)
    # the same rule for the ops of an uncovered segment
    empty = {"all": HarvestAggregate(), "by_app": {}, "max_seq": -1}
    for ops in (None, [3], [{"op": "put", "meta": []}]):
        assert reopened.backend._fold_ops(empty, [ops]) is None


# ---------------------------------------------------------------------------
# the rolling sidecar: one read cold, old layouts, mixed apps
# ---------------------------------------------------------------------------
def test_cold_harvest_reads_one_file_not_the_segments(tmp_path, monkeypatch):
    """Count guard: on 1 generation + 32 segments a fresh store opens
    and harvests in at most two file reads — the claim file's stamp and
    the sidecar, no segment — and still does after another writer's
    save."""
    root = tmp_path / "rolled"
    store = _store(root, n=4)
    store.compact()
    for i in range(4, 36):
        store.save(make_run(i))
    info = store.info()
    assert (info.generation, info.segments) == (1, 32)
    assert info.aggregated_segments == 32

    reads = _count_reads(monkeypatch)
    for expect_runs in (36, 37):
        del reads[:]
        agg = _reopen(root).harvest_evidence("aggtest")
        assert len(reads) <= 2 and not any(
            "segments" in r and not r.endswith("/_state.json")
            for r in reads), reads
        assert agg.n_runs == expect_runs
        if expect_runs == 36:  # a different store object extends it
            ExperimentStore(root, auto_compact=0).save(make_run(36))
    monkeypatch.undo()
    assert agg == _scan_aggregate(_reopen(root), "aggtest")


def test_old_layout_store_reads_and_upgrades_on_first_save(tmp_path):
    """A store as the previous release wrote it — format-1 sidecar for
    the base alone (no ``through``, ``all`` spelled out), segments
    carrying an ``"aggregate"`` (poisoned here), a claim file without
    the layout stamp — is converted by the open, before any save: one
    fresh base, no segments, a current sidecar over every run, and the
    poison nowhere."""
    root = tmp_path / "old-layout"
    store = _store(root, n=2)
    store.compact()
    base = _scan_aggregate(store)
    for i in range(2, 5):
        store.save(make_run(i))
    (root / "index.aggregate").write_text(json.dumps({
        "format": 1,
        "base_sig": list(store.backend._read_sidecar()["base_sig"]),
        "max_seq": 1,
        "all": base.to_dict(),
        "by_app": {"aggtest": base.to_dict()},
    }))
    poison = HarvestAggregate.of_summaries(
        [random_summary(random.Random(5))]).to_dict()
    for seg in (root / "segments").glob("0*.json"):
        data = json.loads(seg.read_text())
        seq = data["ops"][0]["meta"]["seq"]
        data["aggregate"] = {"min_seq": seq, "max_seq": seq, "all": poison,
                             "by_app": {"aggtest": poison}}
        seg.write_text(json.dumps(data))
    state_path = root / "segments" / "_state.json"
    state = json.loads(state_path.read_text())
    del state["format"]
    state_path.write_text(json.dumps(state))
    reopened = _reopen(root)
    info = reopened.info()
    assert (info.runs, info.aggregated_runs, info.segments) == (5, 5, 0)
    assert json.loads((root / "index.aggregate").read_text())["format"] == 2
    assert reopened.backend.harvest_aggregate() == _scan_aggregate(reopened)
    assert reopened.harvest_evidence().finalize().to_text() == \
        _scan_text(reopened)
    reopened.save(make_run(5))
    upgraded = _reopen(root)
    info = upgraded.info()
    assert info.aggregated_segments == info.segments == 1
    assert upgraded.backend.harvest_aggregate() == _scan_aggregate(upgraded)


def test_mixed_apps_keep_every_scope_exact(tmp_path):
    """``"all": null`` (one app: stored once) must switch itself off the
    moment a second app — or a run without an app name — is folded."""
    root = tmp_path / "apps"
    store = ExperimentStore(root, auto_compact=0)
    solo = []
    for i, app in enumerate(("alpha", "alpha", "beta", None, "alpha", "beta")):
        store.save(make_run(i, app=app))
        solo.append(json.loads(
            (root / "index.aggregate").read_text())["all"] is None)
        if i == 3:
            store.compact()  # the base-generation sidecar obeys it too
        fresh = _reopen(root)
        assert fresh.info().aggregated_runs == i + 1
        assert fresh.backend.harvest_aggregate() == _scan_aggregate(fresh)
        for scope in ("alpha", "beta", "nosuch"):
            assert fresh.backend.harvest_aggregate(scope) == \
                _scan_aggregate(fresh, scope), (i, scope)
    assert solo == [True, True, False, False, False, False]
    # one app plus an unnamed run: one by_app entry, but not all of `all`
    other = ExperimentStore(tmp_path / "unnamed", auto_compact=0)
    other.save(make_run(0, app="alpha"))
    other.save(make_run(1, app=None))
    assert json.loads((tmp_path / "unnamed" / "index.aggregate")
                      .read_text())["all"] is not None
    fresh = _reopen(tmp_path / "unnamed")
    assert fresh.backend.harvest_aggregate() == _scan_aggregate(fresh)
    assert fresh.backend.harvest_aggregate("alpha") == \
        _scan_aggregate(fresh, "alpha")
