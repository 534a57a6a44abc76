"""Crash-consistency torture in tier 1: a small seeded matrix of random
fault/kill schedules, plus targeted ENOSPC and SIGKILL strikes in the
middle of compaction.  Every assertion message cites the
seed (and the ``run_schedule`` call for matrix failures), so a CI red
replays locally bit-for-bit."""

import json

import pytest

from repro.faults import IOFault, IOFaultPlan, SimulatedCrash
from repro.faults import io as io_faults
from tests.store_torture import _check, run_schedule, run_torture, store_view
from repro.storage import ExperimentStore, RunRecord


def _record(run_id: str, tag: int = 0) -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="torture",
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0 + tag,
        search_done_time=None,
        pairs_tested=tag,
        total_requests=tag,
        peak_cost=float(tag),
    )


def _build(root, n=3) -> ExperimentStore:
    store = ExperimentStore(root, auto_compact=0, resilience=False)
    for i in range(n):
        store.save(_record(f"r{i}", i))
    return store


def _reopen(root) -> ExperimentStore:
    return ExperimentStore(root, auto_compact=0, resilience=False,
                           cache_size=0)


def _assert_payloads_load(store, context):
    for run_id in store.list():
        record = store.load(run_id)
        assert record.run_id == run_id, context


# ---------------------------------------------------------------------------
# the seeded matrix (a slice of the CI-scale campaign, tests/store_torture.py)
# ---------------------------------------------------------------------------
def test_seeded_matrix_never_diverges(tmp_path):
    report = run_torture(seeds=range(30), workdir=tmp_path)
    assert len(report.schedules) == 30
    for bad in report.divergences:
        pytest.fail(
            f"store diverged: seed={bad['seed']} "
            f"scenario={bad['scenario']} outcome={bad['outcome']} "
            f"faults={bad['faults_fired']} — reproduce with "
            f"run_schedule({bad['seed']})"
        )


def test_check_reports_a_wrong_persisted_aggregate(tmp_path):
    """The third verdict has force: a sidecar that passes every stamp
    but double-counts a run is reported, an absent one is not."""
    store = _build(tmp_path / "file")
    chain = [store_view(store)]
    assert _check(tmp_path / "file", chain) == (True, None, None)
    sidecar = tmp_path / "file" / "index.aggregate"
    data = json.loads(sidecar.read_text())
    data["by_app"]["torture"]["n_runs"] += 1
    sidecar.write_text(json.dumps(data))
    in_chain, payload_error, aggregate_error = _check(
        tmp_path / "file", chain)
    assert (in_chain, payload_error) == (True, None)
    assert aggregate_error is not None
    sidecar.unlink()  # absent: the harvest rescans, nothing to report
    assert _check(tmp_path / "file", chain) == (True, None, None)


def _stable(result):
    """The path-insensitive shape of a schedule result: workdirs differ
    between runs, everything else must not."""
    out = {k: result[k] for k in ("seed", "scenario", "ops",
                                  "chain_len", "divergent")}
    out["outcome_kind"] = result["outcome"].split(":")[0]
    out["fired"] = [(op, idx, kind)
                    for op, idx, kind, _path in result["faults_fired"]]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_single_schedule_is_deterministic(seed):
    a = _stable(run_schedule(seed))
    b = _stable(run_schedule(seed))
    assert a == b, f"run_schedule({seed}) not reproducible"


def test_converting_open_under_faults(tmp_path):
    """Every ``convert`` schedule of the CI window: faults armed before
    the open that converts an oldest-layout store, and the reopened
    store is the fault-free conversion — view, payloads, aggregate."""
    results = [run_schedule(seed, tmp_path) for seed in range(80)]
    converts = [r for r in results if r["scenario"] == "convert"]
    assert len(converts) >= 5
    assert any(r["faults_fired"] for r in converts)
    for bad in (r for r in converts if r["divergent"]):
        pytest.fail(f"conversion diverged: seed={bad['seed']} "
                    f"outcome={bad['outcome']} — reproduce with "
                    f"run_schedule({bad['seed']})")


# ---------------------------------------------------------------------------
# targeted: ENOSPC and SIGKILL mid-compaction
# ---------------------------------------------------------------------------
def test_enospc_mid_compaction(tmp_path):
    seed = 7001
    store = _build(tmp_path / "runs")
    before = store_view(store)
    plan = IOFaultPlan(seed=seed, faults=(
        IOFault(op="write", at=0, kind="enospc", times=99),
    ))
    with io_faults.injected(plan) as injector:
        with pytest.raises(Exception):
            store.compact()
    assert injector.injected, f"seed={seed}: plan never fired"
    reopened = _reopen(tmp_path / "runs")
    context = f"seed={seed}: store inconsistent after ENOSPC mid-compaction"
    assert store_view(reopened) == before, context
    _assert_payloads_load(reopened, context)


def test_kill_mid_compaction(tmp_path):
    """Compaction preserves the logical view, so a kill at any of its
    syscall boundaries must leave the reopened view exactly as before."""
    seed = 7003
    store = _build(tmp_path / "runs")
    before = store_view(store)
    plan = IOFaultPlan(seed=seed, faults=(
        IOFault(op="replace", at=0, kind="crash"),
    ))
    with io_faults.injected(plan) as injector:
        with pytest.raises(SimulatedCrash):
            store.compact()
    assert injector.injected, f"seed={seed}: plan never fired"
    # the in-memory store died with the "process"; reopen from disk
    reopened = _reopen(tmp_path / "runs")
    context = f"seed={seed}: store inconsistent after kill mid-compaction"
    assert store_view(reopened) == before, context
    _assert_payloads_load(reopened, context)
