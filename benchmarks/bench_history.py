#!/usr/bin/env python
"""History-query benchmark: the fast path vs the pre-index cost model.

Not a paper artifact: this harness measures how cheaply the reproduction
can consult stored history — the paper's whole premise is that many
prior runs feed the online search, so queries over the archive must be
fast.  It builds synthetic stores of 100 and 500 runs and times:

* ``bottleneck_persistence`` — legacy (per-run record parse, no cache)
  vs the format-3 index summaries, cold (fresh store instance) and warm
  (instance reused);
* directive harvest (``repro.harvest``) — legacy (per-run parse plus a
  profile rebuild per candidate function per record, the pre-memoization
  cost shape) vs the store's aggregate-served harvest;
* **archive scale** (``--scale-entries``, default 10^5): a preloaded
  10^5-entry index measures the aggregate-backed harvest paths — cold
  harvest from the persisted rolling aggregate vs the full summary
  rescan, and the pool's re-harvest after one write — served from the
  aggregate that write's seal extended — vs re-scanning the whole
  history.

Every fast-path result is asserted equal to its legacy counterpart
before any timing is reported — a fast wrong answer is no answer.

Emits ``results/BENCH_history.json``.  ``--check`` compares the measured
speedups at 100 stored runs (and the aggregate-path speedups at
``--scale-entries``) against the floors in
``benchmarks/baselines/history.json`` and exits non-zero on regression.
Only *ratios* gate CI — absolute wall times are machine-dependent.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.directives import ANY_HYPOTHESIS, DirectiveSet, PruneDirective  # noqa: E402
from repro.core.extraction import (  # noqa: E402
    HarvestAggregate,
    extract_general_prunes,
    extract_pair_prunes,
    extract_priorities,
)
from repro.facade import harvest  # noqa: E402
from repro.metrics.profile import FlatProfile  # noqa: E402
from repro.server.pool import StorePool  # noqa: E402
from repro.storage import ExperimentStore, RunRecord, bottleneck_persistence  # noqa: E402

RESULTS_DIR = REPO / "results"
BASELINE = Path(__file__).resolve().parent / "baselines" / "history.json"

N_FUNCS = 40
N_PROCS = 8
MIN_EXEC_FRACTION = 0.005

FOCUS_TAIL = ", /Machine, /Process, /SyncObject >"


def make_record(i: int) -> RunRecord:
    """One synthetic diagnosed run; fully deterministic in *i*."""
    funcs = [f"/Code/mod{j // 8}.c/fn{j:02d}" for j in range(N_FUNCS)]
    modules = sorted({"/".join(f.split("/")[:3]) for f in funcs})
    # four hot functions carry nearly all the time; the rest are tiny
    by_code = {}
    for j, name in enumerate(funcs):
        if j < 4:
            by_code[name] = {"compute": 20.0 + j + (i % 5), "sync": 2.0 + j}
        else:
            by_code[name] = {"compute": 0.01 + 0.0001 * ((i + j) % 7)}
    total = sum(v for entry in by_code.values() for v in entry.values())
    shg_nodes = []
    node_id = 0
    for j in range(4):  # persistent bottlenecks on the hot functions
        shg_nodes.append({
            "id": node_id, "hypothesis": "CPUbound",
            "focus": f"< {funcs[j]}{FOCUS_TAIL}",
            "state": "true", "priority": "medium", "persistent": False,
            "value": 0.30 + 0.02 * j, "t_requested": 0.0,
            "t_concluded": 10.0 + j, "quality": None,
            "parents": [], "children": [],
        })
        node_id += 1
    for j in range(4, 12):  # always-false pairs
        shg_nodes.append({
            "id": node_id, "hypothesis": "ExcessiveSyncWaitingTime",
            "focus": f"< {funcs[j]}{FOCUS_TAIL}",
            "state": "false", "priority": "medium", "persistent": False,
            "value": 0.01 + 0.001 * j, "t_requested": 0.0,
            "t_concluded": 12.0 + j, "quality": None,
            "parents": [], "children": [],
        })
        node_id += 1
    return RunRecord(
        run_id=f"bench-{i:04d}",
        app_name="bench",
        version="1",
        n_processes=N_PROCS,
        nodes=[f"n{p}" for p in range(N_PROCS)],
        placement={f"p{p}": f"n{p}" for p in range(N_PROCS)},
        hierarchies={
            "Code": ["/Code"] + modules + funcs,
            "Process": ["/Process"] + [f"/Process/p{p}" for p in range(N_PROCS)],
            "Machine": ["/Machine"] + [f"/Machine/n{p}" for p in range(N_PROCS)],
            "SyncObject": ["/SyncObject"],
        },
        shg_nodes=shg_nodes,
        profile={
            "by_code": by_code,
            "by_process": {
                f"/Process/p{p}": {"sync": 0.5 + 0.1 * p} for p in range(N_PROCS)
            },
            "by_node": {
                f"/Machine/n{p}": {"sync": 0.2 + 0.05 * p} for p in range(N_PROCS)
            },
            "by_tag": {},
            "totals": {"compute": total},
            "elapsed": total,
        },
        finish_time=100.0 + i,
        search_done_time=50.0,
        pairs_tested=12,
        total_requests=12,
        peak_cost=2.0,
    )


def build_store(root: Path, n_runs: int) -> ExperimentStore:
    store = ExperimentStore(root)
    for i in range(n_runs):
        store.save(make_record(i))
    # fold index segments so the timings below keep measuring the query
    # paths against a settled base index, as they did pre-sharding
    # (bench_store_scale.py covers the segmented-write regime)
    store.compact()
    return store


N_PRELOAD_LEAVES = 8


def preload_meta(i: int) -> dict:
    """One synthetic index entry of realistic shape, summary included.

    The summary carries every key the harvest extraction reads
    (pairs, code leaves, execution fractions, hypothesis values, the
    machine environment), so preloaded stores exercise the same
    aggregate and rescan paths real archives do.  Shared with
    ``bench_store_scale.py``.
    """
    leaves = [f"/Code/m.c/fn{j:02d}" for j in range(N_PRELOAD_LEAVES)]
    hot = leaves[i % N_PRELOAD_LEAVES]
    pair_focus = f"< {hot}, /Machine, /Process, /SyncObject >"
    return {
        "app_name": "scale",
        "version": str(i % 7),
        "n_processes": 8,
        "bottlenecks": 2,
        "pairs_tested": 12,
        "seq": i,
        "summary": {
            "version": 1,
            "status": "complete",
            "n_nodes": 14,
            "n_processes": 8,
            "machine_nodes": 8,
            "true_pairs": [["CPUbound", pair_focus]],
            "false_pairs": [["ExcessiveSyncWaitingTime", pair_focus]],
            "state_counts": {"true": 1, "false": 11},
            "hyp_values": {"CPUbound": [0.30 + 0.0001 * (i % 50)]},
            "code_leaves": leaves,
            "code_exec_fractions": {
                hot: 0.5,
                leaves[(i + 1) % N_PRELOAD_LEAVES]: 0.0001 * (1 + i % 9),
            },
            "peak_cost": 2.0,
            "time_to_find_all": 50.0,
            "duration": 100.0,
        },
    }


def preload_store(root: Path, n_entries: int) -> ExperimentStore:
    """Build an *n_entries*-run store through backend internals.

    Only the index is materialized (synthetic metas, no record bodies) —
    the costs under test are index-dominated; records appended afterwards
    are written for real.
    """
    store = ExperimentStore(root, auto_compact=0)
    store.backend._write_base(
        {f"pre-{i:06d}": preload_meta(i) for i in range(n_entries)})
    # the claim file hands out seq values: start past the preloaded ones
    state = store.backend._read_state()
    state["next_seq"] = n_entries
    store.backend._write_state(state)
    return store


def tiny_record(i: int, prefix: str = "incr") -> RunRecord:
    """A minimal record for write-path timing (meta-dominated)."""
    return RunRecord(
        run_id=f"{prefix}-{i:06d}",
        app_name="scale",
        version="1",
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


# ---------------------------------------------------------------------------
# legacy implementations: the pre-PR cost shape, kept for comparison
# ---------------------------------------------------------------------------
def legacy_bottleneck_persistence(root: Path) -> dict:
    """Per-run full record parse, no cache (the old query path)."""
    store = ExperimentStore(root, cache_size=0)
    counts: dict = {}
    for run_id in store.list():
        for pair in set(store.load(run_id).true_pairs()):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def legacy_harvest(root: Path) -> DirectiveSet:
    """The old harvest: parse every record, then rebuild the flat profile
    once per candidate function per record (``flat_profile()`` was not
    memoized, and the historic-prune loop iterated functions outermost)."""
    store = ExperimentStore(root, cache_size=0)
    records = [store.load(run_id) for run_id in store.list()]
    candidates = set()
    for rec in records:
        for name in rec.hierarchies.get("Code", []):
            if name.count("/") == 3:
                candidates.add(name)
    tiny = set()
    for name in sorted(candidates):
        fractions = [
            FlatProfile.from_dict(rec.profile).code_exec_fraction(name)
            for rec in records
        ]
        if all(f < MIN_EXEC_FRACTION for f in fractions):
            tiny.add(name)
    by_module = defaultdict(list)
    for name in candidates:
        by_module["/".join(name.split("/")[:3])].append(name)
    prunes = list(extract_general_prunes(records[0] if records else None))
    folded = set()
    for module, functions in sorted(by_module.items()):
        if all(f in tiny for f in functions):
            prunes.append(PruneDirective(ANY_HYPOTHESIS, module))
            folded.update(functions)
    for name in sorted(tiny - folded):
        prunes.append(PruneDirective(ANY_HYPOTHESIS, name))
    return DirectiveSet(
        prunes=prunes,
        pair_prunes=extract_pair_prunes(records),
        priorities=extract_priorities(records),
    )


def timed(fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def bench_store(root: Path, n_runs: int, reps: int, legacy_reps: int) -> dict:
    store = build_store(root / str(n_runs), n_runs)

    # correctness first: the fast answers must equal the legacy answers
    fast_counts = bottleneck_persistence(store)
    legacy_counts = legacy_bottleneck_persistence(store.root)
    if fast_counts != legacy_counts:
        raise AssertionError(f"{n_runs} runs: persistence counts diverged")
    fast_directives = harvest(store)
    legacy_directives = legacy_harvest(store.root)
    if fast_directives.to_text() != legacy_directives.to_text():
        raise AssertionError(f"{n_runs} runs: harvested directives diverged")

    legacy_persistence = timed(
        lambda: legacy_bottleneck_persistence(store.root), legacy_reps)
    cold_persistence = timed(
        lambda: bottleneck_persistence(ExperimentStore(store.root)), reps)
    warm_persistence = timed(lambda: bottleneck_persistence(store), reps)
    legacy_harvest_s = timed(lambda: legacy_harvest(store.root), legacy_reps)
    # pool=None: a pool of one per call, so every repetition finalizes
    # (the process-wide pool would answer all but the first from cache)
    fast_harvest_s = timed(lambda: harvest(store, pool=None), reps)

    def ratio(slow, fast):
        return slow / fast if fast > 0 else float("inf")

    return {
        "runs": n_runs,
        "bottleneck_persistence": {
            "legacy_s": legacy_persistence,
            "cold_s": cold_persistence,
            "warm_s": warm_persistence,
            "speedup_cold": ratio(legacy_persistence, cold_persistence),
            "speedup_warm": ratio(legacy_persistence, warm_persistence),
        },
        "harvest": {
            "legacy_s": legacy_harvest_s,
            "fast_s": fast_harvest_s,
            "speedup": ratio(legacy_harvest_s, fast_harvest_s),
        },
        "answers_equal": True,
    }


def bench_scale_harvest(workdir: Path, n_entries: int, reps: int,
                        rescan_reps: int) -> dict:
    """Aggregate-backed harvest vs the full summary rescan at archive
    scale, plus the pool's re-harvest after a write."""
    root = workdir / f"scale-{n_entries}"
    store = preload_store(root, n_entries)
    store.compact()  # folds the base and persists the harvest aggregate

    def full_rescan(opened: ExperimentStore) -> DirectiveSet:
        # the oracle the aggregate route must match: fold every
        # summary, then finalize
        return HarvestAggregate.of_summaries(
            meta["summary"] for meta in opened.summaries().values()
        ).finalize()

    # correctness before timing: the aggregate route must match the
    # rescan route byte for byte
    reference = full_rescan(store)
    aggregate_route = store.harvest_evidence().finalize()
    if aggregate_route.to_text() != reference.to_text():
        raise AssertionError(
            f"{n_entries} entries: aggregate-route harvest diverged from "
            "the full summary rescan"
        )
    info = store.info()
    if info.aggregated_runs != info.runs:
        raise AssertionError(
            f"aggregate covers {info.aggregated_runs}/{info.runs} runs "
            "after compaction"
        )

    rescan_s = timed(lambda: full_rescan(store), rescan_reps)
    cold_harvest_s = timed(
        lambda: ExperimentStore(root).harvest_evidence().finalize(), reps)

    # incremental: warm pool, append one run (its seal extends the
    # rolling aggregate), re-harvest reads that aggregate
    pool = StorePool()
    pool.harvest(store)
    incremental_walls = []
    directives = None
    for i in range(reps):
        store.save(tiny_record(i))
        start = time.perf_counter()
        directives = pool.harvest(store)
        incremental_walls.append(time.perf_counter() - start)
    info = store.info()
    if info.aggregated_runs != info.runs:
        raise AssertionError(
            f"aggregate covers {info.aggregated_runs}/{info.runs} runs "
            f"after {reps} saves"
        )
    if directives.to_text() != full_rescan(store).to_text():
        raise AssertionError(
            f"{n_entries} entries: incremental re-harvest diverged from "
            "the full summary rescan"
        )
    incremental_s = statistics.median(incremental_walls)

    def ratio(slow, fast):
        return slow / fast if fast > 0 else float("inf")

    out = {
        "entries": n_entries,
        "full_rescan_s": rescan_s,
        "cold_harvest_s": cold_harvest_s,
        "incremental_s": incremental_s,
        "cold_harvest_speedup": ratio(rescan_s, cold_harvest_s),
        "incremental_speedup": ratio(rescan_s, incremental_s),
        "answers_equal": True,
    }
    print(f"{n_entries} entries: full rescan {rescan_s * 1e3:.0f} ms, "
          f"cold aggregate harvest {cold_harvest_s * 1e3:.1f} ms "
          f"({out['cold_harvest_speedup']:.0f}x), incremental re-harvest "
          f"{incremental_s * 1e3:.2f} ms ({out['incremental_speedup']:.0f}x)")
    return out


def check_against_baseline(results: dict) -> int:
    if not BASELINE.is_file():
        print(f"no baseline at {BASELINE}; skipping regression check")
        return 0
    baseline = json.loads(BASELINE.read_text())
    gate = results["stores"]["100"]
    failures = []
    persistence_min = baseline["bottleneck_persistence_speedup_min"]
    harvest_min = baseline["harvest_speedup_min"]
    measured_p = gate["bottleneck_persistence"]["speedup_warm"]
    measured_h = gate["harvest"]["speedup"]
    print(f"warm bottleneck_persistence speedup at 100 runs: "
          f"{measured_p:.1f}x (floor {persistence_min:g}x)")
    print(f"directive harvest speedup at 100 runs: "
          f"{measured_h:.1f}x (floor {harvest_min:g}x)")
    if measured_p < persistence_min:
        failures.append("bottleneck_persistence")
    if measured_h < harvest_min:
        failures.append("harvest")
    scale = results.get("scale_harvest")
    if scale is not None:
        cold_min = baseline.get("cold_harvest_speedup_min")
        incr_min = baseline.get("incremental_harvest_speedup_min")
        if cold_min is not None:
            print(f"cold aggregate-harvest speedup at {scale['entries']} "
                  f"entries: {scale['cold_harvest_speedup']:.1f}x "
                  f"(floor {cold_min:g}x)")
            if scale["cold_harvest_speedup"] < cold_min:
                failures.append("cold_harvest")
        if incr_min is not None:
            print(f"incremental re-harvest speedup at {scale['entries']} "
                  f"entries: {scale['incremental_speedup']:.1f}x "
                  f"(floor {incr_min:g}x)")
            if scale["incremental_speedup"] < incr_min:
                failures.append("incremental_harvest")
    if failures:
        print(f"FAIL: speedup regressed below the baseline floor: {failures}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5,
                        help="fast-path repetitions (median wall)")
    parser.add_argument("--legacy-reps", type=int, default=2,
                        help="legacy-path repetitions (median wall)")
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 500],
                        help="store sizes (number of runs) to benchmark")
    parser.add_argument("--scale-entries", type=int, default=100_000,
                        help="preloaded index size for the aggregate-path "
                             "phase (0 skips it)")
    parser.add_argument("--rescan-reps", type=int, default=2,
                        help="full-rescan repetitions at --scale-entries")
    parser.add_argument("--check", action="store_true",
                        help="fail when measured speedups fall below the "
                             "floors in the checked-in baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the checked-in speedup floors")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="bench-history-"))
    try:
        results = {
            "workload": {
                "functions": N_FUNCS,
                "processes": N_PROCS,
                "reps": args.reps,
                "legacy_reps": args.legacy_reps,
            },
            "stores": {
                str(n): bench_store(workdir, n, args.reps, args.legacy_reps)
                for n in args.sizes
            },
        }
        if args.scale_entries:
            results["scale_harvest"] = bench_scale_harvest(
                workdir, args.scale_entries, args.reps, args.rescan_reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_history.json"
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for size, entry in results["stores"].items():
        p = entry["bottleneck_persistence"]
        h = entry["harvest"]
        print(f"{size} runs: persistence {p['legacy_s'] * 1e3:.1f} ms -> "
              f"{p['warm_s'] * 1e3:.2f} ms warm ({p['speedup_warm']:.0f}x), "
              f"harvest {h['legacy_s'] * 1e3:.1f} ms -> "
              f"{h['fast_s'] * 1e3:.2f} ms ({h['speedup']:.0f}x)")

    if args.update_baseline:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps({
            "bottleneck_persistence_speedup_min": 10.0,
            "harvest_speedup_min": 3.0,
            "gate_store_size": 100,
            "cold_harvest_speedup_min": 5.0,
            "incremental_harvest_speedup_min": 20.0,
            "gate_scale_entries": args.scale_entries,
            "note": "floors on the fast-path speedups measured by "
                    "bench_history.py: query/harvest fast paths at 100 "
                    "stored runs, aggregate-backed cold harvest and the "
                    "pool's incremental re-harvest (vs a full summary "
                    "rescan) at --scale-entries",
        }, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {BASELINE}")

    if args.check:
        return check_against_baseline(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
