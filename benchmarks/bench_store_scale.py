#!/usr/bin/env python
"""Store-scale benchmark: a save is O(1), not O(store).

Not a paper artifact: this harness checks that the experiment store holds
up at archive scale — the paper's program histories accumulate for years,
so saving run 100,001 must cost about what saving run 1 did.  Three
phases:

* **Equivalence** (always first): one mixed corpus is saved; a cold
  reader's summary queries must come back byte-identical to the
  writer's, and the harvest served from the persisted aggregate must
  equal the one folded from the summary scan, before any timing is
  believed.
* **Scale**: a 10^5-entry index is preloaded through backend internals,
  then append throughput is measured on top of it — each save seals one
  segment file.  Cold query latency (fresh process view: open + full
  summary scan) and cold harvest latency are measured on the same
  store.
* **Resilience overhead**: appends to an *empty* file store through the
  raw backend and through the armed-but-idle retry/breaker wrapper.

Emits ``results/BENCH_store_scale.json``.  ``--check`` gates two ratios
against ``benchmarks/baselines/store_scale.json``: file saves/s on the
preloaded index must stay >= ``preloaded_save_ratio_min`` of the armed
saves/s on an empty store (a save that rewrote or re-read the index
would read ~0.0002 at 10^5 entries), and the armed wrapper must stay
within ``resilience_overhead_max`` of the raw backend.  Only ratios
gate CI — absolute wall times are machine-dependent.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_history import make_record, preload_store  # noqa: E402
from repro.core.extraction import HarvestAggregate  # noqa: E402
from repro.facade import harvest  # noqa: E402
from repro.storage import ExperimentStore, RunRecord  # noqa: E402

RESULTS_DIR = REPO / "results"
BASELINE = Path(__file__).resolve().parent / "baselines" / "store_scale.json"


def small_record(i: int, prefix: str = "append") -> RunRecord:
    """A minimal record for append-throughput timing (meta-dominated)."""
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
# phase 1: equivalence — a fast wrong answer is no answer
# ---------------------------------------------------------------------------
def assert_equivalence(workdir: Path, n_runs: int) -> None:
    store = ExperimentStore(workdir / "equiv")
    for i in range(n_runs):
        store.save(make_record(i))
    summaries = json.dumps(store.summaries(), sort_keys=True)
    # cold re-open answers must match the writing instance's answers
    cold = ExperimentStore(store.root)
    if json.dumps(cold.summaries(), sort_keys=True) != summaries:
        raise AssertionError("cold reader diverged from writer")
    rescan = HarvestAggregate.of_summaries(
        meta["summary"] for meta in cold.summaries().values())
    if harvest(cold, include_thresholds=True).to_text() != \
            rescan.finalize(include_thresholds=True).to_text():
        raise AssertionError(
            "aggregate-route harvest diverged from the summary rescan")
    print(f"equivalence: {n_runs}-run corpus byte-identical between writer, "
          "cold reader and rescan")


# ---------------------------------------------------------------------------
# phase 2: scale — preload a big index, measure appends + cold queries
# ---------------------------------------------------------------------------
#: Preloading goes through backend internals — only the index is
#: materialized (synthetic metas, no record bodies), because append and
#: query costs are index-dominated, which is the regime under test; the
#: appended records themselves are written for real.
preload = preload_store


def timed_appends(store: ExperimentStore, n_appends: int, prefix: str) -> dict:
    start = time.perf_counter()
    for i in range(n_appends):
        store.save(small_record(i, prefix))
    wall = time.perf_counter() - start
    return {
        "appends": n_appends,
        "wall_s": wall,
        "throughput_per_s": n_appends / wall if wall > 0 else float("inf"),
    }


def timed_cold_query(root: Path, expect: int, reps: int = 3) -> float:
    """Median cold-*process* query wall: every rep opens a fresh store
    instance (no in-process caches), after one unmeasured warm-up so the
    OS page cache stops dominating."""
    entries = ExperimentStore(root).summaries(app_name="scale")
    if len(entries) < expect:
        raise AssertionError(
            f"cold query saw {len(entries)} entries, expected >= {expect}"
        )
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        ExperimentStore(root).summaries(app_name="scale")
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def timed_cold_harvest(root: Path, reps: int = 3) -> float:
    """Median cold-*process* harvest wall: every rep opens a fresh store
    and extracts directives from its full history — served from the
    persisted aggregate."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        ExperimentStore(root).harvest_evidence().finalize()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def bench_scale(workdir: Path, n_entries: int, n_appends: int) -> dict:
    root = workdir / "scale"
    store = preload(root, n_entries)
    write = timed_appends(store, n_appends, "ap")
    cold = timed_cold_query(root, n_entries)

    # settle the aggregate fast path (compaction persists the sidecar),
    # then require the aggregate answer to match the rescan answer
    # before timing it
    store.compact()
    reference = HarvestAggregate.of_summaries(
        meta["summary"] for meta in store.summaries().values()
    ).finalize()
    if store.harvest_evidence().finalize().to_text() != reference.to_text():
        raise AssertionError(
            "aggregate-route harvest diverged from the summary rescan")
    cold_harvest = timed_cold_harvest(root)
    print(f"{write['throughput_per_s']:8.1f} saves/s over {n_entries} "
          f"entries, cold query {cold * 1e3:.0f} ms, "
          f"cold harvest {cold_harvest * 1e3:.1f} ms")
    return {"entries": n_entries, "write": write, "cold_query_s": cold,
            "cold_harvest_s": cold_harvest}


# ---------------------------------------------------------------------------
# phase 3: resilience overhead — the armed-but-idle wrapper must be free
# ---------------------------------------------------------------------------
def bench_resilience_overhead(workdir: Path, n_appends: int,
                              reps: int = 3) -> dict:
    """Append throughput through the raw backend vs the armed resilience
    wrapper (retry + breaker, no faults firing).  Modes alternate and the
    best rep per mode is kept, so scheduler noise cancels instead of
    landing on one side of the ratio."""
    best = {"raw": 0.0, "armed": 0.0}
    for rep in range(reps):
        for mode, resilience in (("raw", False), ("armed", None)):
            root = workdir / f"resil-{mode}-{rep}"
            store = ExperimentStore(root, auto_compact=0,
                                    resilience=resilience)
            run = timed_appends(store, n_appends, f"rs-{mode[:2]}")
            best[mode] = max(best[mode], run["throughput_per_s"])
    overhead = (best["raw"] / best["armed"]
                if best["armed"] > 0 else float("inf"))
    print(f"resilience overhead: raw {best['raw']:.1f} saves/s, "
          f"armed {best['armed']:.1f} saves/s ({overhead:.3f}x)")
    return {
        "appends": n_appends,
        "raw_throughput_per_s": best["raw"],
        "armed_throughput_per_s": best["armed"],
        "overhead_ratio": overhead,
    }


def check_against_baseline(results: dict) -> int:
    if not BASELINE.is_file():
        print(f"no baseline at {BASELINE}; skipping regression check")
        return 0
    baseline = json.loads(BASELINE.read_text())
    failures = []
    ratio = results["preloaded_save_ratio"]
    print(f"file saves/s over {results['scale']['entries']} entries vs an "
          f"empty store: {ratio:.2f}x "
          f"(floor {baseline['preloaded_save_ratio_min']:g}x)")
    if ratio < baseline["preloaded_save_ratio_min"]:
        failures.append("preloaded_save_ratio")
    if "resilience_overhead_max" in baseline and "resilience" in results:
        overhead = results["resilience"]["overhead_ratio"]
        print(f"armed-but-idle resilience overhead: {overhead:.3f}x "
              f"(ceiling {baseline['resilience_overhead_max']:g}x)")
        if overhead > baseline["resilience_overhead_max"]:
            failures.append("resilience_overhead")
    if failures:
        print(f"FAIL: store-scale regression: {failures}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entries", type=int, default=100_000,
                        help="preloaded index entries (default 10^5)")
    parser.add_argument("--equiv-runs", type=int, default=50,
                        help="corpus size for the equivalence phase")
    parser.add_argument("--appends", type=int, default=400,
                        help="appends timed on each store")
    parser.add_argument("--check", action="store_true",
                        help="fail when a gated ratio crosses its baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the checked-in floors")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="bench-store-scale-"))
    try:
        assert_equivalence(workdir, args.equiv_runs)
        scale = bench_scale(workdir, args.entries, args.appends)
        resilience = bench_resilience_overhead(workdir, args.appends)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = {
        "workload": {
            "entries": args.entries,
            "equiv_runs": args.equiv_runs,
            "appends": args.appends,
        },
        "equivalence": {"byte_identical": True},
        "scale": scale,
        "resilience": resilience,
        # one write path measured at both ends of the store's size: both
        # sides go through the armed wrapper (ExperimentStore's default)
        "preloaded_save_ratio": (
            scale["write"]["throughput_per_s"]
            / resilience["armed_throughput_per_s"]
        ),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_store_scale.json"
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.update_baseline:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps({
            "preloaded_save_ratio_min": 0.2,
            "resilience_overhead_max": 1.10,
            "gate_entries": args.entries,
            "note": "floors measured by bench_store_scale.py: file saves/s"
                    " on the preloaded index vs armed saves/s on an empty"
                    " store (a save is O(1), not O(store)), and the"
                    " armed-but-idle retry/breaker wrapper vs the raw"
                    " backend write path",
        }, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {BASELINE}")

    if args.check:
        return check_against_baseline(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
