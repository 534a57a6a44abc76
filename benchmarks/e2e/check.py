#!/usr/bin/env python3
"""Is the benchmark steady?  Two alternating sets of runs of the same tree.

    python3 benchmarks/e2e/check.py

What the harness does, on this tree: for every workload, set A and set
B each run seeds 1..10 for the ``run_seconds`` of ``BENCHMARK.json``,
alternating (A1 B1 B2 A2 ...), one child process at a time, each
finished before the next starts; then two traced runs, of seeds 1 and
2.  Printed per metric: both medians, how much worse B is than A, the
spread of each set (distance between its quartiles as a share of its
median) and the bound.  It is a violation when a spread (``setup_s``
excepted) or the worsening exceeds the bound, when a metric that must
repeat exactly differs between any two runs — the paper's counts,
every per-layer count: a run's sessions do not depend on its seed — or
when a run fails.  Exits non-zero on any violation.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, EXACT, PER_LAYER, WORKLOADS  # noqa: E402

#: The harness's limit on one run, its seeds per set, its run length.
RUN_TIMEOUT_S = 180
SEEDS = range(1, 11)
SECONDS = json.loads(
    (HERE.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One finished child; returns ``{metric: value}`` plus its wall
    seconds (``wall_s``), the sessions it attempted (``sessions``) and
    the host speed index it saw (``speed``)."""
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{child.returncode}:\n{child.stderr[-2000:]}")
    result = json.loads(child.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["wall_s"] = time.perf_counter() - started
    values["sessions"] = result["attempted"]
    values["speed"] = float(child.stderr.split("host speed index")[-1])
    return values


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_workload(workload: str) -> int:
    violations = 0
    sets = {"A": [], "B": []}
    for seed in SEEDS:
        for label in ("AB" if seed % 2 else "BA"):
            sets[label].append(run_once(workload, seed, 0))
    print(f"\n== {workload}: {len(SEEDS)} seeds x 2 sets, {SECONDS} s each")
    print("per run, set A then set B:")
    for label, rows in sets.items():
        for seed, row in zip(SEEDS, rows):
            print(f"  {label}{seed:<3d} wall_s={row['wall_s']:.1f} "
                  f"sessions={row['sessions']} speed={row['speed']:.2f}"
                  + "".join(
                f" {name}={row[name]:.5g}" for name, *_ in END_TO_END))
    print(f"{'metric':34s} {'median A':>11s} {'median B':>11s} "
          f"{'B worse':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}")
    for name, _unit, better, bound in END_TO_END:
        a = [row[name] for row in sets["A"]]
        b = [row[name] for row in sets["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
        spreads = spread(a), spread(b)
        bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
        if name in EXACT and len(set(a + b)) > 1:
            bad = True
        violations += bad
        print(f"{name:34s} {med_a:11.5g} {med_b:11.5g} {worse:+8.1%} "
              f"{spreads[0]:8.1%} {spreads[1]:8.1%} {bound:6.1%}"
              + ("  VIOLATION" if bad else ""))
    first, second = (run_once(workload, seed, 1) for seed in SEEDS[:2])
    print(f"{'per-layer (traced, seeds 1 and 2)':42s} {'seed 1':>13s} "
          f"{'seed 2':>13s}")
    for name, unit, _better in PER_LAYER:
        bad = unit == "count" and first[name] != second[name]
        violations += bad
        print(f"{name:42s} {first[name]:13.5g} {second[name]:13.5g} {unit}"
              + ("  VIOLATION" if bad else ""))
    return violations


def main() -> int:
    violations = sum(check_workload(name) for name in WORKLOADS)
    print(f"\n{violations} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
