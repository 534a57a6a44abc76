#!/usr/bin/env python3
"""Compare two commits on the end-to-end benchmark by alternating pairs.

    python3 benchmarks/pair_runs.py --parent ../parent \\
        --workload served_directed --workload served_undirected \\
        --seed 1 --pairs 10

Host speed on a shared box wanders by 2x within minutes, so one run of
each commit says nothing.  This runs each tree's *own, unmodified*
``benchmarks/e2e/run.py`` — the parent checkout's and this checkout's —
one process at a time, alternating which side goes first (each pair runs
every ``--workload`` given, in turn), and prints one table per workload:
per metric each side's median and quartiles, the pairs the change won, and
the verdict by the rule of the ``choosing-metrics`` guide:

* ``gain``      the change is ahead in at least nine tenths of the pairs
                (ties count for neither side) and the medians are apart
                by more than the distance between the parent's quartiles;
* ``WORSE``     the change's median is worse than the parent's by more
                than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` the parent's own quartile distance is wider than that
                bound, so "no worse" cannot be read off these runs;
* ``ok``        none of the above.

It also reports ``failed`` per side and whether every run of both sides
printed the same value (``same``), which the simulated counts must.
There is no CI job for this: it compares two commits, and nothing in CI
has two.  ``--parent`` is a ``git clone`` (or ``git archive``) of the
parent commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: Share of the pairs the change must win for a gain.
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> Tuple[Dict[str, float], int]:
    """One process of *tree*'s benchmark: ``(metric values, failed)``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
        values = {name: m["value"] for name, m in summary["metrics"].items()}
        failed = int(summary["failed"])
    except (IndexError, ValueError, KeyError, TypeError):
        sys.exit(f"{tree}: run.py exited {done.returncode} without a summary "
                 f"line\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    if done.returncode != 0 or not summary.get("correct", False):
        print(f"  {tree}: exit {done.returncode}, correct="
              f"{summary.get('correct')}, failed={failed}", file=sys.stderr)
    return values, failed


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float | None) -> Tuple[int, str]:
    """``(pairs the change won, verdict)`` for one metric."""
    sign = -1.0 if better == "higher" else 1.0  # so that lower is better
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    wins = sum(cv < pv for pv, cv in zip(p, c))
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = quartiles(c)[1]
    spread = p_q3 - p_q1
    if wins >= WIN_SHARE * len(p) and p_med - c_med > spread:
        return wins, "gain"
    if bound is not None:
        scale = abs(p_med)
        if c_med - p_med > bound * scale:
            return wins, "WORSE"
        if spread > bound * scale and not max(c) < min(p):
            return wins, "unresolved"
    return wins, "ok"


def table(workload: str, runs: Dict[str, List[Dict[str, float]]],
          failed: Dict[str, int], specs: Dict[str, dict],
          args: argparse.Namespace) -> None:
    """Print one workload's per-metric comparison."""
    print(f"\n{workload} seed {args.seed} --seconds {args.seconds:g} "
          f"--trace {args.trace}: {args.pairs} alternating pairs, "
          f"failed parent {failed['parent']} change {failed['change']}")
    print(f"{'metric':<40}{'parent median [q1, q3]':>38}"
          f"{'change median [q1, q3]':>38}{'change':>9}{'won':>7}"
          f"{'same':>6}  verdict")
    for name in runs["parent"][0]:
        if any(name not in values for side in runs.values() for values in side):
            continue  # a metric only one tree prints
        p = [values[name] for values in runs["parent"]]
        c = [values[name] for values in runs["change"]]
        spec = specs.get(name, {})
        wins, word = verdict(p, c, spec.get("better", "lower"),
                             spec.get("bound"))
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = quartiles(p), quartiles(c)
        moved = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
        same = "yes" if len(set(p + c)) == 1 else "no"
        print(f"{name:<40}"
              f"{f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]':>38}"
              f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]':>38}"
              f"{moved:>9}{f'{wins}/{len(p)}':>7}{same:>6}  {word}")


def main() -> int:
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, action="append",
                        choices=[w["name"] for w in declared["workloads"]],
                        help="repeat for several workloads; every pair "
                             "runs each of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics instead")
    args = parser.parse_args()
    workloads = list(dict.fromkeys(args.workload))
    sides = {"parent": args.parent.resolve(), "change": REPO}
    for name, tree in sides.items():
        if not (tree / RUNNER).is_file():
            sys.exit(f"{name}: no {RUNNER} under {tree}")

    runs = {w: {"parent": [], "change": []} for w in workloads}
    failed = {w: {"parent": 0, "change": 0} for w in workloads}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                values, bad = run_once(sides[side], workload, args.seed,
                                       args.seconds, args.trace)
                runs[workload][side].append(values)
                failed[workload][side] += bad
                shown = values if args.trace == 0 else {}  # 53 layers: too wide
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}  "
                      + "  ".join(f"{k}={v:.6g}" for k, v in shown.items()),
                      flush=True)

    specs = {m["name"]: m
             for m in declared["end_to_end"] + declared["per_layer"]}
    for workload in workloads:
        table(workload, runs[workload], failed[workload], specs, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
