#!/usr/bin/env python
"""Crash-consistency torture campaign for the experiment store.

Not a paper artifact: this harness drives the seeded I/O fault matrix of
:mod:`repro.resilience.torture` at CI scale.  Every schedule opens a
store through the resilience layer, arms a fault plan derived from the
seed (EIO, ENOSPC, short writes, lost fsyncs, failed renames, and
kills at schedule-chosen call indices), runs a random mix of
saves/overwrites/deletes/compactions — or a federated harvest, or the
open that converts an oldest-layout store — and then reopens the store
with faults disarmed.  The reopened view must equal one of the states a
fault-free execution passes through: every schedule is pre-op or
post-op, never in between; every surviving payload must verify; and the
persisted harvest aggregate must be absent or equal to a fold over the
summary scan.

Emits ``results/TORTURE_store.json``.  ``--check`` exits nonzero when
any schedule diverged (the report names the exact ``run_schedule(seed)``
call that reproduces it) or when the matrix is too small to mean
anything.  All schedules are deterministic in the seed, so
a CI failure replays locally bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.resilience.torture import run_torture  # noqa: E402

RESULTS_DIR = REPO / "results"

#: --check refuses matrices below this size: a handful of schedules
#: passing says nothing about crash consistency.
MIN_SCHEDULES = 80


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=80,
                        help="fault/kill schedules, one per seed (default 80)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed of the range (replay a CI window "
                             "locally by matching its base)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on any divergence or when the "
                             f"matrix is smaller than {MIN_SCHEDULES}")
    args = parser.parse_args(argv)

    seeds = range(args.seed_base, args.seed_base + args.seeds)

    start = time.perf_counter()
    report = run_torture(seeds=seeds)
    wall = time.perf_counter() - start
    print(report)
    print(f"{len(report.schedules)} schedule(s) in {wall:.1f} s "
          f"({len(report.schedules) / wall:.1f}/s)")

    results = {
        "workload": {
            "seed_base": args.seed_base,
            "seeds": args.seeds,
        },
        "wall_s": wall,
        "report": report.to_dict(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "TORTURE_store.json"
    out_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        if report.divergences:
            print(f"FAIL: {len(report.divergences)} divergent schedule(s)")
            return 1
        if len(report.schedules) < MIN_SCHEDULES:
            print(f"FAIL: only {len(report.schedules)} schedules; "
                  f"--check needs >= {MIN_SCHEDULES}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
