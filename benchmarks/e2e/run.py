#!/usr/bin/env python3
"""End-to-end benchmark: one served diagnosis, timed at reference host
speed, scored by the paper's counts, attributed by layer.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1]
    python3 benchmarks/e2e/run.py --selftest

``--trace 0`` sets the workload up, checks one output against the in-
process reference, times sessions for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs the traced phase instead and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import multiprocessing
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
if not (REPO / "src" / "repro" / "__init__.py").is_file():
    sys.exit("benchmarks/e2e: no program to measure: src/repro is missing")
sys.path[:0] = [str(REPO / "src"), str(HERE)]

from clock import RefClock, percentile  # noqa: E402
from rig import OutputMismatch, Rig  # noqa: E402
from layers import traced_phase  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END, FULL, PER_LAYER, TINY, WORKLOADS, Scale, Workload,
    session_cycle,
)

#: A hung run gives up, and cleans up, before the harness's 180 s limit.
DEADLINE_S = 170
#: What cleaning up may take before the run is killed outright.
CLEANUP_S = 8
#: Stop sending after this many failed sessions: the connection is gone.
MAX_FAILURES = 5


def timed_phase(rig: Rig, cycle: Sequence[int], seconds: float,
                rss_cycles: int, clock: RefClock):
    """Closed loop, one caller: the next request leaves when the record
    of the previous one has been decoded.

    Sends whole cycles until *seconds* have passed, so every run times
    the same mix of executions, and at least *rss_cycles*, after which
    peak memory is read: it grows with the sessions served, and how many
    a run serves depends on the host's speed.  Returns ``(metrics,
    attempted, failed)``."""
    latencies = []
    peak_rss_mb = 0.0
    #: The paper's counts, by execution: simulated, so a repeat of an
    #: execution must reproduce them exactly.
    scores: Dict[int, Tuple[float, int, float]] = {}
    attempted = failed = cycles = 0
    deadline = time.perf_counter() + seconds
    while failed < MAX_FAILURES:
        for iterations in cycle:
            attempted += 1
            try:
                result, _wall, ref = clock.timed(
                    lambda: rig.request(iterations, f"timed-{attempted:05d}"))
                score = rig.score(rig.note(result))
            except Exception as exc:  # noqa: BLE001 - counted, reported, survived
                print(f"session {attempted} failed: {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr)
                failed += 1
                continue
            if scores.setdefault(iterations, score) != score:
                print(f"session {attempted}: {iterations} iterations scored "
                      f"{score}, before {scores[iterations]}", file=sys.stderr)
                failed += 1
                continue
            latencies.append(ref)
        cycles += 1
        if cycles == rss_cycles:
            # ru_maxrss is VmHWM, in KiB on Linux.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if cycles >= rss_cycles and time.perf_counter() >= deadline:
            break
    if not latencies:
        return {}, attempted, failed
    to_all, pairs, share = (statistics.fmean(col)
                            for col in zip(*scores.values()))
    metrics = {
        "sessions_per_s": len(latencies) / sum(latencies),
        "session_p50_ms": statistics.median(latencies) * 1e3,
        "session_p75_ms": percentile(latencies, 75) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "sim_time_to_all_true_s": to_all,
        "pairs_instrumented_per_session": pairs,
        "bottlenecks_found_share": share,
    }
    return metrics, attempted, failed


def run_workload(workload: Workload, seed: int, seconds: float,
                 traces: Sequence[bool], scale: Scale) -> List[dict]:
    """One set-up, then one measurement per entry of *traces*: the traced
    phase (true) or the timed phase (false).  Returns the result object
    of each, as the last output line carries it.

    The driver asks for one per run; ``--selftest`` takes both from one
    set-up."""
    OUT.mkdir(exist_ok=True)
    clock = RefClock()
    cycle = session_cycle(seed, scale.executions)
    outcomes = {trace: ({}, 0, 0) for trace in traces}
    mismatch = 0
    rig = None
    fixture = Path(tempfile.mkdtemp(prefix="fixture-", dir=OUT))
    try:
        rig = Rig(workload, scale, clock, fixture)
        rig.check_equivalence(cycle[0])
        # The fixture and the warm server are long-lived: keep them out of
        # the collector's way, as a serving process would, and leave it on.
        gc.collect()
        gc.freeze()
        for trace in traces:
            if trace:
                metrics = traced_phase(
                    rig, cycle, scale, clock,
                    OUT / f"trace-{workload.name}-{seed}.jsonl")
                outcomes[trace] = (metrics, len(cycle), 0)
            else:
                metrics, attempted, failed = timed_phase(
                    rig, cycle, seconds, scale.rss_cycles, clock)
                metrics["setup_s"] = rig.setup_ref_s
                outcomes[trace] = (metrics, attempted, failed)
        rig.check_store()
    except OutputMismatch as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        mismatch = 1
    finally:
        gc.unfreeze()
        if rig is not None:
            rig.close()
        shutil.rmtree(fixture, ignore_errors=True)
    assert_nothing_left(fixture)
    results = []
    for trace, (metrics, attempted, failed) in outcomes.items():
        attempted, failed = max(attempted, 1), failed + mismatch
        print(f"{workload.name} seed {seed} trace {int(trace)}: {attempted} "
              f"sessions, {failed} failed, host speed index "
              f"{clock.speed_index():.2f}", file=sys.stderr)
        units = {name: unit
                 for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
        results.append({
            "correct": failed == 0 and set(metrics) == set(units),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics},
        })
    return results


def assert_nothing_left(fixture: Path) -> None:
    """No server thread, no child process, and this run's fixture gone."""
    threads = [t.name for t in threading.enumerate()
               if t.name == "repro-serve"]
    if threads or multiprocessing.active_children() or fixture.exists():
        raise AssertionError(
            f"left behind: threads {threads}, children "
            f"{multiprocessing.active_children()}, fixture "
            f"{fixture if fixture.exists() else None}")


class DeadlinePassed(BaseException):
    """Not an ``Exception``: no handler that survives a failed session
    may survive this."""


def arm_deadline() -> None:
    """A hung run must not outlive the harness: after ``DEADLINE_S`` the
    main thread raises, so every ``finally`` stops the server and removes
    the fixture; if that hangs too, SIGALRM's default action ends it."""
    def give_up(signum, frame):
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.alarm(CLEANUP_S)
        raise DeadlinePassed(f"no result after {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(DEADLINE_S)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def selftest() -> None:
    """Tiny runs of every workload, both modes; checks the contract."""
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/e2e"], manifest["paths"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in manifest["end_to_end"]] == END_TO_END
    assert [tuple(m.values()) for m in manifest["per_layer"]] == PER_LAYER
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    names = [m[0] for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(_NAME.match(n) for n in names)
    assert all(_UNIT.match(m[1]) for m in END_TO_END + PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())
    imported = {
        name.split(".")[0]
        for node in ast.walk(ast.parse((HERE / "clock.py").read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])}
    assert "repro" not in imported, "clock.py must not import the program"

    for workload in WORKLOADS.values():
        # One workload seeds the fixture at full size, to check its shape.
        full_fixture = workload.name == "oneshot_cold"
        results = run_workload(
            workload, 0, 0.0, (False, True),
            replace(TINY, fixture_records=FULL.fixture_records)
            if full_fixture else TINY)
        for trace, result in zip((False, True), results):
            declared = PER_LAYER if trace else END_TO_END
            assert list(result) == ["correct", "attempted", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, result
            assert list(result["metrics"]) == [m[0] for m in declared]
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                assert all(v > 0 for v in layers.values()), layers
                continue
            assert layers["server.service.overhead_ms"] >= 0, layers
            assert layers["host.span_sum_error"] <= 0.02, layers
            assert (layers["storage.save_ms"] > 0) == workload.write_through
            if full_fixture:  # one compacted generation + unfolded segments
                assert layers["storage.generation_end"] == 1, layers
                assert layers["storage.aggregated_segments_end"] \
                    == layers["storage.segments_end"] >= 30, layers
            rows = [json.loads(line) for line in open(
                OUT / f"trace-{workload.name}-0.jsonl", encoding="utf-8")]
            by_id = {r["id"]: r for r in rows}
            for r in rows:  # spans nest inside their parents
                parent = by_id.get(r["parent"])
                assert parent is None or (
                    parent["start"] <= r["start"] <= r["end"] <= parent["end"]
                    and parent["request"] == r["request"]), r
    print("selftest ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    arm_deadline()
    if args.selftest:
        selftest()
        return 0
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result, = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           (bool(args.trace),), FULL)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
