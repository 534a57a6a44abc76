"""The event loop against its two oracles.

Every case below is a seeded simulated program plus a way of driving it
(budgets, injected faults, user callbacks that look at the sinks).  Each
is run on the production :class:`Engine` and on the per-event
:class:`~tests.reference_engine.ReferenceEngine`, which must agree on
everything an observer can see: the per-sink ``TimeSegment`` stream
(every field, ``stack`` equality and interned ``parts`` identity),
clock, finish time, event and segment counters, what callbacks saw when
they ran, and the ``SimDeadlock``/``SimTimeout`` diagnostics.  Both are
also held to ``tests/golden/engine_traces.json``: the original cases
were written by the engine's former per-event loop at the parent of the
change that removed it, the ``TestRunAhead`` cases by the engine at the
parent of the change that let it take a continuation without a heap
round trip.

A change that moves the traces on purpose regenerates the fixture:
``PYTHONPATH=src python tests/test_engine_fastpath.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.simulator import (
    Barrier,
    Compute,
    Engine,
    IoOp,
    Irecv,
    LatencyModel,
    Machine,
    Recv,
    Send,
    SimDeadlock,
    SimTimeout,
    TraceCollector,
    WaitReq,
)
from repro.simulator.process import Isend
from tests.reference_delivery import in_progress
from tests.reference_engine import ReferenceEngine

GOLDEN = Path(__file__).parent / "golden" / "engine_traces.json"


def seg_row(s):
    """One segment as JSON: every field but the interned ``parts``."""
    return [s.start, s.duration, s.activity.value, s.process, s.node,
            s.module, s.function, s.tag, [list(frame) for frame in s.stack]]


def seg_key(s):
    # interned parts must be the *same* dict whichever engine emitted
    return (json.dumps(seg_row(s)), id(s.parts))


def outcome(run):
    """How a ``run()`` call ended, as JSON."""
    try:
        return {"finished": run()}
    except (SimDeadlock, SimTimeout) as exc:
        return {
            "raised": type(exc).__name__,
            "message": str(exc),
            "blocked": exc.blocked,
            "crashed": exc.crashed,
            "budget": getattr(exc, "budget", None),
        }


class Run:
    """One case driven on one engine."""

    def __init__(self, build, drive, engine_cls):
        self.eng = build(engine_cls)
        self.col = TraceCollector()
        self.eng.add_sink(self.col)
        self.result = drive(self.eng, self.col)

    def frozen(self):
        """What the golden file pins (through JSON, so tuples are lists)."""
        rows = [seg_row(s) for s in self.col.segments]
        return json.loads(json.dumps({
            "result": self.result,
            "now": self.eng.now,
            "finished_at": self.eng.finished_at,
            "events_processed": self.eng.events_processed,
            "segments_emitted": self.eng.segments_emitted,
            "segments": len(rows),
            "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        }))


# --------------------------------------------------------------------------
# programs
# --------------------------------------------------------------------------
def ring_builder(n=4, iters=8, seed=0, perturb=False, latency=None):
    """A seeded random ring program: compute, eager sends, blocking or
    non-blocking receives, occasional barriers and I/O."""

    def build(engine_cls=Engine):
        rng = random.Random(seed)
        # shared per-iteration script so every process agrees on barriers
        script = [
            (
                rng.uniform(0.001, 0.2),  # compute seconds
                rng.choice(["recv", "irecv"]),
                rng.random() < 0.25,  # barrier this iteration?
                rng.uniform(0, 2000),  # message size
            )
            for _ in range(iters)
        ]
        eng = engine_cls(Machine.named("node", n), latency or LatencyModel())
        if perturb:
            eng.add_perturbation_source(lambda name: 0.25 if name == "p0" else 0.0)

        def prog(rank):
            def p(proc):
                up, down = f"p{(rank + 1) % n}", f"p{(rank - 1) % n}"
                with proc.function("oned.f", "main"):
                    for seconds, mode, barrier, size in script:
                        with proc.function("sweep.f", "sweep1d"):
                            yield Compute(seconds * (1 + rank % 3))
                        with proc.function("exchng1.f", "exchng1"):
                            yield Send(up, "1/0", size)
                            if mode == "recv":
                                yield Recv(down, "1/0")
                            else:
                                req = yield Irecv(down, "1/0")
                                yield Compute(0.003)
                                yield WaitReq(req)
                        if barrier:
                            yield Barrier()
                    yield IoOp(0.01 * (rank + 1))
            return p

        for i in range(n):
            eng.add_process(f"p{i}", f"node{i}", prog(i))
        return eng

    return build


def rendezvous(engine_cls):
    # eager_threshold below the message sizes forces rendezvous: the
    # blocking send parks until the receiver posts a matching receive
    eng = engine_cls(Machine.named("node", 2), LatencyModel(eager_threshold=100.0))

    def sender(proc):
        with proc.function("a.f", "send"):
            yield Compute(0.5)
            yield Send("p1", "big/0", 4096)  # parks: no receive yet
            yield Compute(0.1)
            yield Send("p1", "big2/0", 2048)  # matched by posted irecv
            yield Compute(0.1)

    def receiver(proc):
        with proc.function("b.f", "recv"):
            yield Compute(2.0)  # sender waits in rendezvous meanwhile
            yield Recv("p0", "big/0")
            req = yield Irecv("p0", "big2/0")
            yield Compute(1.0)
            yield WaitReq(req)

    eng.add_process("p0", "node0", sender)
    eng.add_process("p1", "node1", receiver)
    return eng


def isend_wait(engine_cls):
    eng = engine_cls(Machine.named("node", 2))

    def sender(proc):
        with proc.function("a.f", "send"):
            req = yield Isend("p1", "t/0", 64)
            yield WaitReq(req)
            yield Compute(0.5)

    def receiver(proc):
        with proc.function("b.f", "recv"):
            yield Recv("p0", "t/0")

    eng.add_process("p0", "node0", sender)
    eng.add_process("p1", "node1", receiver)
    return eng


def filtered_ring(engine_cls):
    eng = ring_builder(seed=2)(engine_cls)

    # deterministic drop/duplicate/delay by message send time
    def filt(msg):
        k = int(msg.send_time * 1000) % 3
        if k == 0:
            return [0.0, 0.5]  # duplicate, one delayed
        if k == 1:
            return [0.1]
        return [0.0]

    eng.add_message_filter(filt)
    return eng


def one_crasher(engine_cls):
    eng = engine_cls(Machine.named("node", 3), crash_policy="record")

    def crasher(proc):
        with proc.function("m.f", "work"):
            yield Compute(1.0)
            raise ValueError("injected")

    def worker(proc):
        with proc.function("m.f", "work"):
            for _ in range(4):
                yield Compute(0.5)

    eng.add_process("p0", "node0", crasher)
    eng.add_process("p1", "node1", worker)
    eng.add_process("p2", "node2", worker)
    return eng


def long_ring(engine_cls):
    eng = engine_cls(Machine.named("node", 4), crash_policy="record")

    def prog(rank):
        def p(proc):
            up, down = f"p{(rank + 1) % 4}", f"p{(rank - 1) % 4}"
            with proc.function("m.f", "loop"):
                for _ in range(1000):
                    yield Compute(0.01)
                    yield Send(up, "1/0", 10)
                    yield Recv(down, "1/0")
        return p

    for i in range(4):
        eng.add_process(f"p{i}", f"node{i}", prog(i))
    return eng


def stuck_receiver(engine_cls):
    eng = engine_cls(Machine.named("node", 2))

    def p0(proc):
        with proc.function("m.f", "stuck"):
            yield Recv("p1", "never/0")

    def p1(proc):
        with proc.function("m.f", "done"):
            yield Compute(1.0)

    eng.add_process("p0", "node0", p0)
    eng.add_process("p1", "node1", p1)
    return eng


def late_to_the_barrier(engine_cls):
    """p0 and p1 wait at a barrier for p2, which is still computing."""
    eng = engine_cls(Machine.named("node", 3), crash_policy="record")

    def prog(seconds):
        def p(proc):
            with proc.function("m.f", "work"):
                yield Compute(seconds)
                with proc.function("m.f", "sync"):
                    yield Barrier()
                yield Compute(0.5)
        return p

    for i, seconds in enumerate((1.0, 1.5, 10.0)):
        eng.add_process(f"p{i}", f"node{i}", prog(seconds))
    # a callback so the clock has passed both arrivals when max_time fires
    eng.schedule(1.9, lambda: None)
    return eng


def streaks(engine_cls):
    """Runs of continuations that end strictly before anything else is
    due, so the engine takes them without a heap round trip: p0 and p1
    compute in exact binary steps (ending on the same instants as each
    other and as the callbacks the drive functions schedule), with
    zero-length computes and I/O mixed in; p2 waits on p0's messages."""
    eng = engine_cls(Machine.named("node", 3), crash_policy="record")

    def worker(step, peer):
        def p(proc):
            with proc.function("m.f", "loop"):
                for i in range(16):
                    with proc.function("m.f", "step"):
                        yield Compute(step)
                        yield Compute(0.0)
                    if i % 4 == 3:
                        yield IoOp(0.0)
                        yield Send(peer, "s/0", 64)
        return p

    def waiter(proc):
        with proc.function("m.f", "wait"):
            for _ in range(4):
                yield Recv("p0", "s/0")
                yield Compute(0.125)

    eng.add_process("p0", "node0", worker(0.25, "p2"))
    eng.add_process("p1", "node1", worker(0.5, "p2"))
    eng.add_process("p2", "node2", waiter)
    return eng


def program_stops_engine(engine_cls):
    """p0 stops the engine from inside its program, then yields a
    compute that is due before anything else."""
    eng = engine_cls(Machine.named("node", 2))

    def p0(proc):
        with proc.function("m.f", "a"):
            yield Compute(0.25)
            eng.stop()
            yield Compute(0.25)

    def p1(proc):
        with proc.function("m.f", "b"):
            yield Compute(4.0)

    eng.add_process("p0", "node0", p0)
    eng.add_process("p1", "node1", p1)
    return eng


# --------------------------------------------------------------------------
# ways of driving them
# --------------------------------------------------------------------------
def just_run(eng, col):
    return outcome(eng.run)


def run_bounded(eng, col):
    return outcome(lambda: eng.run(max_time=1e4))


def run_and_list_crashed(eng, col):
    return [outcome(eng.run), [p.name for p in eng.crashed()]]


def faults_under_watchdog(eng, col):
    eng.schedule(1.0, lambda: eng.crash_process("p1"))
    eng.schedule(2.0, lambda: eng.hang_process("p2"))
    eng.schedule_periodic(5.0, lambda e: None)  # keeps time advancing
    return outcome(lambda: eng.run(max_time=50.0))


def sinks_now(eng, col):
    return [eng.now, len(col.segments), eng.segments_emitted, eng.events_processed]


def callbacks_count_segments(eng, col):
    seen = []
    for t in (0.5, 1.5, 2.5):
        eng.schedule(t, lambda: seen.append(sinks_now(eng, col)))
    return [outcome(eng.run), seen]


def callbacks_read_in_progress(eng, col):
    seen = []
    for t in (0.25, 1.25):
        eng.schedule(
            t, lambda: seen.append(sorted(seg_row(s) for s in in_progress(eng))))
    return [outcome(eng.run), seen]


def stop_at_one(eng, col):
    eng.schedule(1.0, eng.stop)
    return outcome(eng.run)


def on_finish_counts_segments(eng, col):
    seen = []
    eng.on_finish(lambda e: seen.append(sinks_now(eng, col)))
    return [outcome(eng.run), seen]


def resume_doubling(budget_name, first):
    """Run under a budget, doubling it after every timeout."""

    def drive(eng, col):
        budget, stops = first, []
        while True:
            end = outcome(lambda: eng.run(**{budget_name: budget}))
            if "finished" in end:
                return [end, stops]
            assert end["budget"] == {budget_name: budget}
            stops.append(sinks_now(eng, col))
            budget *= 2

    return drive


def crash_between_runs(eng, col):
    """The barrier's missing participant is killed while no ``run()`` is
    on the stack; the released waits must reach the sinks there and then."""
    timed_out = outcome(lambda: eng.run(max_time=2.0))
    before = sinks_now(eng, col)
    eng.crash_process("p2")
    after = sinks_now(eng, col)
    return [timed_out, before, after, outcome(eng.run)]


def crash_inside_callback(eng, col):
    """... or from a user callback, which may look at the sinks next."""
    seen = []

    def kill():
        seen.append(sinks_now(eng, col))
        eng.crash_process("p2")
        seen.append(sinks_now(eng, col))

    eng.schedule(1.95, kill)
    return [outcome(eng.run), seen]


def hang_between_runs(eng, col):
    timed_out = outcome(lambda: eng.run(max_time=2.0))
    eng.hang_process("p2")
    after = sinks_now(eng, col)
    return [timed_out, after, outcome(eng.run)]


def schedule_between_runs(eng, col):
    seen = []
    first = outcome(lambda: eng.run(max_events=40))
    eng.schedule(eng.now + 0.3, lambda: seen.append(sinks_now(eng, col)))
    after = sinks_now(eng, col)
    stops = 0
    while "finished" not in outcome(lambda: eng.run(max_events=40)):
        stops += 1
    return [first, after, seen, stops]


def callbacks_on_streak_ends(eng, col):
    """Callbacks due at the very instants computes end: a tie goes to
    the callback, which was scheduled first."""
    seen = []
    for t in (0.5, 1.0, 2.0, 4.0):
        eng.schedule(t, lambda: seen.append(sinks_now(eng, col)))
    return [outcome(eng.run), seen]


def one_event_slices(eng, col):
    """``run(max_events=1)`` until done: every streak is cut after each
    event and resumed from the heap."""
    stops, seen = 0, []
    while "finished" not in (end := outcome(lambda: eng.run(max_events=1))):
        assert end["budget"] == {"max_events": 1}
        stops += 1
        if stops % 16 == 0:
            seen.append(sinks_now(eng, col))
    return [end, stops, seen]


def stop_from_on_finish(eng, col):
    eng.on_finish(lambda e: e.stop())
    eng.schedule_periodic(0.75, lambda e: None)
    return [outcome(eng.run), len(eng.queue), eng.queue.peek_time()]


def stopped_run_keeps_queue(eng, col):
    first = outcome(eng.run)
    return [first, len(eng.queue), eng.queue.peek_time(),
            sinks_now(eng, col), outcome(eng.run)]


def faults_on_streak_ends(eng, col):
    """Crash p0 and hang p1 at instants their computes end."""
    eng.schedule(1.0, lambda: eng.crash_process("p0"))
    eng.schedule(2.0, lambda: eng.hang_process("p1"))
    eng.schedule_periodic(1.0, lambda e: None)  # keeps time advancing
    return outcome(lambda: eng.run(max_time=12.0))


CASES = {
    **{f"ring-{seed}": (ring_builder(seed=seed), just_run) for seed in range(6)},
    **{f"ring-perturbed-{seed}": (ring_builder(seed=seed, perturb=True), just_run)
       for seed in range(3)},
    "rendezvous": (rendezvous, just_run),
    "isend-wait": (isend_wait, just_run),
    # a dropped/duplicated stream may deadlock: the diagnostics are pinned
    "message-filters": (filtered_ring, run_bounded),
    "crash-policy-record": (one_crasher, run_and_list_crashed),
    "crash-and-hang-under-watchdog": (long_ring, faults_under_watchdog),
    "deadlock": (stuck_receiver, just_run),
    "callback-counts-segments": (ring_builder(seed=3), callbacks_count_segments),
    "callback-reads-in-progress": (ring_builder(seed=4), callbacks_read_in_progress),
    "stop-mid-run": (ring_builder(seed=5), stop_at_one),
    "on-finish-counts-segments": (ring_builder(seed=0), on_finish_counts_segments),
    "resume-doubling-max-time": (ring_builder(seed=1), resume_doubling("max_time", 0.1)),
    "resume-doubling-max-events": (ring_builder(seed=1), resume_doubling("max_events", 7)),
    "crash-between-runs": (late_to_the_barrier, crash_between_runs),
    "crash-inside-callback": (late_to_the_barrier, crash_inside_callback),
    "hang-between-runs": (late_to_the_barrier, hang_between_runs),
    "schedule-between-runs": (ring_builder(seed=2), schedule_between_runs),
    "streak-ties-callbacks": (streaks, callbacks_on_streak_ends),
    "streak-one-event-slices": (streaks, one_event_slices),
    "streak-resume-max-time": (streaks, resume_doubling("max_time", 0.3)),
    "stop-from-on-finish": (streaks, stop_from_on_finish),
    "stop-from-program": (program_stops_engine, stopped_run_keeps_queue),
    "streak-crash-and-hang": (streaks, faults_on_streak_ends),
}


def golden_views(engine_cls=Engine):
    return {name: Run(build, drive, engine_cls).frozen()
            for name, (build, drive) in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def check(name, golden):
    """Drive *name* on both engines; each must equal the other and the
    frozen trace.  Returns the production run for case-specific asserts."""
    build, drive = CASES[name]
    prod = Run(build, drive, Engine)
    ref = Run(build, drive, ReferenceEngine)
    assert prod.result == ref.result
    for attr in ("now", "finished_at", "events_processed", "segments_emitted"):
        assert getattr(prod.eng, attr) == getattr(ref.eng, attr), attr
    assert len(prod.col.segments) == len(ref.col.segments)
    for a, b in zip(prod.col.segments, ref.col.segments):
        assert seg_key(a) == seg_key(b)
    assert prod.frozen() == golden[name]
    assert ref.frozen() == golden[name]
    return prod


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


class TestSeededPrograms:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_ring_identical(self, seed, golden):
        run = check(f"ring-{seed}", golden)
        assert "finished" in run.result
        assert {s.activity.value for s in run.col.segments} == {"compute", "sync", "io"}

    @pytest.mark.parametrize("seed", range(3))
    def test_random_ring_with_perturbation(self, seed, golden):
        run = check(f"ring-perturbed-{seed}", golden)
        assert run.frozen()["sha256"] != golden[f"ring-{seed}"]["sha256"]

    def test_rendezvous_protocol(self, golden):
        run = check("rendezvous", golden)
        # the parked sender's wait is charged to it as synchronisation
        assert any(s.process == "p0" and s.tag == "big/0" for s in run.col.segments)

    def test_isend_wait(self, golden):
        check("isend-wait", golden)

    def test_message_filters(self, golden):
        check("message-filters", golden)


class TestFaultEquivalence:
    def test_crash_policy_record(self, golden):
        run = check("crash-policy-record", golden)
        assert run.result[1] == ["p0"]

    def test_injected_crash_and_hang_under_watchdog(self, golden):
        run = check("crash-and-hang-under-watchdog", golden)
        assert run.result["raised"] == "SimTimeout"
        assert run.result["budget"] == {"max_time": 50.0}
        assert run.result["crashed"] == ["p1"]

    def test_deadlock_diagnostics(self, golden):
        run = check("deadlock", golden)
        assert run.result["raised"] == "SimDeadlock"
        assert [b["process"] for b in run.result["blocked"]] == ["p0"]


class TestObservationPoints:
    def test_callback_sees_flushed_segments(self, golden):
        """A user-scheduled callback observes exactly the segments that
        have ended by that instant, and counters that include them."""
        run = check("callback-counts-segments", golden)
        _end, seen = run.result
        assert len(seen) == 3
        for now, in_sink, emitted, _events in seen:
            assert in_sink == emitted
            assert in_sink == sum(s.end <= now + 1e-9 for s in run.col.segments)

    def test_callback_sees_in_progress(self, golden):
        run = check("callback-reads-in-progress", golden)
        assert all(run.result[1])  # something was in progress both times

    def test_stop_mid_run(self, golden):
        run = check("stop-mid-run", golden)
        assert run.result == {"finished": 1.0}
        assert not run.eng.all_done()

    def test_on_finish_sees_full_stream(self, golden):
        run = check("on-finish-counts-segments", golden)
        (_now, in_sink, emitted, _events), = run.result[1]
        assert in_sink == emitted == len(run.col.segments)


class TestResume:
    """A caught timeout loses nothing: raising the budget until the run
    completes reproduces the unbudgeted trace."""

    @pytest.mark.parametrize("budget", ["max_time", "max_events"])
    def test_doubling_budget_reproduces_unbudgeted_trace(self, budget, golden):
        run = check(f"resume-doubling-{budget.replace('_', '-')}", golden)
        _end, stops = run.result
        assert len(stops) >= 3  # the budget fired, repeatedly
        # every stop left the sinks current
        assert all(in_sink == emitted for _now, in_sink, emitted, _ev in stops)
        whole = golden["ring-1"]
        for key in ("finished_at", "events_processed", "segments_emitted", "sha256"):
            assert run.frozen()[key] == whole[key], key


class TestOutOfRunEntryPoints:
    """``crash_process``, ``hang_process`` and ``schedule`` called from
    outside the loop leave every sink current on return."""

    def test_crash_releases_barrier_into_the_sinks_at_once(self, golden):
        run = check("crash-between-runs", golden)
        timed_out, before, after, end = run.result
        assert timed_out["raised"] == "SimTimeout"
        assert [b["kind"] for b in timed_out["blocked"]] == ["barrier", "barrier", "runnable"]
        # both released SYNC waits are in the collector and the counter
        # before the next run() starts
        assert after[1] == before[1] + 2 and after[2] == before[2] + 2
        waits = [s for s in run.col.segments if s.tag == "Barrier"]
        assert [(s.process, s.start, s.duration) for s in waits] == [
            ("p0", 1.0, pytest.approx(0.9)), ("p1", 1.5, pytest.approx(0.4))]
        assert run.col.segments.index(waits[1]) < after[1]
        assert end == {"finished": pytest.approx(2.4)}

    def test_crash_inside_a_callback_is_visible_to_that_callback(self, golden):
        run = check("crash-inside-callback", golden)
        _end, (before, after) = run.result
        assert after[1] == before[1] + 2 and after[2] == before[2] + 2

    def test_hang_between_runs(self, golden):
        run = check("hang-between-runs", golden)
        _timed_out, after, end = run.result
        assert after[1] == after[2]
        assert end["raised"] == "SimDeadlock"
        assert [b["kind"] for b in end["blocked"]] == ["barrier", "barrier", "hang"]

    def test_schedule_between_budgeted_runs(self, golden):
        run = check("schedule-between-runs", golden)
        first, after, seen, stops = run.result
        assert first["budget"] == {"max_events": 40} and stops >= 2
        assert after[1] == after[2]
        (now, in_sink, emitted, _events), = seen
        assert now == pytest.approx(after[0] + 0.3)
        assert in_sink == emitted > after[1]
        assert run.frozen()["sha256"] == golden["ring-2"]["sha256"]


class TestRunAhead:
    """Continuations that end strictly before the heap top are taken
    without a heap round trip; nothing an observer sees may move."""

    def test_compute_ending_on_a_callback_is_a_tie(self, golden):
        run = check("streak-ties-callbacks", golden)
        _end, seen = run.result
        for now, in_sink, emitted, _events in seen:
            # the callback ran before the computes ending at its instant
            assert in_sink == emitted
            assert in_sink == sum(s.end < now for s in run.col.segments)

    def test_zero_length_computes_emit_nothing(self, golden):
        run = check("streak-ties-callbacks", golden)
        assert all(s.duration > 0 for s in run.col.segments)
        assert {s.activity.value for s in run.col.segments} == {"compute", "sync"}

    def test_one_event_slices_reproduce_the_whole_run(self, golden):
        run = check("streak-one-event-slices", golden)
        end, stops, _seen = run.result
        assert stops == run.eng.events_processed - 1  # the last slice finished
        whole = Run(streaks, just_run, Engine).frozen()
        for key in ("finished_at", "events_processed", "segments_emitted", "sha256"):
            assert run.frozen()[key] == whole[key], key

    def test_max_time_cuts_a_streak(self, golden):
        run = check("streak-resume-max-time", golden)
        _end, stops = run.result
        assert len(stops) >= 3
        whole = Run(streaks, just_run, Engine).frozen()
        assert run.frozen()["sha256"] == whole["sha256"]

    def test_stop_from_on_finish(self, golden):
        run = check("stop-from-on-finish", golden)
        _end, queued, next_time = run.result
        # the next tick and p1's last message (p2 never receives it) wait
        assert run.eng.all_done() and queued == 2
        assert next_time > run.eng.finished_at

    def test_stop_from_a_program_requeues_its_next_event(self, golden):
        run = check("stop-from-program", golden)
        first, queued, next_time, _now, again = run.result
        assert first == again == {"finished": 0.25}
        # p0's second compute and p1's compute, both still queued
        assert queued == 2 and next_time == 0.5

    def test_crash_and_hang_on_streak_ends(self, golden):
        run = check("streak-crash-and-hang", golden)
        assert run.result["raised"] == "SimTimeout"
        assert run.result["crashed"] == ["p0"]
        assert {b["process"]: b["kind"] for b in run.result["blocked"]} == {
            "p1": "hang", "p2": "recv"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_views(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
