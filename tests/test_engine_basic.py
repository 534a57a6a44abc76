"""Engine tests: compute/IO timing, attribution, perturbation, scheduling."""

import pytest

from repro.simulator import (
    Activity,
    Compute,
    Engine,
    IoOp,
    Machine,
    ProgramError,
    SimProcess,
    SimulationError,
    TraceCollector,
)
from tests.reference_delivery import in_progress


def make_engine(n_nodes=1):
    return Engine(Machine.named("n", n_nodes))


class TestComputeAndIo:
    def test_compute_advances_time(self):
        eng = make_engine()

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.5)

        eng.add_process("p", "n0", prog)
        assert eng.run() == pytest.approx(2.5)

    def test_compute_emits_segment(self):
        eng = make_engine()
        tc = TraceCollector()
        eng.add_sink(tc)

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        eng.run()
        assert len(tc.segments) == 1
        seg = tc.segments[0]
        assert seg.activity is Activity.COMPUTE
        assert (seg.module, seg.function) == ("m.c", "f")
        assert seg.duration == pytest.approx(1.0)
        assert seg.process == "p" and seg.node == "n0"

    def test_io_segment(self):
        eng = make_engine()
        tc = TraceCollector()
        eng.add_sink(tc)

        def prog(proc):
            with proc.function("m.c", "f"):
                yield IoOp(0.7)

        eng.add_process("p", "n0", prog)
        eng.run()
        assert tc.total(Activity.IO) == pytest.approx(0.7)

    def test_exclusive_attribution_innermost(self):
        eng = make_engine()
        tc = TraceCollector()
        eng.add_sink(tc)

        def prog(proc):
            with proc.function("m.c", "outer"):
                yield Compute(1.0)
                with proc.function("m.c", "inner"):
                    yield Compute(2.0)
                yield Compute(0.5)

        eng.add_process("p", "n0", prog)
        eng.run()
        by_fn = tc.by_function(Activity.COMPUTE)
        assert by_fn[("m.c", "outer")] == pytest.approx(1.5)
        assert by_fn[("m.c", "inner")] == pytest.approx(2.0)

    def test_negative_compute_rejected(self):
        eng = make_engine()

        def prog(proc):
            yield Compute(-1.0)

        eng.add_process("p", "n0", prog)
        with pytest.raises(ProgramError):
            eng.run()

    def test_negative_io_rejected(self):
        eng = make_engine()

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(1.0)
                yield IoOp(-1.0)

        eng.add_process("p", "n0", prog)
        # a program bug, not a scheduler one ("cannot schedule in the past")
        with pytest.raises(ProgramError, match="negative I/O time"):
            eng.run()
        assert list(in_progress(eng)) == []  # nothing left in progress

    def test_non_syscall_yield_rejected(self):
        eng = make_engine()

        def prog(proc):
            yield "not a syscall"

        eng.add_process("p", "n0", prog)
        with pytest.raises(ProgramError):
            eng.run()


class TestPerturbation:
    def test_overhead_stretches_compute(self):
        eng = make_engine()
        eng.add_perturbation_source(lambda p: 0.5)

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)

        eng.add_process("p", "n0", prog)
        assert eng.run() == pytest.approx(3.0)

    def test_overhead_does_not_stretch_io(self):
        eng = make_engine()
        eng.add_perturbation_source(lambda p: 1.0)

        def prog(proc):
            with proc.function("m.c", "f"):
                yield IoOp(1.0)

        eng.add_process("p", "n0", prog)
        assert eng.run() == pytest.approx(1.0)

    def test_multiple_sources_sum(self):
        eng = make_engine()
        eng.add_perturbation_source(lambda p: 0.1)
        eng.add_perturbation_source(lambda p: 0.2)
        assert eng.perturbation("p") == pytest.approx(0.3)


class TestScheduling:
    def test_schedule_in_past_rejected(self):
        eng = make_engine()

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule(0.5, lambda: None)

    def test_periodic_stops_after_finish(self):
        eng = make_engine()
        ticks = []

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(5.0)

        eng.add_process("p", "n0", prog)
        eng.schedule_periodic(1.0, lambda e: ticks.append(e.now))
        eng.run()
        # one tick per second during the run; none rescheduled after finish
        assert 4 <= len(ticks) <= 7

    def test_periodic_start_in_the_past_rejected(self):
        eng = make_engine()

        def prog(proc):
            yield Compute(5.0)

        eng.add_process("p", "n0", prog)
        eng.run()
        assert eng.now == 5.0
        with pytest.raises(SimulationError):
            eng.schedule_periodic(2.0, lambda e: None, start=1.0)
        assert len(eng.queue) == 0
        # within the clock tolerance the start is clamped to now
        eng.schedule_periodic(2.0, lambda e: None, start=5.0 - 1e-13)
        assert eng.queue.peek_time() == 5.0

    def test_periodic_rejects_nonpositive(self):
        eng = make_engine()
        with pytest.raises(SimulationError):
            eng.schedule_periodic(0.0, lambda e: None)

    def test_on_finish_called_once(self):
        eng = make_engine()
        calls = []

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        eng.on_finish(lambda e: calls.append(e.now))
        eng.run()
        assert calls == [pytest.approx(1.0)]

    def test_stop_aborts_early(self):
        eng = make_engine()

        def prog(proc):
            with proc.function("m.c", "f"):
                for _ in range(100):
                    yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        eng.schedule(5.0, eng.stop)
        t = eng.run()
        assert t <= 6.0

    def test_max_time_guard(self):
        eng = make_engine()

        def prog(proc):
            with proc.function("m.c", "f"):
                for _ in range(100):
                    yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        with pytest.raises(SimulationError):
            eng.run(max_time=10.0)

    def test_duplicate_process_name(self):
        eng = make_engine()

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        with pytest.raises(ProgramError):
            eng.add_process("p", "n0", prog)

    def test_in_progress_reports_running_compute(self):
        eng = make_engine()
        seen = []

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(10.0)

        def check(e):
            segs = list(in_progress(e))
            if segs:
                seen.append((segs[0].activity, segs[0].duration))

        eng.add_process("p", "n0", prog)
        eng.schedule(4.0, lambda: check(eng))
        eng.run()
        assert seen and seen[0][0] is Activity.COMPUTE
        assert seen[0][1] == pytest.approx(4.0)


class TestFunctionFrames:
    """``proc.function`` hands out one reusable frame per (module,
    function); the snapshot to restore on exit lives on the process, so
    every way out of a ``with`` restores the stack and the very snapshot
    object that was current before it."""

    def test_one_frame_per_function(self):
        proc = SimProcess("p", "n0", None)
        assert proc.function("m.c", "f") is proc.function("m.c", "f")
        assert proc.function("m.c", "f") is not proc.function("m.c", "g")

    def test_recursion(self):
        eng = make_engine()
        tc = TraceCollector()
        eng.add_sink(tc)
        seen = []

        def rec(proc, depth):
            with proc.function("m.c", "r"):
                inside = proc.stack_snapshot()
                yield Compute(1.0)
                if depth:
                    yield from rec(proc, depth - 1)
                # the inner frame's exit restored this very snapshot
                seen.append(proc.stack_snapshot() is inside)
                yield Compute(0.5)

        def prog(proc):
            root = proc.stack_snapshot()
            for _ in range(2):
                yield from rec(proc, 2)
            seen.append(proc.stack_snapshot() is root and proc.depth == 0)

        eng.add_process("p", "n0", prog)
        eng.run()
        assert seen == [True] * 7
        assert [len(s.stack) for s in tc.segments[:6]] == [1, 2, 3, 3, 2, 1]
        # the second descent reuses the interned snapshots of the first
        first, second = tc.segments[:6], tc.segments[6:]
        assert all(a.stack is b.stack for a, b in zip(first, second))

    def test_exception_through_a_frame(self):
        eng = make_engine()
        seen = []

        def prog(proc):
            with proc.function("m.c", "outer"):
                outer = proc.stack_snapshot()
                for _ in range(2):
                    try:
                        with proc.function("m.c", "inner"):
                            yield Compute(1.0)
                            raise KeyError("boom")
                    except KeyError:
                        pass
                    seen.append((proc.stack_snapshot() is outer, proc.depth))
                yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        eng.run()
        assert seen == [(True, 1), (True, 1)]

    def test_generator_closed_mid_frame(self):
        def prog(proc):
            with proc.function("m.c", "outer"):
                with proc.function("m.c", "inner"):
                    yield Compute(1.0)
                    yield Compute(1.0)

        proc = SimProcess("p", "n0", prog)
        root = proc.stack_snapshot()
        for _ in range(2):
            proc.gen = None
            proc.start()
            next(proc.gen)
            assert proc.stack_snapshot() == (("m.c", "outer"), ("m.c", "inner"))
            proc.gen.close()
            assert proc.depth == 0 and proc.stack_snapshot() is root
