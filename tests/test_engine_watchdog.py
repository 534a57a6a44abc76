"""Watchdog budgets are non-destructive.

The event that would exceed ``max_time``/``max_events`` stays queued, so
catching the timeout and resuming with a larger budget replays *exactly*
the unbudgeted run; ``events_processed`` counts only dispatched events —
the budget-tripping event is neither counted nor lost; the clock does
not move to an event that was not dispatched.

Every case runs on the production :class:`Engine` and on the per-event
:class:`~tests.reference_engine.ReferenceEngine`, and the two must raise
the same diagnostics from the same state.
"""

import pytest

from repro.simulator import (
    Barrier,
    Compute,
    Engine,
    LatencyModel,
    Machine,
    Recv,
    Send,
    SimTimeout,
    TraceCollector,
)
from tests.reference_engine import ReferenceEngine

# ids from when the per-event discipline was a second loop inside Engine
both_engines = pytest.mark.parametrize("engine_cls", [
    pytest.param(ReferenceEngine, id="legacy"), pytest.param(Engine, id="fast")])


def make_engine(engine_cls=Engine, n=3, iters=10):
    eng = engine_cls(Machine.named("node", n), LatencyModel())

    def prog(rank):
        def p(proc):
            up, down = f"p{(rank + 1) % n}", f"p{(rank - 1) % n}"
            with proc.function("oned.f", "main"):
                for _ in range(iters):
                    with proc.function("sweep.f", "sweep"):
                        yield Compute(0.5 + 0.1 * rank)
                    with proc.function("exchng.f", "exchng"):
                        yield Send(up, "1/0", 128)
                        yield Recv(down, "1/0")
                yield Barrier()
        return p

    for i in range(n):
        eng.add_process(f"p{i}", f"node{i}", prog(i))
    return eng


def seg_key(s):
    return (s.start, s.duration, s.activity, s.process, s.module, s.function,
            s.tag, s.stack)


def reference_run(engine_cls):
    eng = make_engine(engine_cls)
    col = TraceCollector()
    eng.add_sink(col)
    eng.run()
    return eng, col


def timeout_state(eng, **budget):
    """Run under *budget*, which must fire; everything the caller can see
    of the engine afterwards."""
    with pytest.raises(SimTimeout) as info:
        eng.run(**budget)
    exc = info.value
    return (str(exc), exc.budget, exc.blocked, exc.crashed,
            eng.now, eng.events_processed, len(eng.queue), eng.segments_emitted)


class TestMaxTimeResume:
    @both_engines
    def test_resume_after_timeout_matches_unbudgeted(self, engine_cls):
        ref_eng, ref_col = reference_run(engine_cls)
        eng = make_engine(engine_cls)
        col = TraceCollector()
        eng.add_sink(col)
        budget = ref_eng.finished_at / 4
        timeouts = 0
        while True:
            try:
                eng.run(max_time=budget)
                break
            except SimTimeout as exc:
                assert exc.budget == {"max_time": budget}
                assert eng.now <= budget
                timeouts += 1
                budget *= 2
        assert timeouts >= 1  # the budget actually fired at least once
        assert eng.finished_at == ref_eng.finished_at
        # the over-budget event was not lost: the resumed trace and the
        # event count replay the unbudgeted run exactly
        assert eng.events_processed == ref_eng.events_processed
        assert [seg_key(s) for s in col.segments] == [seg_key(s) for s in ref_col.segments]

    @both_engines
    def test_timeout_preserves_queue(self, engine_cls):
        eng = make_engine(engine_cls)
        with pytest.raises(SimTimeout):
            eng.run(max_time=1.0)
        before = len(eng.queue)
        assert before > 0  # the tripping event is still queued
        with pytest.raises(SimTimeout):
            eng.run(max_time=1.0)
        assert len(eng.queue) == before  # a re-raise consumes nothing

    @both_engines
    def test_resume_with_already_exceeded_clock(self, engine_cls):
        """Resuming with a budget below the current clock still raises
        without dispatching or dropping anything."""
        eng = make_engine(engine_cls)
        with pytest.raises(SimTimeout):
            eng.run(max_time=2.0)
        events = eng.events_processed
        queued = len(eng.queue)
        with pytest.raises(SimTimeout):
            eng.run(max_time=1.0)  # below eng.now by now
        assert eng.events_processed == events
        assert len(eng.queue) == queued


class TestMaxEventsOffByOne:
    @both_engines
    def test_counts_only_dispatched_events(self, engine_cls):
        eng = make_engine(engine_cls)
        with pytest.raises(SimTimeout) as info:
            eng.run(max_events=20)
        assert info.value.budget == {"max_events": 20}
        # exactly the budget was dispatched; the 21st event is neither
        # counted (the old off-by-one) nor popped
        assert eng.events_processed == 20

    @both_engines
    def test_budget_is_per_call_and_resumable(self, engine_cls):
        ref_eng, ref_col = reference_run(engine_cls)
        eng = make_engine(engine_cls)
        col = TraceCollector()
        eng.add_sink(col)
        calls = 0
        while True:
            try:
                eng.run(max_events=25)
                break
            except SimTimeout:
                calls += 1
        assert calls == ref_eng.events_processed // 25
        assert eng.events_processed == ref_eng.events_processed
        assert eng.finished_at == ref_eng.finished_at
        assert [seg_key(s) for s in col.segments] == [seg_key(s) for s in ref_col.segments]

    @both_engines
    def test_zero_budget_dispatches_nothing(self, engine_cls):
        eng = make_engine(engine_cls)
        with pytest.raises(SimTimeout):
            eng.run(max_events=0)
        assert eng.events_processed == 0

    @both_engines
    def test_clock_stays_behind_the_unpopped_event(self, engine_cls):
        eng = make_engine(engine_cls)
        with pytest.raises(SimTimeout):
            eng.run(max_events=3)  # the three start steps, all at t=0
        assert eng.now == 0.0
        assert eng.queue.peek_time() > 0.0  # the event that stayed queued
        queued = len(eng.queue)
        with pytest.raises(SimTimeout):
            eng.run(max_events=0)
        assert (eng.now, len(eng.queue), eng.events_processed) == (0.0, queued, 3)

    @both_engines
    def test_max_time_is_reported_ahead_of_max_events(self, engine_cls):
        eng = make_engine(engine_cls)
        with pytest.raises(SimTimeout):
            eng.run(max_events=3)
        with pytest.raises(SimTimeout) as info:
            eng.run(max_time=0.0, max_events=0)  # both exceeded
        assert info.value.budget == {"max_time": 0.0}

    @both_engines
    def test_zero_budget_on_a_finished_engine_returns(self, engine_cls):
        eng = make_engine(engine_cls)
        finish = eng.run()
        assert eng.run(max_events=0) == finish
        assert eng.run(max_time=0.0, max_events=0) == finish

    @both_engines
    def test_alternating_budget_kinds_resume_counts_match(self, engine_cls):
        ref_eng, ref_col = reference_run(engine_cls)
        eng = make_engine(engine_cls)
        col = TraceCollector()
        eng.add_sink(col)
        horizon, stops = 0.0, 0
        while True:
            horizon += 1.0
            # an event budget, then a time budget, then both
            budget = [{"max_events": 30}, {"max_time": horizon},
                      {"max_events": 30, "max_time": horizon}][stops % 3]
            try:
                eng.run(**budget)
                break
            except SimTimeout as exc:
                assert set(exc.budget) <= set(budget)
                stops += 1
        assert stops >= 6  # each kind of budget fired twice or more
        assert eng.events_processed == ref_eng.events_processed
        assert eng.finished_at == ref_eng.finished_at
        assert [seg_key(s) for s in col.segments] == [seg_key(s) for s in ref_col.segments]


class TestEnginesAgree:
    """Same budget, same program: the two engines stop in the same state
    with the same diagnostics."""

    @pytest.mark.parametrize("budgets", [
        [{"max_time": 1.0}, {"max_time": 1.0}, {"max_time": 0.5}, {"max_time": 3.0}],
        [{"max_events": 0}, {"max_events": 20}, {"max_events": 1}],
        [{"max_events": 17}, {"max_time": 2.0}, {"max_time": 2.0, "max_events": 0},
         {"max_time": 4.0, "max_events": 5}],
    ])
    def test_equal_diagnostics_at_every_stop(self, budgets):
        prod, ref = make_engine(Engine), make_engine(ReferenceEngine)
        for budget in budgets:
            assert timeout_state(prod, **budget) == timeout_state(ref, **budget)
        assert prod.run() == ref.run()
        assert prod.events_processed == ref.events_processed
