"""A finished diagnosis frees itself: no reference cycles.

A diagnosis session's object graph — engine, processes and their
programs, instrumentation manager, search, fault injector, resource
hierarchies, stack snapshots — holds no reference cycle, so reference
counting frees all of it the moment its last holder drops it, however
the session ended.  Each case runs once to warm the process (first-use
imports and module caches), then again with the cyclic collector off,
dropping everything it returned: no session object may still be alive,
and ``gc.collect()`` must find nothing.  (The first check is the one
that sees a suspended program: a generator's finalizer breaks its cycle
while the collector runs, so ``gc.collect()`` does not count it.)  A
served request may leave asyncio's own cycles behind; there no session
object may be among them.
"""

import gc

import pytest

import repro
from repro.apps.catalog import build_catalog_app
from repro.core import DiagnosisSession, SearchConfig, extract_directives
from repro.core.search import PerformanceConsultantSearch
from repro.core.shg import SHGNode
from repro.faults import FaultPlan
from repro.faults.plan import FaultPlanError
from repro.metrics.instrumentation import InstrumentationManager
from repro.obs.trace import Tracer
from repro.resources.resource import Resource
from repro.server import ServerClient, ServerThread
from repro.simulator import Compute, Machine
from repro.simulator.engine import Engine
from repro.simulator.errors import SimTimeout
from repro.simulator.process import SimProcess

ITERATIONS = 300


def app(iterations=ITERATIONS):
    return build_catalog_app("poisson", "A", iterations)


SESSION_TYPES = (Engine, SimProcess, PerformanceConsultantSearch,
                 InstrumentationManager, SHGNode, Resource)


def census():
    return sum(isinstance(o, SESSION_TYPES) for o in gc.get_objects())


def left_behind(case):
    """After a warm-up: the session objects *case* leaves alive once it
    returned, and the objects it leaves for the cyclic collector."""
    case()
    # Cycles earlier tests left behind (a finalizer can free more on a
    # second pass) must not count against this case.
    while gc.collect():
        pass
    gc.disable()
    try:
        before = census()
        case()
        return census() - before, gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def directives():
    return extract_directives([DiagnosisSession(app=app()).run()])


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("lifetime") / "runs"
    repro.diagnose(app(), store=str(root), pool=None)
    return str(root)


def run(**session):
    DiagnosisSession(app=session.pop("app", None) or app(), **session).run()


class TestSessionsFreeThemselves:
    def test_undirected(self):
        assert left_behind(run) == (0, 0)

    def test_directed(self, directives):
        assert left_behind(lambda: run(directives=directives)) == (0, 0)

    def test_sliced(self):
        def case():
            active = DiagnosisSession(app=app()).begin()
            while active.step(2000):
                pass
            active.result()
        assert left_behind(case) == (0, 0)

    def test_stopped_with_processes_suspended(self):
        def case():
            active = DiagnosisSession(app=app(1000), config=SearchConfig(
                stop_engine_when_done=True, cost_limit=50.0)).begin()
            active.step()
            assert active.engine.live_count() > 0  # programs left suspended
            active.result()
        assert left_behind(case) == (0, 0)

    def test_engine_runs_to_the_end(self):
        config = SearchConfig(stop_engine_when_done=False)
        assert left_behind(lambda: run(config=config)) == (0, 0)

    def test_degraded_by_the_watchdog(self):
        def case():
            record = DiagnosisSession(
                app=app(), on_failure="degrade", max_events=500).run()
            assert record.status == "degraded"
        assert left_behind(case) == (0, 0)

    def test_raised_by_the_watchdog(self):
        def case():
            try:
                run(on_failure="raise", max_events=500)
            except SimTimeout:
                pass
            else:
                pytest.fail("the watchdog did not fire")
        assert left_behind(case) == (0, 0)

    def test_fault_plan(self):
        victim = sorted(app().make_engine().procs)[1]
        node = app().placement[victim]
        plan = FaultPlan(seed=3, delay=0.3, delay_seconds=0.5,
                         slow_nodes={node: 1.5}, crash_at={victim: 50.0},
                         max_events=20_000)

        def case():
            record = DiagnosisSession(
                app=app(), faults=plan, on_failure="degrade").run()
            assert record.status == "degraded"
        assert left_behind(case) == (0, 0)

    def test_fault_plan_rejected_in_begin(self):
        plan = FaultPlan(crash_at={"no-such-process": 1.0})

        def case():
            with pytest.raises(FaultPlanError):
                DiagnosisSession(app=app(), faults=plan).begin()
        assert left_behind(case) == (0, 0)

    def test_traced(self):
        assert left_behind(lambda: run(tracer=Tracer())) == (0, 0)

    def test_traced_with_the_tracer_held(self):
        held = []

        def case():
            tracer = Tracer()
            run(tracer=tracer)
            held.append(tracer)
        assert left_behind(case) == (0, 0)
        # once the engine is gone the clock reads the last time it saw
        tracer = held[-1]
        last = tracer.events()[-1].t
        assert last >= tracer.events("run-end")[-1].t > 0
        tracer.emit("after")
        assert tracer.events("after")[0].t == last

    def test_discovering_resources(self):
        assert left_behind(lambda: run(discover_resources=True)) == (0, 0)

    def test_facade_writing_through(self, archive):
        def case():
            repro.diagnose(app(), history=archive, store=archive, pool=None)
        assert left_behind(case) == (0, 0)


def test_recorded_crash_frees_its_engine():
    def crashing(proc):
        yield Compute(1.0)
        raise RuntimeError("simulated segfault")

    def case():
        engine = Engine(Machine.named("n", 1), crash_policy="record")
        engine.add_process("p", "n0", crashing)
        engine.run()
        crash = engine.procs["p"].crash
        assert type(crash) is RuntimeError
        assert str(crash) == "simulated segfault"
    assert left_behind(case) == (0, 0)


def test_served_request_leaves_no_session_object():
    with ServerThread() as server, \
            ServerClient(server.host, server.port) as client:
        def case():
            client.diagnose("poisson", version="A", iterations=ITERATIONS)
        case()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            case()
            gc.collect()
            stranded = sorted({type(o).__name__ for o in gc.garbage
                               if isinstance(o, SESSION_TYPES)})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
    assert stranded == []
