"""The agenda reads what the per-tick sweep read, whenever it mattered.

``PerformanceConsultantSearch`` evaluates a pair only when its agenda
says the answer can have changed; ``tests/reference_search.py`` is the
sweep it replaced, which evaluated every watched pair on every tick.
Every session below runs on both, and the record (masking only the
wall-clock metrics and ``emit_batches``) and the whole tracer stream
must be the same bytes:

* the four catalog apps × the standard and extended hypothesis trees ×
  three search configurations (stop when done, run to the end, and an
  off-grid one whose ticks, latencies and intervals share no multiple),
  undirected and directed by their own harvest;
* crash, hang, message and slow-node fault plans, degraded;
* late resource discovery, and a handle deleted behind the search's
  back;
* hand-built engines on which a concluded persistent pair's value moves
  faster than the flip bound allows: a process joins, crashes inside a
  wait, or hangs inside one that is recorded whole later, and a count
  metric.

Two more tests pin the tick that fires after the program ended (a known
quirk the agenda keeps) and that agenda entries are lower bounds under
rounding; the last checks the premise of the flip bound on seeded
random programs: between two ticks a time metric's value grows by at
most one second per matched process per second, and never shrinks.

The oracle is the sweep *and* the pair lifecycle as it was before it
was made cheap: ``ReferenceSearch`` runs on ``ReferenceManager``, so a
change to candidate handling, admission or probe bookkeeping is compared
with the straightforward code, not with itself.  One more test holds the
priced queue head to it: a head the gate blocks is re-priced when a
process joins.

``PYTHONPATH=src python tests/test_search_agenda.py`` (from the repo
root) runs the matrix at three more program lengths, a wider sweep than
tier-1 pays for; CI's ``tests-no-cache`` job runs it.
"""

import functools
import io
import json
import math
import random
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.apps.catalog import CATALOG_APPS, build_catalog_app
from repro.core import (
    DiagnosisSession,
    DirectiveSet,
    PriorityDirective,
    SearchConfig,
    extract_directives,
)
from repro.core.hypotheses import extended_tree, standard_tree
from repro.core.search import PerformanceConsultantSearch
from repro.core.shg import NodeState, Priority
from repro.faults import FaultPlan
from repro.metrics import CostModel, InstrumentationManager
from repro.obs import Tracer, deterministic_metrics
from repro.resources import ResourceSpace, whole_program
from repro.simulator import Compute, Engine, LatencyModel, Machine, Recv, Send
from repro.simulator.errors import SimTimeout

if __name__ == "__main__":  # run as a script: the ``tests`` package sits at the repo root
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.reference_search import ReferenceManager, ReferenceSearch, reference_search  # noqa: E402
from tests.test_profile_oracle import random_engine  # noqa: E402

TREES = {"standard": standard_tree, "extended": extended_tree}
CONFIGS = {
    "stop": SearchConfig(stop_engine_when_done=True),
    "no-stop": SearchConfig(),
    "off-grid": SearchConfig(min_interval=7.3, check_period=0.7,
                             insertion_latency=0.3, noise_band=0.01),
}
#: Program length per app for the tier-1 slice: long enough that
#: persistent pairs outlive their conclusion by many ticks, and that the
#: directed ocean, tester and anneal runs complete (and stop) early.
ITERATIONS = {"poisson": 120, "ocean": 150, "tester": 120, "anneal": 150}


def canonical(record):
    data = json.loads(json.dumps(record.to_dict()))
    data["metrics"] = deterministic_metrics(data["metrics"])
    del data["metrics"]["emit_batches"]  # slicing-dependent, not output
    return json.dumps(data)


def run(oracle, strike=None, **kwargs):
    """One traced session on the agenda or on the oracle: (canonical
    record, tracer stream, record, values computed).  *strike* is
    ``(time, pick)``: at that virtual time the handle of ``pick(search)``
    is deleted behind the search's back."""
    stream = io.StringIO()
    with reference_search() if oracle else nullcontext():
        active = DiagnosisSession(
            run_id="agenda", tracer=Tracer(stream=stream), **kwargs).begin()
    values = [0]
    read = active.instr.normalized_read

    def counted(handle):
        values[0] += 1
        return read(handle)
    active.instr.normalized_read = counted
    if strike is not None:
        at, pick = strike
        active.engine.schedule(
            at, lambda: active.instr.delete(pick(active.search).handle))
    active.step()
    record = active.result()
    return canonical(record), stream.getvalue(), record, values[0]


def same_text(got, want, what):
    """Fail with the first difference only: pytest's own diff of two
    long records takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"{what} differs at offset {at}:\n"
                    f"  agenda: ...{got[max(at - 300, 0):at + 200]}\n"
                    f"  sweep:  ...{want[max(at - 300, 0):at + 200]}", pytrace=False)


def assert_same(strike=None, **kwargs):
    """Run on both; returns the agenda's record and both value counts."""
    got, got_trace, record, got_values = run(False, strike, **kwargs)
    want, want_trace, _, want_values = run(True, strike, **kwargs)
    same_text(got, want, "record")
    same_text(got_trace, want_trace, "trace")
    assert got_values <= want_values
    return record, got_values, want_values


def matrix(iterations):
    for app in CATALOG_APPS:
        for tree in TREES:
            for config in CONFIGS:
                yield app, tree, config, iterations[app]


def check_case(app, tree, config, iterations):
    """Undirected, then directed by the undirected run's own harvest.
    Returns the directed record and its (agenda values, sweep values)."""
    kwargs = dict(hypotheses=TREES[tree](), config=CONFIGS[config])
    base, _, _ = assert_same(app=build_catalog_app(app, None, iterations), **kwargs)
    return assert_same(app=build_catalog_app(app, None, iterations),
                       directives=extract_directives(base), **kwargs)


@pytest.mark.parametrize("app,tree,config,iterations", list(matrix(ITERATIONS)))
def test_catalog_matrix(app, tree, config, iterations):
    check_case(app, tree, config, iterations)


@pytest.mark.parametrize("config", ["stop", "no-stop"])
def test_matrix_is_not_vacuous(config):
    """A directed poisson run concludes its persistent pairs long before
    it ends, and the agenda reads them a fraction as often; stopped when
    done, it stops long before the program would have ended."""
    record, got, want = check_case("poisson", "standard", config, 300)
    assert got * 4 < want
    assert sum(node["persistent"] for node in record.shg_nodes) > 20
    if config == "stop":
        assert record.finish_time == record.search_done_time < 600.0


# ----------------------------------------------------------------------
# the post-finish tick, fault plans, discovery, lost handles
# ----------------------------------------------------------------------
@functools.cache
def poisson_history():
    return extract_directives(DiagnosisSession(
        app=build_catalog_app("poisson", None, 150), config=SearchConfig()).run())


def test_post_finish_tick_rereads_persistent_pairs():
    """A known quirk, kept on purpose (ARCHITECTURE §3): the periodic tick
    queued before the program ended still fires after the final pass
    and re-reads every persistent pair, and the record keeps that read —
    a value taken up to ``check_period`` after the program ended.
    Changing it would move every run-to-the-end record and the
    thresholds harvested from them."""
    active = DiagnosisSession(app=build_catalog_app("poisson", None, 150),
                              directives=poisson_history(), config=SearchConfig()).begin()
    engine, search = active.engine, active.search
    reads = {}
    read = active.instr.normalized_read

    def logged(handle):
        value = read(handle)
        reads.setdefault(handle, []).append((engine.now, value[0]))
        return value
    active.instr.normalized_read = logged
    active.step()
    end = active.result().finish_time
    post = (int(end // 2.0) + 1) * 2.0  # the next check_period boundary
    watched = [n for n in search.shg if n.persistent and n.handle is not None]
    assert len(watched) > 20
    for node in watched:
        (final_at, _), (last_at, last) = reads[node.handle][-2:]
        assert (final_at, last_at) == (end, post)
        assert node.value == last


FAULTS = {
    "crash": FaultPlan(crash_at={"Poisson:2": 90.0}, max_virtual_time=400.0),
    "hang": FaultPlan(hang_at={"Poisson:3": 120.0}, max_virtual_time=400.0),
    "messages": FaultPlan(seed=3, drop=0.02, duplicate=0.05, delay=0.1,
                          delay_seconds=2.5, max_virtual_time=600.0),
    "slow-node": FaultPlan(slow_nodes={"node09": 3.0}, max_virtual_time=900.0),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("config", ["stop", "no-stop"])
def test_fault_plans_degrade_identically(fault, config):
    for directives in (None, poisson_history()):
        assert_same(app=build_catalog_app("poisson", None, 150),
                    directives=directives, config=CONFIGS[config],
                    faults=FAULTS[fault], on_failure="degrade")


@pytest.mark.parametrize("app", CATALOG_APPS)
def test_discover_resources(app):
    base = DiagnosisSession(app=build_catalog_app(app, None, 120)).run()
    for directives in (None, extract_directives(base)):
        assert_same(app=build_catalog_app(app, None, 120), directives=directives,
                    config=CONFIGS["no-stop"], discover_resources=True)


def first(search, predicate):
    return min((n for n in search.shg if predicate(n)), key=lambda n: n.node_id)


class TestLostHandle:
    """A handle deleted out of band reaches the agenda as a notification;
    the sweep found it by looking it up.  Same tick, same events."""

    def test_undecided_pair(self):
        assert_same(
            strike=(33.5, lambda s: first(s, lambda n: n.state is NodeState.ACTIVE)),
            app=build_catalog_app("poisson", None, 120), config=CONFIGS["no-stop"])

    def test_concluded_persistent_pair(self):
        """The one place the two may differ: the pair keeps the value of
        its last read, and the sweep read it on the tick before the loss
        while the agenda read it when it was last due.  Nothing in the
        product deletes a handle behind the search's back."""
        lost = []

        def pick(search):
            lost.append(first(
                search, lambda n: n.persistent and n.concluded and n.handle is not None))
            return lost[-1]
        kwargs = dict(app=build_catalog_app("poisson", None, 150),
                      directives=poisson_history(), config=CONFIGS["no-stop"])
        (got, got_trace, _, _), (want, want_trace, _, _) = (
            run(oracle, (301.5, pick), **kwargs) for oracle in (False, True))
        same_text(got_trace, want_trace, "trace")
        assert '"node-sample-lost"' in got_trace
        got, want = json.loads(got), json.loads(want)
        node = lost[0].node_id
        assert lost[1].node_id == node
        assert got["shg_nodes"][node]["value"] is not None
        got["shg_nodes"][node]["value"] = want["shg_nodes"][node]["value"]
        same_text(json.dumps(got), json.dumps(want), "record")


# ----------------------------------------------------------------------
# what voids the flip bound: a process joins, crashes or hangs; counts
# ----------------------------------------------------------------------
LAT = LatencyModel(alpha=0.0, beta=0.0, send_overhead=0.0, recv_overhead=0.0)
SYNC = "ExcessiveSyncWaitingTime"


def steps(*ops, times=1):
    """A program that runs *ops* *times* times inside one function."""
    def prog(proc):
        with proc.function("a.c", "f"):
            for _ in range(times):
                for op in ops:
                    yield op
    return prog


def hand_built(search_cls, programs, hypothesis, process=None, *, tree=standard_tree,
               overrides=None, strike=None, join=None, until=None, cost_limit=50.0):
    """Run processes ``p:1``.. (one node each) under *search_cls*, with
    (*hypothesis* : the whole program, or *process* alone) persistent by
    directive.  ``strike=(t, fn)`` calls ``fn(engine)`` at virtual time
    *t*; ``join=(t, program)`` adds one more process at *t* (between two
    ``run()`` calls: a process added inside one never starts); ``until``
    stops a run a hang wedged there and finalises it.  The oracle's
    search runs on the oracle's manager.  Returns the pair's node, the
    virtual times it was read at, and the SHG and trace."""
    names = [f"p:{i}" for i in range(1, len(programs) + 2)]
    eng = Engine(Machine.named("n", len(names)), latency=LAT)
    space = ResourceSpace()
    space.add("/Code/a.c/f")
    for i, name in enumerate(names):
        space.add(f"/Process/{name}")
        space.add(f"/Machine/n{i}")
    for i, program in enumerate(programs):
        eng.add_process(names[i], f"n{i}", program)
    config = SearchConfig(min_interval=10.0, check_period=1.0, insertion_latency=0.5,
                          cost_limit=cost_limit, noise_band=0.02,
                          threshold_overrides=overrides or {})
    manager_cls = ReferenceManager if search_cls is ReferenceSearch else InstrumentationManager
    instr = manager_cls(eng, space, cost_model=CostModel(perturb_per_unit=0.0),
                        cost_limit=config.cost_limit, insertion_latency=0.5)
    focus = whole_program(space)
    if process is not None:
        focus = focus.with_selection("Process", f"/Process/{process}")
    stream = io.StringIO()
    search = search_cls(
        eng, instr, space, hypotheses=tree(), config=config, tracer=Tracer(stream=stream),
        directives=DirectiveSet(priorities=[PriorityDirective(hypothesis, focus, Priority.HIGH)]))
    search.start()
    node = search.shg.find(hypothesis, focus)
    reads = []
    read = instr.normalized_read

    def logged(handle):
        if handle == node.handle:
            reads.append(eng.now)
        return read(handle)
    instr.normalized_read = logged
    if strike is not None:
        eng.schedule(strike[0], lambda: strike[1](eng))
    if join is not None:
        with pytest.raises(SimTimeout):
            eng.run(max_time=join[0])
        eng.add_process(names[-1], f"n{len(names) - 1}", join[1])
    if until is None:
        eng.run()
    else:
        with pytest.raises(SimTimeout):
            eng.run(max_time=until)
        search.final_pass(reason="wedged")
    return node, reads, json.dumps(search.shg.to_dicts()) + "\n" + stream.getvalue()


def flips(shg_and_trace):
    events = map(json.loads, shg_and_trace.splitlines()[1:])
    return [(e["t"], e["from"], e["to"]) for e in events if e["kind"] == "node-flip"]


class TestBoundVoided:
    """Each case moves a concluded persistent pair's value faster than
    the flip bound allows; the pair must be read on the next tick and
    flip there, exactly as under the sweep."""

    def both(self, *args, **kwargs):
        node, reads, got = hand_built(PerformanceConsultantSearch, *args, **kwargs)
        _, every_tick, want = hand_built(ReferenceSearch, *args, **kwargs)
        same_text(got, want, "SHG and trace")
        assert node.persistent
        return node, reads, flips(got), every_tick

    def test_late_process(self):
        """p:1 waits one second of every two on p:2: 0.25 of two
        processes' time.  At t=60.5 a purely computing p:3 joins and the
        fraction drops to 0.17, below the band: the denominator moved."""
        node, reads, flipped, every_tick = self.both(
            [steps(Recv("p:2", "t"), Compute(1.0), times=60),
             steps(Compute(2.0), Send("p:1", "t", 8), times=60)],
            SYNC, join=(60.5, steps(Compute(1.0), times=60)))
        assert flipped[:1] == [(61.0, "true", "false")]
        assert reads[reads.index(61.0) - 1] < 59.0  # it was not due
        assert len(reads) * 4 < len(every_tick)

    def test_crash_drops_an_in_flight_wait(self):
        """p:1 has waited on p:2 since t=10 when it is killed: the wait
        was never recorded, so its fraction falls from 0.9 to 0."""
        node, reads, flipped, every_tick = self.both(
            [steps(Compute(10.0), Recv("p:2", "t")),
             steps(Compute(300.0), Send("p:1", "t", 8))],
            SYNC, "p:1", strike=(100.5, lambda eng: eng.crash_process("p:1")))
        assert flipped[-1:] == [(101.0, "true", "false")]
        assert reads[reads.index(101.0) - 1] < 95.0  # it was not due
        # and from the crash on, no bound is trusted: read every tick
        assert reads[reads.index(101.0):] == every_tick[every_tick.index(101.0):]

    def test_hung_receive_is_recorded_whole_later(self):
        """p:1 hangs at t=100 inside a receive it entered at t=60, which
        drops the wait; the message still arrives at t=200 and the whole
        140 s wait lands at once, lifting the fraction from 0 to 0.7
        (and, with nothing more recorded, it decays below the band
        again)."""
        node, reads, flipped, _ = self.both(
            [steps(Compute(60.0), Recv("p:2", "t")),
             steps(Compute(200.0), Send("p:1", "t", 8))],
            SYNC, "p:1", overrides={SYNC: 0.6},
            strike=(100.0, lambda eng: eng.hang_process("p:1")), until=260.0)
        assert flipped[:1] == [(201.0, "false", "true")]
        assert node.state is NodeState.FALSE

    def test_count_metric(self):
        """A rate is no fraction: ten receives a second from t=30 lift
        p:1's synchronisation rate past 1.5 per second at t=36."""
        node, reads, flipped, every_tick = self.both(
            [steps(Compute(30.0), *[Recv("p:2", "t")] * 200),
             steps(Compute(30.0), *[Compute(0.1), Send("p:1", "t", 8)] * 200)],
            "FrequentSyncOperations", "p:1", tree=extended_tree)
        assert flipped == [(36.0, "false", "true")]
        assert reads == every_tick


def test_blocked_head_is_repriced_when_a_process_joins():
    """The gate admits one whole-program pair at a time (0.35 of a 0.4
    limit), so the queue head waits.  At t=5.5 a third process joins and
    the head's price rises to 0.5, past the limit: it must never be
    admitted at the price it was quoted before the join."""
    args = ([steps(Recv("p:2", "t"), Compute(1.0), times=60),
             steps(Compute(2.0), Send("p:1", "t", 8), times=60)], SYNC)
    kwargs = dict(join=(5.5, steps(Compute(1.0), times=60)), cost_limit=0.4)
    _, _, got = hand_built(PerformanceConsultantSearch, *args, **kwargs)
    _, _, want = hand_built(ReferenceSearch, *args, **kwargs)
    same_text(got, want, "SHG and trace")
    events = [json.loads(line) for line in got.splitlines()[1:]]
    admitted = [e["t"] for e in events if e["kind"] == "gate-admit"]
    assert admitted == [0.0]
    assert any(e["kind"] == "node-never-run" for e in events)


def test_agenda_entries_are_lower_bounds():
    """Rounding can put ``active_from + min_interval`` past the first
    instant at which ``now - active_from >= min_interval`` holds; the
    agenda takes a hair off every entry, so a tick at that instant still
    finds the pair due (and the exact test, not the entry, decides)."""
    rng = random.Random(1)
    search = DiagnosisSession(app=build_catalog_app("tester", None, 10)).begin().search
    node = search.shg.nodes[0]
    rounded_late = 0
    for _ in range(20000):
        active_from, interval = rng.uniform(0.0, 3000.0), rng.uniform(0.1, 50.0)
        first = active_from + interval
        while first - active_from >= interval:
            first = math.nextafter(first, 0.0)
        while first - active_from < interval:
            first = math.nextafter(first, math.inf)
        search._schedule(node, active_from + interval)
        assert search._due[node.node_id] <= first
        rounded_late += active_from + interval > first
    assert rounded_late


# ----------------------------------------------------------------------
# the premise of the flip bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_time_metric_moves_at_most_one_second_per_process_per_second(seed):
    """Between any two ticks, a time probe's value (accumulated plus
    in-progress) grows by at most ``len(processes) * dt``, and never
    shrinks: no process feeds one probe twice at one instant.  (Only an
    injected crash or hang, which ``Engine.disruptions`` counts, breaks
    this, and the search then reads every tick.)"""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    eng = random_engine(seed, n=n, iters=rng.randint(6, 14))
    space = ResourceSpace()
    for name in sorted(eng.procs):
        space.add(f"/Process/{name}")
    for node in ("node0", "node1"):
        space.add(f"/Machine/{node}")
    for code in ("k.f/kernel", "s.f/solve", "x.f/exchange", "m.f/main"):
        space.add(f"/Code/{code}")
    instr = InstrumentationManager(eng, space, cost_model=CostModel(perturb_per_unit=0.0),
                                   cost_limit=1e9, insertion_latency=rng.uniform(0.0, 0.3))
    whole = whole_program(space)
    foci = [whole, whole.with_selection("Machine", "/Machine/node0"),
            whole.with_selection("Code", "/Code/k.f/kernel"),
            whole.with_selection("Code", "/Code/x.f/exchange")]
    foci += [whole.with_selection("Process", f"/Process/{name}") for name in eng.procs]
    handles = [instr.request(metric, focus)
               for metric in ("cpu_time", "sync_wait_time", "io_wait_time", "exec_time")
               for focus in foci]
    last = {}

    def tick(engine):
        with instr.batched_reads():
            for handle in handles:
                value, _ = instr.read(handle)
                probe = instr.instrumentation(handle)
                if handle in last:
                    t0, v0 = last[handle]
                    where = (probe.metric.name, str(probe.focus), t0, engine.now)
                    assert value - v0 <= len(probe.processes) * (engine.now - t0) + 1e-9, where
                    assert value - v0 >= 0.0, where
                last[handle] = (engine.now, value)
    eng.schedule_periodic(rng.uniform(0.01, 0.2), tick)
    eng.run()
    assert eng.disruptions == 0
    assert any(instr.read(h)[0] > 0.0 for h in handles)


if __name__ == "__main__":
    for scale in (60, 200, 400):
        for case in matrix(dict.fromkeys(CATALOG_APPS, scale)):
            _, got, want = check_case(*case)
            print(*case, f"values {got} / {want}", flush=True)
