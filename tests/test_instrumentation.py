"""Tests for the dynamic instrumentation manager."""

import math
import random

import pytest

from repro.metrics import CostModel, InstrumentationManager, matched_processes
from repro.resources import Focus, ResourceSpace, whole_program
from repro.simulator import (
    Compute,
    Engine,
    IoOp,
    LatencyModel,
    Machine,
    Recv,
    Send,
)

LAT = LatencyModel(alpha=0.0, beta=0.0, send_overhead=0.0, recv_overhead=0.0)


def build(two_procs=False, cost_model=None, latency=0.0, cost_limit=100.0):
    """Engine with one (or two) processes, space, and a manager."""
    n = 2 if two_procs else 1
    eng = Engine(Machine.named("n", n), latency=LAT)
    space = ResourceSpace()
    space.add("/Code/m.c/f")
    space.add("/Code/m.c/g")
    for i in range(n):
        space.add(f"/Machine/n{i}")
        space.add(f"/Process/p:{i}")
    space.add("/SyncObject/Message/t/0")
    # perturbation off by default so timing assertions stay exact
    mgr = InstrumentationManager(
        eng, space, cost_model=cost_model or CostModel(perturb_per_unit=0.0),
        cost_limit=cost_limit, insertion_latency=latency,
    )
    return eng, space, mgr


def focus(space, **sels):
    f = whole_program(space)
    for h, p in sels.items():
        f = f.with_selection(h, p)
    return f


class TestMatchedProcesses:
    def test_whole_program_matches_all(self):
        eng, space, mgr = build(two_procs=True)

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        eng.add_process("p:1", "n1", prog)
        assert set(matched_processes(whole_program(space), eng)) == {"p:0", "p:1"}

    def test_process_constraint(self):
        eng, space, mgr = build(two_procs=True)

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        eng.add_process("p:1", "n1", prog)
        f = focus(space, Process="/Process/p:1")
        assert matched_processes(f, eng) == ("p:1",)

    def test_machine_constraint(self):
        eng, space, mgr = build(two_procs=True)

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        eng.add_process("p:1", "n1", prog)
        f = focus(space, Machine="/Machine/n0")
        assert matched_processes(f, eng) == ("p:0",)

    def test_conflicting_constraints_match_nothing(self):
        eng, space, mgr = build(two_procs=True)

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        eng.add_process("p:1", "n1", prog)
        f = focus(space, Machine="/Machine/n0", Process="/Process/p:1")
        assert matched_processes(f, eng) == ()


class TestAccumulation:
    def test_cpu_time_whole_program(self):
        eng, space, mgr = build()

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(3.0)

        eng.add_process("p:0", "n0", prog)
        h = mgr.request("cpu_time", whole_program(space))
        eng.run()
        value, elapsed = mgr.read(h)
        assert value == pytest.approx(3.0)
        assert elapsed == pytest.approx(3.0)

    def test_focus_filters_function(self):
        eng, space, mgr = build()

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)
            with proc.function("m.c", "g"):
                yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        h = mgr.request("cpu_time", focus(space, Code="/Code/m.c/f"))
        eng.run()
        value, _ = mgr.read(h)
        assert value == pytest.approx(2.0)

    def test_insertion_latency_skips_early_time(self):
        eng, space, mgr = build(latency=1.0)

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(3.0)

        eng.add_process("p:0", "n0", prog)
        h = mgr.request("cpu_time", whole_program(space))
        eng.run()
        value, elapsed = mgr.read(h)
        # active from t=1: sees 2 of the 3 seconds
        assert value == pytest.approx(2.0)
        assert elapsed == pytest.approx(2.0)

    def test_mid_run_request_partial_overlap(self):
        eng, space, mgr = build()

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)
                yield Compute(2.0)

        eng.add_process("p:0", "n0", prog)
        eng.schedule(1.0, lambda: setattr(eng, "_h", mgr.request("cpu_time", whole_program(space))))
        eng.run()
        value, elapsed = mgr.read(eng._h)
        assert value == pytest.approx(3.0)  # half of first segment + second

    def test_read_includes_in_progress_sync(self):
        eng, space, mgr = build(two_procs=True)

        def p0(proc):
            with proc.function("m.c", "f"):
                yield Compute(10.0)
                yield Send("p:1", "t/0", 0)

        def p1(proc):
            with proc.function("m.c", "g"):
                yield Recv("p:0", "t/0")

        eng.add_process("p:0", "n0", p0)
        eng.add_process("p:1", "n1", p1)
        h = mgr.request("sync_wait_time", whole_program(space))
        readings = []
        eng.schedule(4.0, lambda: readings.append(mgr.read(h)))
        eng.run()
        value, elapsed = readings[0]
        assert value == pytest.approx(4.0)  # p:1 has been waiting 4s
        assert elapsed == pytest.approx(4.0)

    def test_delete_stops_accumulation(self):
        eng, space, mgr = build()

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)
                yield Compute(2.0)

        eng.add_process("p:0", "n0", prog)
        h = mgr.request("cpu_time", whole_program(space))
        eng.schedule(2.0, lambda: mgr.delete(h))
        eng.run()
        with pytest.raises(KeyError):
            mgr.read(h)

    def test_normalized_read_multiproc(self):
        eng, space, mgr = build(two_procs=True)

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(4.0)

        eng.add_process("p:0", "n0", prog)
        eng.add_process("p:1", "n1", prog)
        h = mgr.request("cpu_time", whole_program(space))
        eng.run()
        frac, elapsed = mgr.normalized_read(h)
        # both procs computing 100% of the time -> fraction 1.0
        assert frac == pytest.approx(1.0)


class TestCostAndPerturbation:
    def test_gate_accounts_requests_and_deletes(self):
        eng, space, mgr = build(cost_model=CostModel(base=0.1, per_process=0.2))

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        h = mgr.request("cpu_time", whole_program(space))
        assert mgr.total_cost == pytest.approx(0.3)
        mgr.delete(h)
        assert mgr.total_cost == pytest.approx(0.0)
        assert mgr.peak_cost == pytest.approx(0.3)

    def test_perturbation_follows_matched_processes(self):
        cm = CostModel(base=0.0, per_process=1.0, perturb_per_unit=0.1, max_overhead=10.0)
        eng, space, mgr = build(two_procs=True, cost_model=cm)

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        eng.add_process("p:1", "n1", prog)
        mgr.request("cpu_time", focus(space, Process="/Process/p:0"))
        assert eng.perturbation("p:0") == pytest.approx(0.1)
        assert eng.perturbation("p:1") == pytest.approx(0.0)

    def test_decimate_releases_cost_keeps_reading(self):
        eng, space, mgr = build(
            cost_model=CostModel(base=0.1, per_process=0.2, perturb_per_unit=0.0)
        )

        def prog(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)
                yield Compute(2.0)

        eng.add_process("p:0", "n0", prog)
        h = mgr.request("cpu_time", whole_program(space), persistent=True)
        eng.schedule(2.0, lambda: mgr.decimate(h))
        eng.run()
        assert mgr.total_cost == pytest.approx(0.0)
        value, _ = mgr.read(h)
        assert value == pytest.approx(4.0)  # still accumulating after decimation

    def test_total_requests_counter(self):
        eng, space, mgr = build()

        def prog(proc):
            yield Compute(1.0)

        eng.add_process("p:0", "n0", prog)
        mgr.request("cpu_time", whole_program(space))
        mgr.request("sync_wait_time", whole_program(space))
        assert mgr.total_requests == 2
        assert mgr.active_count == 2


class SteppedCost(CostModel):
    """A cost model whose overhead is not proportional to the carried
    cost, and not zero at zero cost."""

    def overhead_fraction(self, carried_cost):
        return 0.002 + min(math.floor(carried_cost * 10.0) / 400.0, 0.3)


def idle(proc):
    return iter(())


class TestPushedPerturbation:
    def carried(self, mgr, name):
        return mgr._per_proc_cost.get(name, 0.0)

    def check(self, eng, mgr):
        cm = mgr.cost_model
        for name in eng.procs:
            carried = self.carried(mgr, name)
            assert eng.perturbation(name) == cm.overhead_fraction(carried), name
            charges = sum(probe.cost for probe in mgr._active.values()
                          if name in probe.charged)
            assert carried == pytest.approx(charges, abs=1e-12), name

    def test_delete_releases_only_what_was_charged(self):
        """A probe whose focus matched no process when it was requested
        charged nobody; once its process joins and the matched set is
        recounted, deleting it must leave that process's cost alone."""
        eng = Engine(Machine.named("n", 2), latency=LAT)
        eng.add_process("p:0", "n0", idle)
        space = ResourceSpace()
        for name, node in (("p:0", "n0"), ("p:1", "n1")):
            space.add(f"/Process/{name}")
            space.add(f"/Machine/{node}")
        mgr = InstrumentationManager(eng, space, cost_limit=100.0)
        early = mgr.request("cpu_time", focus(space, Process="/Process/p:1"))
        assert mgr.instrumentation(early).charged == ()
        eng.add_process("p:1", "n1", idle)
        mgr.pair_cost(whole_program(space))  # the recount
        assert mgr.instrumentation(early).processes == ("p:1",)
        mgr.request("cpu_time", whole_program(space))  # 0.05 + 2 x 0.15
        assert self.carried(mgr, "p:1") == pytest.approx(0.35)
        before = eng.perturbation("p:1")
        assert before == pytest.approx(0.0035)
        mgr.delete(early)
        assert self.carried(mgr, "p:1") == pytest.approx(0.35)
        assert eng.perturbation("p:1") == before
        self.check(eng, mgr)

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbation_tracks_carried_cost_under_churn(self, seed):
        """Seeded request/delete/decimate churn, with a process joining
        half way: after every operation each process's perturbation is
        the cost model's function of its carried cost, and that cost is
        what its live probes were charged."""
        rng = random.Random(seed)
        eng = Engine(Machine.named("n", 3), latency=LAT)
        names = [f"p:{i}" for i in range(4)]
        space = ResourceSpace()
        for i, name in enumerate(names):
            space.add(f"/Process/{name}")
            space.add(f"/Machine/n{i % 3}")
        for name in names[:3]:
            eng.add_process(name, f"n{names.index(name) % 3}", idle)
        mgr = InstrumentationManager(
            eng, space, cost_model=SteppedCost(), cost_limit=1e9)
        foci = [whole_program(space)] + [
            focus(space, Process=f"/Process/{name}") for name in names
        ] + [focus(space, Machine=f"/Machine/n{i}") for i in range(3)]
        self.check(eng, mgr)
        for step in range(300):
            if step == 100:
                eng.add_process("p:3", "n0", idle)
                mgr.pair_cost(whole_program(space))
            live = sorted(mgr._active)
            roll = rng.random()
            if roll < 0.5 or not live:
                mgr.request(rng.choice(["cpu_time", "sync_wait_time"]),
                            rng.choice(foci), persistent=rng.random() < 0.3)
            elif roll < 0.8:
                mgr.delete(rng.choice(live))
            else:
                mgr.decimate(rng.choice(live))
            self.check(eng, mgr)
        assert eng.perturbation("p:3") != SteppedCost().overhead_fraction(0.0)
