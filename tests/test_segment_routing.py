"""Property and unit tests for routed segment delivery.

The online hot path delivers each simulated time segment through
attribution cells built from an (activity, Code selection, Process
selection) bucket index instead of scanning every active probe.  The
full scan is ``tests/reference_delivery.py``; the property tests here
drive one manager with random probe sets, segment streams, and
mid-stream request/delete/decimate churn, fold the same segments through
the reference into a shadow, and require *byte-identical* accumulated
values.

Also covered: routing-index and cell maintenance on delete, the bounded
cell table (which reads of in-progress segments share), segment-parts
interning, matched-process recounts after late process discovery, the
descriptive lost-handle error, batched ``in_progress`` snapshots, and
the ``progress_every`` trace knob.
"""

import random

import pytest

from repro.apps.synthetic import make_pingpong
from repro.core import SearchConfig, run_diagnosis
from repro.metrics import CostModel, InstrumentationManager
from repro.metrics import instrumentation as instr_mod
from repro.obs import Tracer
from repro.resources import ResourceSpace, whole_program
from repro.simulator import Engine, LatencyModel, Machine
from repro.simulator import records as records_mod
from repro.simulator.records import Activity, TimeSegment, intern_parts
from tests.reference_delivery import deliver

LAT = LatencyModel(alpha=0.0, beta=0.0, send_overhead=0.0, recv_overhead=0.0)
METRIC_NAMES = (
    "exec_time", "cpu_time", "sync_wait_time", "io_wait_time",
    "sync_op_count", "io_op_count",
)
TAGS = ("3/0", "3/1", "9/0", "Barrier")


def idle(proc):
    return iter(())


def build_world(rng):
    """One engine + resource space + instrumentation manager."""
    n_procs = rng.randint(2, 8)
    n_nodes = rng.randint(1, n_procs)
    n_modules = rng.randint(1, 4)
    fns_per_module = rng.randint(1, 5)
    procs = [f"p:{i + 1}" for i in range(n_procs)]
    nodes = [f"n{i}" for i in range(n_nodes)]
    modules = [f"m{i}.c" for i in range(n_modules)]
    leaves = [
        (m, f"fn{i}_{k}")
        for i, m in enumerate(modules)
        for k in range(fns_per_module)
    ]

    engine = Engine(Machine.named("n", n_nodes), latency=LAT)
    for i, p in enumerate(procs):
        engine.add_process(p, nodes[i % n_nodes], idle)
    space = ResourceSpace()
    for mod, fn in leaves:
        space.add(f"/Code/{mod}/{fn}")
    for p in procs:
        space.add(f"/Process/{p}")
    for tag in TAGS:
        parts = records_mod.sync_tag_parts(tag)
        space.add("/" + "/".join(parts))
    return {
        "engine": engine,
        "space": space,
        "procs": procs,
        "nodes": nodes,
        "leaves": leaves,
        "manager": InstrumentationManager(
            engine, space,
            cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9,
            insertion_latency=rng.choice([0.0, 0.5]),
        ),
    }


def random_focus(rng, world):
    focus = whole_program(world["space"])
    if rng.random() < 0.7:
        mod, fn = rng.choice(world["leaves"])
        path = f"/Code/{mod}" if rng.random() < 0.3 else f"/Code/{mod}/{fn}"
        focus = focus.with_selection("Code", path)
    if rng.random() < 0.4:
        focus = focus.with_selection("Process", f"/Process/{rng.choice(world['procs'])}")
    if rng.random() < 0.2:
        focus = focus.with_selection("Machine", f"/Machine/{rng.choice(world['nodes'])}")
    if rng.random() < 0.2:
        tag = rng.choice(TAGS)
        parts = records_mod.sync_tag_parts(tag)
        depth = rng.randint(2, len(parts))
        focus = focus.with_selection("SyncObject", "/" + "/".join(parts[:depth]))
    return focus


def random_segment(rng, world, start):
    rank = rng.randrange(len(world["procs"]))
    mod, fn = rng.choice(world["leaves"])
    activity = rng.choice([Activity.COMPUTE, Activity.SYNC, Activity.IO])
    tag = rng.choice(TAGS) if activity is Activity.SYNC else None
    return TimeSegment.make(
        start=start,
        duration=rng.random() * 0.5,
        activity=activity,
        process=world["procs"][rank],
        node=world["nodes"][rank % len(world["nodes"])],
        module=mod,
        function=fn,
        tag=tag,
    )


def bucket_walk(mgr, seg):
    """What a per-segment walk of the routing index examines: every probe
    in a bucket at a (Code prefix, Process prefix) of the attribution."""
    code, proc = seg.parts["Code"], seg.parts["Process"]
    return sum(
        len(mgr._route.get((seg.activity.value, code[:i], proc[:j]), ()))
        for i in range(1, len(code) + 1)
        for j in range(1, len(proc) + 1)
    )


class TestRoutedScanEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_accumulate_byte_identical(self, seed, monkeypatch):
        """Random probes, random segments, random mid-stream churn: every
        probe's ``accumulated`` must agree bit-for-bit with the reference
        scan's shadow.

        Probes are requested, deleted and decimated while the attribution
        cells they belong to already exist, and the parts interning cache
        is dropped mid-run, so live cells and fresh ones (same
        attribution, new ``parts`` identity) are maintained side by
        side.  ``probes_examined`` must stay what a per-segment bucket
        walk would have counted."""
        monkeypatch.setattr(records_mod, "_PARTS_CACHE", {})
        rng = random.Random(seed)
        world = build_world(rng)
        mgr = world["manager"]
        probes = {}  # handle -> instr, kept past its delete
        shadow = {}  # handle -> what the reference scan accumulated
        churned_with_cells = {"request": 0, "delete": 0, "decimate": 0}
        walked = scanned = segments = 0

        def request():
            handle = mgr.request(
                rng.choice(METRIC_NAMES), random_focus(rng, world),
                persistent=rng.random() < 0.2,
            )
            probes[handle] = mgr.instrumentation(handle)

        def live():
            return sorted(h for h in probes if h in mgr._active)

        for _ in range(rng.randint(5, 25)):
            request()
        start = 0.0
        for _ in range(1500):
            roll = rng.random()
            if roll < 0.02:
                request()
                churned_with_cells["request"] += bool(mgr._cells)
            elif roll < 0.04 and mgr.active_count:
                mgr.delete(rng.choice(live()))
                churned_with_cells["delete"] += bool(mgr._cells)
            elif roll < 0.05 and mgr.active_count:
                mgr.decimate(rng.choice(live()))
                churned_with_cells["decimate"] += bool(mgr._cells)
            elif roll < 0.055:
                records_mod._PARTS_CACHE.clear()
            else:
                seg = random_segment(rng, world, start)
                start += rng.random() * 0.05
                walked += bucket_walk(mgr, seg)
                scanned += deliver(mgr, seg, shadow)
                mgr.record(seg)
                segments += 1

        assert probes
        assert all(churned_with_cells.values()), churned_with_cells
        for handle, instr in probes.items():
            assert instr.accumulated == shadow.get(handle, 0.0), handle
        assert any(shadow.values())
        # every segment went through a cell, and examined what a bucket
        # walk would have (fewer probes than the full scan)
        assert mgr.segments_routed == segments > 0
        assert mgr.probes_examined == walked <= scanned
        # interning was dropped mid-run: some attribution has two cells
        attributions = {
            (tuple(sorted(c.parts.items())), c.activity)
            for c in mgr._cells.values()
        }
        assert len(attributions) < len(mgr._cells)


class TestRoutingIndexMaintenance:
    def build(self):
        rng = random.Random(99)
        world = build_world(rng)
        return world, world["manager"]

    def test_delete_clears_buckets(self):
        world, mgr = self.build()
        handles = [
            mgr.request("cpu_time", random_focus(random.Random(i), world))
            for i in range(10)
        ]
        assert mgr._route
        rng = random.Random(5)
        for i in range(50):
            mgr.record(random_segment(rng, world, float(i)))
        assert any(c.probes for c in mgr._cells.values())
        for h in handles:
            mgr.delete(h)
        assert mgr._route == {}
        assert all(not c.probes and c.examined == 0 for c in mgr._cells.values())

    def test_deleted_probe_stops_accumulating(self):
        world, mgr = self.build()
        mod, fn = world["leaves"][0]
        focus = whole_program(world["space"]).with_selection(
            "Code", f"/Code/{mod}/{fn}")
        handle = mgr.request("cpu_time", focus)
        instr = mgr.instrumentation(handle)
        seg = TimeSegment.make(
            start=1.0, duration=0.5, activity=Activity.COMPUTE,
            process=world["procs"][0], node=world["nodes"][0],
            module=mod, function=fn,
        )
        mgr.record(seg)
        before = instr.accumulated
        assert before > 0.0
        mgr.delete(handle)
        mgr.record(seg)
        assert instr.accumulated == before

    def test_cell_table_stays_bounded(self, monkeypatch):
        """The cell table is capped, delivery survives a wholesale drop,
        and ``read()`` finds the probes an in-progress segment feeds
        through the same cells ``record()`` delivers through."""
        monkeypatch.setattr(instr_mod, "_MEMO_MAX", 16)
        rng = random.Random(7)
        world = build_world(rng)
        mgr = world["manager"]
        engine = world["engine"]
        pending = []
        monkeypatch.setattr(engine, "in_progress", lambda: pending)
        foci = [random_focus(rng, world) for _ in range(4)]
        handles = [mgr.request(rng.choice(METRIC_NAMES), focus)
                   for focus in foci]
        shadow = {}
        for i in range(200):
            seg = random_segment(rng, world, float(i))
            deliver(mgr, seg, shadow)
            mgr.record(seg)
            # a time probe's read adds a pending segment's overlap
            # exactly when the naive scan would deliver it
            pending[:] = [random_segment(rng, world, float(i))]
            engine.now = i + 2.0
            gain = {}
            deliver(mgr, pending[0], gain)
            for h in handles:
                probe = mgr.instrumentation(h)
                expect = probe.accumulated
                if probe.metric.kind == "time":
                    expect += gain.get(h, 0.0)
                assert mgr.read(h)[0] == expect
            assert len(mgr._cells) <= 16
            # the index holds live cells only: it is dropped with the table
            live = {id(c) for c in mgr._cells.values()}
            assert all(id(c) in live
                       for cells in mgr._cell_index.values() for c in cells)
        assert any(mgr.instrumentation(h).accumulated > 0.0 for h in handles)
        for h in handles:
            assert mgr.instrumentation(h).accumulated == shadow.get(h, 0.0)
        assert mgr.probes_examined > 0

    def test_intern_parts_shares_and_bounds(self, monkeypatch):
        a = intern_parts("p:1", "n0", "m.c", "f", None)
        b = intern_parts("p:1", "n0", "m.c", "f", None)
        assert a is b
        assert a["Code"] == ("Code", "m.c", "f")
        monkeypatch.setattr(records_mod, "_PARTS_CACHE_MAX", 4)
        records_mod._PARTS_CACHE.clear()
        for i in range(40):
            intern_parts(f"p:{i}", "n0", "m.c", "f", None)
            assert len(records_mod._PARTS_CACHE) <= 4


class TestProcessTableSync:
    def test_late_discovery_recounts_matched_processes(self):
        engine = Engine(Machine.named("n", 2), latency=LAT)
        engine.add_process("p:1", "n0", idle)
        space = ResourceSpace()
        space.add("/Process/p:1")
        space.add("/Process/p:2")
        space.add("/Machine/n0")
        space.add("/Machine/n1")
        mgr = InstrumentationManager(
            engine, space, cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9, insertion_latency=0.0,
        )
        handle = mgr.request("exec_time", whole_program(space))
        instr = mgr.instrumentation(handle)
        assert instr.processes == ("p:1",)
        charged = instr.charged
        engine.add_process("p:2", "n1", idle)
        mgr.normalized_read(handle)  # triggers the version-gated recount
        assert instr.processes == ("p:1", "p:2")
        # the cost charge is frozen at the request-time set
        assert instr.charged == charged == ("p:1",)

    def test_lost_handle_error_is_descriptive(self):
        engine = Engine(Machine.named("n", 1), latency=LAT)
        engine.add_process("p:1", "n0", idle)
        space = ResourceSpace()
        space.add("/Process/p:1")
        mgr = InstrumentationManager(engine, space)
        with pytest.raises(KeyError, match="unknown or deleted instrumentation handle 12345"):
            mgr.normalized_read(12345)
        with pytest.raises(KeyError, match="unknown or deleted instrumentation handle 12345"):
            mgr.read(12345)


class TestBatchedReads:
    def test_one_snapshot_per_pass(self):
        from repro.simulator import Compute

        def busy(proc):
            with proc.function("m.c", "f"):
                yield Compute(2.0)

        engine = Engine(Machine.named("n", 1), latency=LAT)
        engine.add_process("p:1", "n0", busy)
        space = ResourceSpace()
        space.add("/Process/p:1")
        space.add("/Code/m.c/f")
        mgr = InstrumentationManager(
            engine, space, cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9, insertion_latency=0.0,
        )
        whole = whole_program(space)
        handles = [
            mgr.request("exec_time", whole),
            mgr.request("cpu_time", whole.with_selection("Code", "/Code/m.c/f")),
            mgr.request("sync_wait_time", whole),
        ]
        engine.run(max_time=1e9)  # reads must see elapsed > 0
        calls = {"n": 0}
        original = engine.in_progress

        def counting():
            calls["n"] += 1
            return original()

        engine.in_progress = counting
        # the snapshot is taken by the first read that needs it: a pass
        # that only asks how much data a handle has seen takes none
        with mgr.batched_reads():
            assert all(mgr.elapsed(h) > 0.0 for h in handles)
        assert calls["n"] == 0
        with mgr.batched_reads():
            for h in handles:
                mgr.read(h)
        assert calls["n"] == 1
        # outside the block each read snapshots for itself again
        for h in handles:
            mgr.read(h)
        assert calls["n"] == 1 + len(handles)


class TestProgressEvery:
    def run_count(self, progress_every):
        tracer = Tracer()
        run_diagnosis(
            make_pingpong(iterations=40), run_id="x",
            config=SearchConfig(progress_every=progress_every),
            tracer=tracer,
        )
        return len(tracer.events("progress"))

    def test_progress_event_decimated(self):
        every_tick = self.run_count(1)
        every_fifth = self.run_count(5)
        assert every_tick > every_fifth >= 1
        # decimation by 5 drops all but every fifth tick's event
        assert every_fifth == every_tick // 5
