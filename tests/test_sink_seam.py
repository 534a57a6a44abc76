"""The engine→sink seam against per-segment delivery.

The engine hands every sink its flush batch of ``(prototype, start,
duration)`` triples, and the two hot sinks — the instrumentation manager
and the profile — fold prototypes directly, memoised by identity.  The
oracle is delivery one materialised segment at a time: a twin manager
and profile registered behind the engine's record-only adaptor, the
naive probe scan of ``tests/reference_delivery.py`` and the naive
profile fold of ``tests/test_profile_oracle.py``.  The twin manager is
``tests/reference_search.ReferenceManager``, which re-derives each
probe's routing keys at request and at delete, so the cell bookkeeping
of ``request()``/``delete()`` is held to it too.

Seeded random programs run with probe churn, perturbation, a sink added
mid-run, and crashes, hangs or message filters.  Both sides must agree
to the bit on every probe accumulator, ``probes_examined``,
``segments_routed``, ``FlatProfile.to_dict()`` and every in-progress
read, inside and outside ``batched_reads()`` — also with both memo caps
at 16, so cells, prototype memos and in-progress snapshots are dropped
mid-run.
"""

import json
import random

import pytest

from repro.metrics import CostModel, InstrumentationManager
from repro.metrics import instrumentation as instr_mod
from repro.metrics import profile as profile_mod
from repro.metrics.profile import ProfileCollector
from repro.resources import ResourceSpace, whole_program
from repro.simulator import (
    Compute,
    Engine,
    Machine,
    SimDeadlock,
    SimTimeout,
    TraceCollector,
)
from repro.simulator import records as records_mod
from repro.simulator.records import Activity, TimeSegment, segment_prototype
from tests.reference_delivery import ShadowSink, deliver, feed, naive_read
from tests.reference_engine import ReferenceEngine
from tests.reference_search import ReferenceManager
from tests.test_engine_fastpath import ring_builder, seg_key
from tests.test_profile_oracle import NaiveProfile, naive_bytes, random_engine
from tests.test_segment_routing import (
    LAT,
    METRIC_NAMES,
    TAGS,
    build_world,
    random_focus,
    random_segment,
)

#: The functions ``random_engine`` programs run in.
LEAVES = [("k.f", "kernel"), ("s.f", "solve"), ("m.f", "main"),
          ("m.f", "via_a"), ("m.f", "via_b"), ("x.f", "exchange"),
          ("io.f", "dump")]


class RecordOnly:
    """A sink that defines only ``record(segment)``: each segment goes
    on to *sink* as a batch of one."""

    def __init__(self, sink):
        self.record = lambda segment: feed(sink, segment)


def fed_per_segment(engine, sink):
    """Re-register *sink*, a manager just built on *engine*, behind the
    engine's record-only adaptor.  A manager registers itself last, and
    through a link that holds it weakly."""
    link = engine._sinks.pop()
    assert link._manager() is sink
    engine.add_sink(RecordOnly(sink))


def profile_bytes(profile):
    return json.dumps(profile.to_dict())


def world_of(engine):
    space = ResourceSpace()
    for mod, fn in LEAVES:
        space.add(f"/Code/{mod}/{fn}")
    for name, proc in engine.procs.items():
        space.add(f"/Process/{name}")
        space.add(f"/Machine/{proc.node}")
    for tag in TAGS:
        space.add("/" + "/".join(records_mod.sync_tag_parts(tag)))
    return {
        "space": space,
        "leaves": LEAVES,
        "procs": list(engine.procs),
        "nodes": sorted({p.node for p in engine.procs.values()}),
    }


class Side:
    """One manager and one profile on the engine: fed batches, or fed
    materialised segments one at a time."""

    def __init__(self, engine, space, batched):
        manager_cls = InstrumentationManager if batched else ReferenceManager
        self.mgr = manager_cls(
            engine, space, cost_model=CostModel(perturb_per_unit=0.05),
            cost_limit=1e9, insertion_latency=0.5,
        )
        self.profile = ProfileCollector()
        if batched:
            engine.add_sink(self.profile)
        else:
            fed_per_segment(engine, self.mgr)
            engine.add_sink(RecordOnly(self.profile))
        self.probes = {}  # handle -> probe, kept past its delete


def duplicate_or_delay(msg):
    k = int(msg.send_time * 1000) % 3
    if k == 0:
        return [0.0, 0.5]
    if k == 1:
        return [0.1]
    return [0.0]


FAULTS = {
    "none": lambda eng: None,
    "crash": lambda eng: eng.schedule(5.3, lambda: eng.crash_process("p1")),
    "hang": lambda eng: eng.schedule(6.7, lambda: eng.hang_process("p2")),
    "filter": lambda eng: eng.add_message_filter(duplicate_or_delay),
}


def drive(seed, fault):
    """Run one seeded program with both sides and every oracle attached;
    returns what the final assertions compare."""
    rng = random.Random(seed)
    eng = random_engine(seed, iters=12)
    world = world_of(eng)
    batched = Side(eng, world["space"], batched=True)
    single = Side(eng, world["space"], batched=False)
    scan = ShadowSink(batched.mgr)
    eng.add_sink(scan)
    naive = NaiveProfile()
    eng.add_sink(naive)
    late = {}
    FAULTS[fault](eng)

    def add_late_sinks():
        late["profile"] = ProfileCollector()
        late["trace"] = TraceCollector()
        eng.add_sink(late["profile"])
        eng.add_sink(late["trace"])

    eng.schedule(0.9, add_late_sinks)

    def check_reads():
        live = sorted(batched.mgr._active)
        assert live == sorted(single.mgr._active)
        want = {h: naive_read(batched.mgr, h, scan.shadow) for h in live}
        for h in live:
            assert batched.mgr.read(h) == want[h]
            assert single.mgr.read(h) == want[h]
        with batched.mgr.batched_reads(), single.mgr.batched_reads():
            for h in live:
                assert batched.mgr.read(h) == want[h]
                assert single.mgr.read(h) == want[h]
            # memo entries and snapshots only ever hold live cells
            for side in (batched, single):
                mgr = side.mgr
                snap = mgr._in_progress_snapshot
                held = [c for _, c in mgr._proto_cells.values()]
                held += [c for c, _, _ in snap.entries] if snap else []
                assert all(mgr._cells.get((id(c.parts), id(c.activity))) is c
                           for c in held)

    def request(metric, focus, persistent=False):
        handles = {side.mgr.request(metric, focus, persistent)
                   for side in (batched, single)}
        (handle,) = handles  # both sides number alike
        for side in (batched, single):
            side.probes[handle] = side.mgr.instrumentation(handle)

    for metric in ("exec_time", "sync_wait_time"):
        request(metric, whole_program(world["space"]))

    def churn(_engine):
        check_reads()
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            live = sorted(batched.mgr._active)
            if roll < 0.6 or not live:
                request(rng.choice(METRIC_NAMES), random_focus(rng, world),
                        rng.random() < 0.2)
            elif roll < 0.85:
                handle = rng.choice(live)
                for side in (batched, single):
                    side.mgr.delete(handle)
            else:
                handle = rng.choice(live)
                for side in (batched, single):
                    side.mgr.decimate(handle)
        check_reads()

    eng.schedule_periodic(0.25, churn)
    try:
        eng.run(max_time=30.0)
    except (SimDeadlock, SimTimeout):
        assert fault != "none"
    check_reads()
    return eng, batched, single, scan, naive, late


@pytest.fixture(params=[None, 16], ids=["default-caps", "caps-16"])
def memo_cap(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(instr_mod, "_MEMO_MAX", request.param)
        monkeypatch.setattr(profile_mod, "_MEMO_MAX", request.param)
    return request.param


class TestBatchesAgainstSegments:
    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_programs(self, seed, fault, memo_cap):
        eng, batched, single, scan, naive, late = drive(seed, fault)
        assert eng.segments_emitted > 100
        # probes: every accumulator, and the delivery counters
        assert len(batched.probes) > 5
        assert batched.probes.keys() == single.probes.keys()
        for handle, probe in batched.probes.items():
            assert probe.accumulated == single.probes[handle].accumulated \
                == scan.shadow.get(handle, 0.0), handle
        assert any(scan.shadow.values())
        assert batched.mgr.segments_routed == single.mgr.segments_routed \
            == scan.segments == eng.segments_emitted
        assert batched.mgr.probes_examined == single.mgr.probes_examined > 0
        # the profile, from the start and from a sink added mid-run
        expect = json.dumps(naive.to_dict())
        assert profile_bytes(batched.profile.profile) == expect
        assert profile_bytes(single.profile.profile) == expect
        assert 0 < len(late["trace"].segments) < eng.segments_emitted
        assert profile_bytes(late["profile"].profile) == naive_bytes(
            late["trace"].segments)
        if memo_cap is not None:
            # the caps bit: cell tables were dropped mid-run
            assert batched.mgr._cell_epoch > 0
            assert single.mgr._cell_epoch > 0


class TestPrototypeMemo:
    def test_manager_memo_pins_prototypes(self):
        """A fresh prototype per batch, dropped right after: a memo that
        did not pin it would find the next prototype at the freed address
        and deliver it through the old one's cell."""
        rng = random.Random(3)
        world = build_world(rng)
        mgr = world["manager"]
        for _ in range(12):
            mgr.request(rng.choice(METRIC_NAMES), random_focus(rng, world))
        shadow = {}
        for i in range(300):
            seg = random_segment(rng, world, float(i))
            deliver(mgr, seg, shadow)
            proto = segment_prototype(seg.activity, seg.process, seg.node,
                                      seg.module, seg.function, seg.tag,
                                      seg.stack)
            mgr.record_batch([(proto, seg.start, seg.duration)])
            del proto
        assert any(shadow.values())
        for handle, probe in mgr._active.items():
            assert probe.accumulated == shadow.get(handle, 0.0), handle
        assert len(mgr._proto_cells) == 300

    def test_dropped_cells_are_never_read_through_a_stale_snapshot(self, monkeypatch):
        """Inside one pass: a read resolves the in-progress walk to cells,
        then the cell table is dropped.  The next read must go through
        the live cells, not the snapshot's dropped ones (which
        ``request()``/``delete()`` no longer reach)."""
        monkeypatch.setattr(instr_mod, "_MEMO_MAX", 16)

        def busy(proc):
            with proc.function("m.c", "f"):
                yield Compute(10.0)

        engine = Engine(Machine.named("n", 1), latency=LAT)
        engine.add_process("p:1", "n0", busy)
        space = ResourceSpace()
        space.add("/Process/p:1")
        space.add("/Code/m.c/f")
        mgr = InstrumentationManager(
            engine, space, cost_model=CostModel(perturb_per_unit=0.0),
            cost_limit=1e9, insertion_latency=0.0,
        )
        handle = mgr.request("cpu_time", whole_program(space))
        engine.schedule(4.0, engine.stop)
        engine.run()
        assert naive_read(mgr, handle, {}) == (4.0, 4.0)
        walks = []
        walk = engine.in_progress_parts
        monkeypatch.setattr(engine, "in_progress_parts",
                            lambda: walks.append(1) or walk())
        with mgr.batched_reads():
            assert mgr.read(handle) == (4.0, 4.0)
            (stale,) = [cell for cell, _, _ in mgr._in_progress_snapshot.entries]
            epoch = mgr._cell_epoch
            for i in range(20):  # fill the table until it drops
                feed(mgr, TimeSegment.make(
                    start=0.0, duration=0.0, activity=Activity.COMPUTE,
                    process=f"q:{i}", node="n0", module="m.c", function="g"))
            assert mgr._cell_epoch > epoch
            assert mgr.read(handle) == (4.0, 4.0)
            (cell,) = [cell for cell, _, _ in mgr._in_progress_snapshot.entries]
            assert cell is not stale
            assert mgr._cells[(id(cell.parts), id(cell.activity))] is cell
        assert walks == [1]  # resolved again from the pass's one walk


class AdHoc:
    """What a user might register: only ``record()``, no base class."""

    def __init__(self):
        self.segments = []

    def record(self, segment):
        self.segments.append(segment)


def test_record_only_sink_beside_batch_sinks_sees_the_per_event_stream():
    """Registered beside the manager and the profile, an ad-hoc
    ``record()`` sink receives field for field (interned ``parts``
    included) the stream the per-event reference engine emits."""
    build = ring_builder(seed=3)
    eng = build(Engine)
    space = world_of(eng)["space"]
    mgr = InstrumentationManager(
        eng, space, cost_model=CostModel(perturb_per_unit=0.0),
        cost_limit=1e9, insertion_latency=0.0,
    )
    mgr.request("exec_time", whole_program(space))
    eng.add_sink(ProfileCollector())
    adhoc = AdHoc()
    eng.add_sink(adhoc)
    eng.run()
    ref = build(ReferenceEngine)
    col = TraceCollector()
    ref.add_sink(col)
    ref.run()
    assert len(adhoc.segments) == len(col.segments) > 50
    assert [seg_key(s) for s in adhoc.segments] == [seg_key(s) for s in col.segments]
    assert mgr.segments_routed == len(adhoc.segments)
