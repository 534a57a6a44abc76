"""The profile sink against a naive per-segment fold.

:meth:`FlatProfile.add` resolves an attribution — the interned ``parts``
dict, the stack, the activity — once and afterwards only bumps the inner
dicts it resolved to.  The oracle here is the fold it replaced: every
name rebuilt and every table walked for every segment.  Profiles are
serialised to disk and harvested into thresholds, so the two must agree
to the byte: the same keys in the same first-insertion order, the same
floats summed in the same order.
"""

import json
import random
from collections import defaultdict

import pytest

from repro.metrics import FlatProfile
from repro.metrics import profile as profile_mod
from repro.metrics.profile import ProfileCollector
from repro.resources.names import join_path
from repro.simulator import (
    Barrier,
    Compute,
    Engine,
    IoOp,
    LatencyModel,
    Machine,
    Recv,
    Send,
    TraceCollector,
)
from repro.simulator import records as records_mod
from repro.simulator import tracefile
from repro.simulator.records import Activity, TimeSegment
from tests.reference_delivery import feed
from tests.reference_engine import ReferenceEngine

_ACT_KEYS = {Activity.COMPUTE: "compute", Activity.SYNC: "sync", Activity.IO: "io"}
_TABLES = ("by_code", "by_process", "by_node", "by_tag", "by_code_inclusive",
           "by_combo")


class NaiveProfile:
    """The unmemoized fold, one segment at a time — also a record-only
    engine sink, fed materialised segments."""

    def __init__(self):
        for table in _TABLES:
            setattr(self, table, defaultdict(lambda: defaultdict(float)))
        self.totals = defaultdict(float)
        self.elapsed = 0.0

    def add(self, seg):
        key = _ACT_KEYS[seg.activity]
        code = join_path(("Code", seg.module, seg.function))
        proc = join_path(("Process", seg.process))
        node = join_path(("Machine", seg.node))
        tag = ""
        self.by_code[code][key] += seg.duration
        self.by_process[proc][key] += seg.duration
        self.by_node[node][key] += seg.duration
        if seg.tag is not None and "SyncObject" in seg.parts:
            tag = join_path(seg.parts["SyncObject"])
            self.by_tag[tag][key] += seg.duration
        self.by_combo[(code, proc, node, tag)][key] += seg.duration
        for frame in dict.fromkeys(seg.stack or ((seg.module, seg.function),)):
            self.by_code_inclusive[join_path(("Code",) + frame)][key] += seg.duration
        self.totals[key] += seg.duration
        self.elapsed = max(self.elapsed, seg.end)

    record = add

    def to_dict(self):
        out = {t: {k: dict(v) for k, v in getattr(self, t).items()}
               for t in _TABLES}
        out["by_combo"] = {"||".join(k): v for k, v in out["by_combo"].items()}
        out["totals"] = dict(self.totals)
        out["elapsed"] = self.elapsed
        return out


def naive_bytes(segments):
    naive = NaiveProfile()
    for seg in segments:
        naive.add(seg)
    return json.dumps(naive.to_dict())


def profile_bytes(profile):
    return json.dumps(profile.to_dict())


def random_engine(seed, n=4, iters=10, engine_cls=Engine):
    """A seeded ring program whose processes reach the same leaf
    functions along different call paths and recurse to random depths,
    exchange messages under several tags, meet at barriers and do I/O."""
    rng = random.Random(seed)
    script = [
        {
            "compute": rng.uniform(0.001, 0.2),
            "depth": rng.randint(0, 4),       # recursion depth of solve()
            "via": rng.choice(["a", "b"]),     # call path into kernel()
            "tag": rng.choice(["3/0", "3/1", "9/0"]),
            "barrier": rng.random() < 0.3,
            "io": rng.random() < 0.3,
        }
        for _ in range(iters)
    ]
    eng = engine_cls(Machine.named("node", n), LatencyModel())

    def prog(rank):
        def kernel(proc, seconds):
            with proc.function("k.f", "kernel"):
                yield Compute(seconds)

        def solve(proc, depth, seconds):
            # recursive: the same frame repeats on the stack
            with proc.function("s.f", "solve"):
                yield Compute(seconds / 4)
                if depth:
                    yield from solve(proc, depth - 1, seconds)
                else:
                    yield from kernel(proc, seconds)

        def p(proc):
            up, down = f"p{(rank + 1) % n}", f"p{(rank - 1) % n}"
            yield Compute(0.001)  # outside any frame
            with proc.function("m.f", "main"):
                for step in script:
                    seconds = step["compute"] * (1 + rank % 3)
                    with proc.function("m.f", "via_" + step["via"]):
                        yield from kernel(proc, seconds)
                    yield from solve(proc, (step["depth"] + rank) % 5, seconds)
                    with proc.function("x.f", "exchange"):
                        yield Send(up, step["tag"], 100.0)
                        yield Recv(down, step["tag"])
                    if step["barrier"]:
                        yield Barrier()
                    if step["io"]:
                        with proc.function("io.f", "dump"):
                            yield IoOp(0.01 * (rank + 1))
        return p

    for i in range(n):
        eng.add_process(f"p{i}", f"node{i % 2}", prog(i))
    return eng


def engine_segments(engine_cls):
    def produce(seed, sink, tmp_path):
        eng = random_engine(seed, engine_cls=engine_cls)
        collector = TraceCollector()
        eng.add_sink(collector)
        eng.add_sink(sink)
        eng.run()
        return collector.segments
    return produce


def replayed_segments(seed, sink, tmp_path):
    """Through a trace file and back, as ``repro.simulator.tracefile``
    consumers feed a profile."""
    live = engine_segments(Engine)(seed, TraceCollector(), tmp_path)
    path = tmp_path / "trace.jsonl"
    assert tracefile.write_trace(path, live) == len(live)
    segments = list(tracefile.read_trace(path))
    feed(sink, *segments)
    return segments


#: Who hands the sink its segments.  The engine hands over one interned
#: stack object per distinct stack; the per-event reference engine and a
#: trace-file replay build a fresh tuple for every segment, which the
#: memo must key by value or it would miss, and pin an entry, each time.
#: ("legacy" is the reference engine's id from when it was a loop of
#: ``Engine``.)
PRODUCERS = {
    "fast": engine_segments(Engine),
    "legacy": engine_segments(ReferenceEngine),
    "replay": replayed_segments,
}


class TestOracle:
    @pytest.mark.parametrize("producer", list(PRODUCERS))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_serialise_identically(self, seed, producer, tmp_path):
        """Interned stacks or a fresh tuple per segment: every producer
        must hit the same memo entries and equal the naive fold."""
        sink = ProfileCollector()
        segments = PRODUCERS[producer](seed, sink, tmp_path)
        if producer != "fast":
            stacks = [s.stack for s in segments if len(s.stack) > 1]
            assert len({id(s) for s in stacks}) > len(set(stacks))
        assert {s.activity for s in segments} == set(Activity)
        assert any(s.tag == "Barrier" for s in segments)
        assert any(len(s.stack) > len(set(s.stack)) for s in segments)  # recursion
        assert profile_bytes(sink.profile) == naive_bytes(segments)
        # far fewer attributions than segments: the memo is what ran
        assert 0 < len(sink.profile._memo) < len(segments) / 3

    def test_round_trip_then_more_segments(self):
        """A profile rebuilt from its dict keeps folding identically."""
        eng = random_engine(11)
        collector = TraceCollector()
        eng.add_sink(collector)
        eng.run()
        segments = collector.segments
        half = len(segments) // 2
        first = FlatProfile()
        for seg in segments[:half]:
            first.add(seg)
        resumed = FlatProfile.from_dict(json.loads(profile_bytes(first)))
        for seg in segments[half:]:
            resumed.add(seg)
        assert profile_bytes(resumed) == naive_bytes(segments)

    def test_hand_built_segments_without_parts_or_stack(self):
        """Segments built directly carry an empty ``parts`` dict each and
        no stack; they must still be charged by their own fields."""
        segments = [
            TimeSegment(float(i), 0.5, Activity.COMPUTE, f"p:{i % 2}", "n0",
                        "m.c", f"f{i % 3}")
            for i in range(12)
        ]
        prof = FlatProfile()
        for seg in segments:
            prof.add(seg)
        assert profile_bytes(prof) == naive_bytes(segments)


def seg(i, process, function, stack=None):
    return TimeSegment.make(
        start=float(i), duration=0.25 + i / 8, activity=Activity.COMPUTE,
        process=process, node="n0", module="m.c", function=function,
        stack=stack,
    )


class TestMemo:
    def test_memo_pins_parts_so_ids_cannot_be_reused(self, monkeypatch):
        """Free each ``parts`` dict right after the memo has seen it and
        allocate the next: CPython hands the freed address straight back,
        so a memo keyed by a bare id would charge the new attribution to
        the old one's rows."""
        monkeypatch.setattr(records_mod, "_PARTS_CACHE", {})
        prof = FlatProfile()
        for i in range(200):
            prof.add(seg(i, f"p:{i}", "f"))  # the segment dies here ...
            records_mod._PARTS_CACHE.clear()  # ... and its interned parts too
        assert profile_bytes(prof) == naive_bytes(
            seg(i, f"p:{i}", "f") for i in range(200))
        assert len(prof._memo) == 200  # no two attributions shared a key

    def test_memo_pins_prototypes_so_ids_cannot_be_reused(self):
        """Hand the profile a fresh prototype per batch and drop it right
        after: CPython hands the freed address to the next one, so a memo
        that did not pin its prototype would charge the new attribution
        to the old one's rows."""
        prof = FlatProfile()
        segments = []
        for i in range(200):
            s = seg(i, f"p:{i}", "f")
            segments.append(s)
            proto = records_mod.segment_prototype(
                s.activity, s.process, s.node, s.module, s.function, s.tag,
                s.stack)
            prof.add_batch([(proto, s.start, s.duration)])
            del proto
        assert profile_bytes(prof) == naive_bytes(segments)
        assert len(prof._memo) == 200

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(profile_mod, "_MEMO_MAX", 8)
        prof = FlatProfile()
        segments = []
        rng = random.Random(3)
        for i in range(300):
            s = seg(i, f"p:{rng.randrange(20)}", f"f{rng.randrange(3)}")
            segments.append(s)
            prof.add(s)
            assert len(prof._memo) <= 8
        # entries re-resolved after a wholesale drop land on the same rows
        assert profile_bytes(prof) == naive_bytes(segments)

    def test_equal_stacks_share_an_entry_whatever_their_identity(self):
        prof = FlatProfile()
        for i in range(5):
            prof.add(seg(i, "p:1", "f", stack=tuple([("m.c", "main"), ("m.c", "f")])))
        assert len(prof._memo) == 1
        prof.add(seg(5, "p:1", "f", stack=(("m.c", "other"), ("m.c", "f"))))
        assert len(prof._memo) == 2
        assert set(prof.by_code_inclusive) == {
            "/Code/m.c/main", "/Code/m.c/f", "/Code/m.c/other"}
