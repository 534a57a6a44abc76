"""Trace records emitted by the simulator.

Every interval of simulated process activity becomes a
:class:`TimeSegment` carrying enough context to attribute the time to one
resource in each hierarchy: the innermost application function (Code), the
machine node (Machine), the process (Process), and — for synchronisation
waits — the message tag or barrier (SyncObject).

A segment's attribution follows Paradyn's *exclusive* convention (time
is charged to the innermost function on the stack), which matches the
paper's phrasing "45% ... is spent waiting in function exchng2, and 20%
in function main" (Section 4.2).

Between the engine and its sinks a segment travels as a *prototype*: the
attribute dict every segment of one attribution shares
(:func:`segment_prototype`), plus its start and duration.  A
:class:`TraceSink` receives the engine's flush batch — a list of
``(prototype, start, duration)`` triples in emission order — through its
one method, ``record_batch``.  The two sinks on the hot path (probes and
the profile) fold prototypes directly, keyed by their identity; a sink
that only knows ``record(segment)`` is fed through
:func:`batch_sink`, the one place a prototype becomes a
:class:`TimeSegment`.  The way back, :func:`prototype_of`, lets a
segment that exists on its own (a trace-file replay, a test) enter the
same prototype fold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

__all__ = [
    "Activity",
    "Batch",
    "TimeSegment",
    "TraceSink",
    "TraceCollector",
    "batch_sink",
    "sync_tag_parts",
    "intern_parts",
    "prototype_of",
    "segment_prototype",
]


class Activity(enum.Enum):
    """Classes of simulated time, one per top-level PC hypothesis."""

    COMPUTE = "compute"
    SYNC = "sync"
    IO = "io"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def sync_tag_parts(tag: str) -> Tuple[str, ...]:
    """Resource-path components for a message tag.

    Tags like ``"3/0"`` become ``("SyncObject", "Message", "3", "0")`` so
    the tag family (``3``) is a refinable interior node, mirroring the
    paper's tags 3/0, 3/1 and 3/-1.  The special tag ``"Barrier"`` maps to
    ``("SyncObject", "Barrier")``.
    """
    if tag == "Barrier":
        return ("SyncObject", "Barrier")
    return ("SyncObject", "Message") + tuple(tag.split("/"))


#: Interned ``parts`` dicts, keyed by the attribution tuple.  A simulated
#: run emits millions of segments drawn from a small set of
#: (process, node, module, function, tag) combinations; sharing one dict
#: per combination keeps ``id(segment.parts)`` stable, which is what lets
#: the instrumentation hot path memoize ``Focus.matches_parts`` by
#: identity.  Interned dicts are shared — treat them as immutable.
_PARTS_CACHE: Dict[Tuple[str, str, str, str, Optional[str]], Dict[str, Tuple[str, ...]]] = {}
_PARTS_CACHE_MAX = 65536


def intern_parts(
    process: str,
    node: str,
    module: str,
    function: str,
    tag: Optional[str] = None,
) -> Dict[str, Tuple[str, ...]]:
    """The shared per-hierarchy resource-path dict for one attribution.

    Bounded: the cache is cleared wholesale if an adversarial workload
    ever produces more distinct attributions than the cap (correctness is
    unaffected — a fresh dict matches exactly like a shared one).
    """
    key = (process, node, module, function, tag)
    parts = _PARTS_CACHE.get(key)
    if parts is None:
        if len(_PARTS_CACHE) >= _PARTS_CACHE_MAX:
            _PARTS_CACHE.clear()
        parts = {
            "Code": ("Code", module, function),
            "Machine": ("Machine", node),
            "Process": ("Process", process),
        }
        if tag is not None:
            parts["SyncObject"] = sync_tag_parts(tag)
        _PARTS_CACHE[key] = parts
    return parts


@dataclass(frozen=True)
class TimeSegment:
    """One attributed interval of process activity.

    ``parts`` maps hierarchy name to the split resource path the segment
    belongs to (``None`` entries are simply absent); it is precomputed once
    so focus matching in the instrumentation hot path is tuple-prefix
    comparison only.  Segments built through :meth:`make` share *interned*
    parts dicts (see :func:`intern_parts`) — never mutate them.
    """

    start: float
    duration: float
    activity: Activity
    process: str
    node: str
    module: str
    function: str
    tag: Optional[str] = None
    #: Full function-call stack, outermost first; the last frame equals
    #: (module, function).  Enables inclusive attribution postmortem while
    #: online matching stays exclusive.
    stack: Tuple[Tuple[str, str], ...] = field(default=(), compare=False)
    parts: Dict[str, Tuple[str, ...]] = field(default_factory=dict, compare=False)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @staticmethod
    def make(
        start: float,
        duration: float,
        activity: Activity,
        process: str,
        node: str,
        module: str,
        function: str,
        tag: Optional[str] = None,
        stack: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> "TimeSegment":
        return TimeSegment(
            start=start,
            duration=duration,
            activity=activity,
            process=process,
            node=node,
            module=module,
            function=function,
            tag=tag,
            stack=stack if stack is not None else ((module, function),),
            parts=intern_parts(process, node, module, function, tag),
        )


def segment_prototype(
    activity: Activity,
    process: str,
    node: str,
    module: str,
    function: str,
    tag: Optional[str],
    stack: Tuple[Tuple[str, str], ...],
) -> Dict[str, object]:
    """Attribute dict for every segment sharing one attribution.

    The engine hands its sinks ``(prototype, start, duration)`` triples;
    sinks that fold them key their memos by the prototype's identity, so
    a prototype is shared and never mutated.  The keys here MUST stay in
    sync with :class:`TimeSegment`'s fields: :func:`batch_sink` builds a
    segment by copying the prototype into a fresh instance ``__dict__``
    and overwriting ``start``/``duration`` (the frozen-dataclass
    ``__init__`` costs ten guarded ``object.__setattr__`` calls), and
    that segment compares equal to (and interns the same ``parts`` as)
    one built through :meth:`TimeSegment.make`.
    """
    return {
        "start": 0.0,
        "duration": 0.0,
        "activity": activity,
        "process": process,
        "node": node,
        "module": module,
        "function": function,
        "tag": tag,
        "stack": stack,
        "parts": intern_parts(process, node, module, function, tag),
    }


#: Prototypes of segments that exist on their own, keyed by
#: ``(id(parts), stack, id(activity))``.  Each prototype pins its
#: ``parts``, so the id cannot be reused while the entry lives; the stack
#: goes in by value because a trace-file replay builds a fresh tuple per
#: segment.  Bounded and cleared wholesale like :data:`_PARTS_CACHE`.
_PROTO_CACHE: Dict[tuple, Dict[str, object]] = {}
_PROTO_CACHE_MAX = 65536


def prototype_of(segment: TimeSegment) -> Dict[str, object]:
    """The shared prototype of an existing segment, so a segment fed one
    at a time enters the same prototype fold as the engine's batches.

    Like every identity-keyed memo downstream, this trusts ``parts`` to
    describe the segment's own fields: true of every segment built by
    :meth:`TimeSegment.make` or the engine, and a hand-built segment
    carries a private ``parts`` dict and so gets a private prototype.
    """
    parts = segment.parts
    key = (id(parts), segment.stack, id(segment.activity))
    proto = _PROTO_CACHE.get(key)
    if proto is None:
        if len(_PROTO_CACHE) >= _PROTO_CACHE_MAX:
            _PROTO_CACHE.clear()
        proto = dict(segment.__dict__)
        proto["start"] = 0.0
        proto["duration"] = 0.0
        _PROTO_CACHE[key] = proto
    return proto


#: One flush batch: ``(prototype, start, duration)`` in emission order.
Batch = List[Tuple[Dict[str, object], float, float]]


class TraceSink(Protocol):
    """Consumer of the engine's segment stream (instrumentation, the
    profile, tracers, tests).

    The engine calls ``record_batch`` once per flush with the triples
    emitted since the last one and clears the list afterwards: a sink
    must not keep it.
    """

    def record_batch(self, batch: Batch) -> None:  # pragma: no cover
        ...


class _SegmentFeed:
    """Adapts a sink that defines only ``record(segment)``: every triple
    of a batch becomes one :class:`TimeSegment`, handed over in order."""

    __slots__ = ("sink",)

    def __init__(self, sink) -> None:
        self.sink = sink

    def record_batch(self, batch: Batch) -> None:
        record = self.sink.record
        new = object.__new__
        cls = TimeSegment
        for proto, start, duration in batch:
            seg = new(cls)
            d = seg.__dict__
            d.update(proto)
            d["start"] = start
            d["duration"] = duration
            record(seg)


def batch_sink(sink) -> TraceSink:
    """*sink* itself when it folds batches, else *sink* behind the one
    adaptor that materialises segments for ``record(segment)``."""
    if hasattr(sink, "record_batch"):
        return sink
    return _SegmentFeed(sink)


class TraceCollector:
    """Sink that simply retains every segment (tests and postmortem use)."""

    def __init__(self) -> None:
        self.segments: list[TimeSegment] = []

    def record(self, segment: TimeSegment) -> None:
        self.segments.append(segment)

    def total(self, activity: Activity | None = None) -> float:
        return sum(
            s.duration
            for s in self.segments
            if activity is None or s.activity is activity
        )

    def by_function(self, activity: Activity | None = None) -> Dict[Tuple[str, str], float]:
        out: Dict[Tuple[str, str], float] = {}
        for s in self.segments:
            if activity is not None and s.activity is not activity:
                continue
            key = (s.module, s.function)
            out[key] = out.get(key, 0.0) + s.duration
        return out
