"""Trace records emitted by the simulator.

Every interval of simulated process activity becomes a
:class:`TimeSegment` carrying enough context to attribute the time to one
resource in each hierarchy: the innermost application function (Code), the
machine node (Machine), the process (Process), and — for synchronisation
waits — the message tag or barrier (SyncObject).

The instrumentation layer consumes segments through the
:class:`TraceSink` protocol; a segment's attribution follows Paradyn's
*exclusive* convention (time is charged to the innermost function on the
stack), which matches the paper's phrasing "45% ... is spent waiting in
function exchng2, and 20% in function main" (Section 4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Tuple

__all__ = [
    "Activity",
    "TimeSegment",
    "TraceSink",
    "TraceCollector",
    "sync_tag_parts",
    "intern_parts",
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

    The engine batches segments as ``(prototype, start, duration)``
    triples and materialises real :class:`TimeSegment` objects only at
    flush time, by copying the prototype into a fresh instance
    ``__dict__`` and overwriting ``start``/``duration`` — the
    frozen-dataclass ``__init__`` (ten guarded ``object.__setattr__``
    calls) is by far the most expensive step of per-event emission.  The
    keys here MUST stay in sync with :class:`TimeSegment`'s fields; a
    segment built from a prototype compares equal to (and interns the
    same ``parts`` as) one built through :meth:`TimeSegment.make`.
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


class TraceSink(Protocol):
    """Consumer of time segments (instrumentation, profilers, tests)."""

    def record(self, segment: TimeSegment) -> None:  # pragma: no cover
        ...


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
