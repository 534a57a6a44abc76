"""Dynamic instrumentation manager.

Models Paradyn's dynamic instrumentation: metric probes for a
(metric : focus) pair are *inserted* into the running program after a
request latency, accumulate only from their activation instant onward,
and are *deleted* when the Performance Consultant concludes a test.  The
manager is a trace sink on the simulator engine and doubles as a
perturbation source — active instrumentation slows the matched processes'
computation per the cost model.

Hot-path design.  ``record()`` runs once per emitted
:class:`~repro.simulator.records.TimeSegment` — the single most executed
piece of the online search — and a run's segments are drawn from a
handful of attributions (interned ``parts`` dicts, see
:func:`~repro.simulator.records.intern_parts`).  Probes are bucketed in
a **routing index** keyed by ``(activity, Code selection parts, Process
selection parts)``, and each ``(parts, activity)`` seen gets one
**attribution cell**: the probes reachable from the prefixes of its Code
and Process attribution that also pass the residual Machine/SyncObject
check, and how many candidates that bucket walk examines.  The walk
happens once, when the cell is built; ``request()`` and ``delete()``
keep every cell under the probe's routing keys current, so ``record()``
is one cell lookup plus one overlap fold per *matching* probe, and
``read()`` finds the probes an in-progress segment feeds through the
same cell.  Cells are keyed by identity and pin their ``parts``, so an
id can never be reused while its cell is live; nothing a run does
invalidates a cell (matching is tuple-prefix comparison on immutable
values), and the cell table is dropped wholesale at a cap and rebuilt
from the index on demand.  The naive statement of delivery — every live probe examined
for every segment — is ``tests/reference_delivery.py``, which the
property tests hold ``record()`` byte-identical to.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..resources.focus import Focus
from ..resources.resource import ResourceSpace
from ..simulator.engine import Engine
from ..simulator.records import Activity, TimeSegment
from .cost import CostGate, CostModel
from .metric import METRICS, Metric

__all__ = ["ActiveInstrumentation", "InstrumentationManager", "matched_processes"]

#: Cap on the attribution cell table, which is cleared wholesale when
#: full.  Big enough that a realistic search never evicts (entries are
#: bounded by distinct attributions), small enough that an adversarial
#: stream cannot grow memory without bound.
_MEMO_MAX = 1 << 16

#: Routing key for a hierarchy the probe's focus does not constrain (or
#: does not even carry): the hierarchy root, which is also the 1-prefix
#: of every segment attribution in that hierarchy.
_CODE_ROOT = ("Code",)
_PROC_ROOT = ("Process",)


def matched_processes(focus: Focus, engine: Engine) -> Tuple[str, ...]:
    """Process names matched by *focus*'s Process and Machine selections.

    A process matches when its own resource lies under the focus's
    Process selection and its host node lies under the Machine selection.
    This count also normalises hypothesis values (see metrics.metric).
    """
    want_proc = focus.selection_parts("Process") if "Process" in focus.hierarchies else ("Process",)
    want_node = focus.selection_parts("Machine") if "Machine" in focus.hierarchies else ("Machine",)
    out = []
    for name, proc in engine.procs.items():
        pp = ("Process", name)
        np_ = ("Machine", proc.node)
        if pp[: len(want_proc)] != want_proc:
            continue
        if np_[: len(want_node)] != want_node:
            continue
        out.append(name)
    return tuple(out)


@dataclass
class ActiveInstrumentation:
    """One live (metric : focus) probe set.

    ``processes`` is the *current* matched-process set (recounted when
    the engine's process table grows — late process discovery must not
    skew the normalisation denominator); ``charged`` freezes the set the
    probe's cost was charged against at request time, so cost release
    stays symmetric with the original charge.
    """

    handle: int
    metric: Metric
    focus: Focus
    requested_at: float
    active_from: float
    cost: float
    processes: Tuple[str, ...]
    persistent: bool = False
    charged: Tuple[str, ...] = ()
    accumulated: float = 0.0
    deleted_at: Optional[float] = None

    def overlap(self, start: float, end: float) -> float:
        """Seconds of [start, end) that fall inside the active window."""
        lo = max(start, self.active_from)
        hi = end if self.deleted_at is None else min(end, self.deleted_at)
        return max(hi - lo, 0.0)


class _Cell:
    """What the routing index holds for one (parts, activity) attribution
    (see module docstring); ``parts`` and ``activity`` pin the cell's
    identity key."""

    __slots__ = ("parts", "activity", "examined", "probes")

    def __init__(self, parts: dict, activity: Activity) -> None:
        self.parts = parts
        self.activity = activity
        #: Candidates the bucket walk examines for a segment of this
        #: attribution: every probe in a reachable bucket.
        self.examined = 0
        #: Of those, the probes whose focus matches: handle -> probe.
        self.probes: Dict[int, ActiveInstrumentation] = {}


#: (activity value, Code selection parts, Process selection parts).  The
#: activity goes in by value: ``Enum.__hash__`` is Python-level, and a
#: cell build hashes a dozen of these keys.
_RouteKey = Tuple[str, Tuple[str, ...], Tuple[str, ...]]


class InstrumentationManager:
    """Insert/read/delete dynamic instrumentation against a live engine."""

    def __init__(
        self,
        engine: Engine,
        space: ResourceSpace,
        cost_model: Optional[CostModel] = None,
        cost_limit: float = 20.0,
        insertion_latency: float = 2.0,
    ) -> None:
        self.engine = engine
        self.space = space
        self.cost_model = cost_model or CostModel()
        self.gate = CostGate(cost_limit)
        self.insertion_latency = insertion_latency
        self._active: Dict[int, ActiveInstrumentation] = {}
        self._handles = itertools.count(1)
        self._per_proc_cost: Dict[str, float] = {p: 0.0 for p in engine.procs}
        self.total_requests = 0
        self.total_deletes = 0
        self.total_decimates = 0
        #: Optional structured trace sink (set by the session when tracing
        #: is on); every use is guarded so an untraced run pays nothing.
        self.tracer = None
        # time-weighted integral of enabled cost, for the mean-cost metric
        self._cost_integral = 0.0
        self._cost_t0 = engine.now
        self._cost_last = engine.now
        #: Segments delivered, and candidate probes examined for them (the
        #: size of every bucket reachable from each segment's
        #: attribution) — the counters behind the ``progress`` trace
        #: event and the run metrics.
        self.segments_routed = 0
        self.probes_examined = 0
        # routing index: (activity value, code key, process key) -> {handle: probe}
        self._route: Dict[_RouteKey, Dict[int, ActiveInstrumentation]] = {}
        # attribution cells by (id(parts), id(activity)), and the same
        # cells under each routing key whose bucket they draw from
        self._cells: Dict[Tuple[int, int], _Cell] = {}
        self._cell_index: Dict[_RouteKey, List[_Cell]] = {}
        # matched-process sets cached per focus, invalidated when the
        # engine's process table grows
        self._focus_procs: Dict[Focus, Tuple[str, ...]] = {}
        self._proc_version = engine.proc_table_version
        # inside batched_reads(): the in-progress snapshot every read of
        # the pass shares, taken by the first read that needs it
        self._batching = False
        self._in_progress_snapshot: Optional[Tuple[TimeSegment, ...]] = None
        engine.add_sink(self)
        engine.add_perturbation_source(self._overhead_for)

    # ------------------------------------------------------------------
    # process-table tracking
    # ------------------------------------------------------------------
    def _sync_proc_table(self) -> None:
        """Recount matched processes after late process discovery.

        A probe requested before the engine learned about a process would
        otherwise keep normalising by the stale count for the rest of the
        run.  The charged cost is *not* restated — the gate accounted for
        the processes that existed at request time (``charged``).
        """
        version = self.engine.proc_table_version
        if version == self._proc_version:
            return
        self._proc_version = version
        self._focus_procs.clear()
        for instr in self._active.values():
            instr.processes = self._matched(instr.focus)

    def _matched(self, focus: Focus) -> Tuple[str, ...]:
        procs = self._focus_procs.get(focus)
        if procs is None:
            procs = matched_processes(focus, self.engine)
            self._focus_procs[focus] = procs
        return procs

    # ------------------------------------------------------------------
    # request / delete
    # ------------------------------------------------------------------
    def pair_cost(self, focus: Focus, persistent: bool = False) -> float:
        self._sync_proc_table()
        return self.cost_model.pair_cost(len(self._matched(focus)), persistent=persistent)

    def request(self, metric_name: str, focus: Focus, persistent: bool = False) -> int:
        """Insert probes for (metric : focus); returns a read handle.

        The probes become active ``insertion_latency`` seconds after the
        request — the paper notes a reported bottleneck's timestamp starts
        at "the instant of the instrumentation request, plus the time
        required to actually insert the instrumentation".
        """
        metric = METRICS[metric_name]
        self._sync_proc_table()
        procs = self._matched(focus)
        cost = self.cost_model.pair_cost(len(procs), persistent=persistent)
        handle = next(self._handles)
        now = self.engine.now
        self._accrue_cost()
        instr = ActiveInstrumentation(
            handle=handle,
            metric=metric,
            focus=focus,
            requested_at=now,
            active_from=now + self.insertion_latency,
            cost=cost,
            processes=procs,
            persistent=persistent,
            charged=procs,
        )
        self._active[handle] = instr
        for key in self._probe_keys(instr):
            self._route.setdefault(key, {})[handle] = instr
            for cell in self._cell_index.get(key, ()):
                cell.examined += 1
                if focus.matches_parts(cell.parts):
                    cell.probes[handle] = instr
        self.gate.add(cost)
        for p in procs:
            self._per_proc_cost[p] = self._per_proc_cost.get(p, 0.0) + cost
        self.total_requests += 1
        if self.tracer is not None:
            self.tracer.emit(
                "instr-insert", handle=handle, metric=metric_name,
                focus=str(focus), cost=cost, processes=list(procs),
                persistent=persistent,
            )
        return handle

    def delete(self, handle: int) -> None:
        instr = self._active.pop(handle, None)
        if instr is None:
            return
        for key in self._probe_keys(instr):
            bucket = self._route.get(key)
            if bucket is not None:
                bucket.pop(handle, None)
                if not bucket:
                    del self._route[key]
            for cell in self._cell_index.get(key, ()):
                cell.examined -= 1
                cell.probes.pop(handle, None)
        instr.deleted_at = self.engine.now
        self._accrue_cost()
        self._release_cost(instr)
        self.total_deletes += 1
        if self.tracer is not None:
            self.tracer.emit("instr-delete", handle=handle, cost=instr.cost)

    def decimate(self, handle: int) -> None:
        """Downgrade a persistent probe set to decimated sampling.

        Once a persistent (high-priority) pair has reached its first
        conclusion, it keeps watching for the rest of the run but at a
        sampling rate cheap enough to release its share of the cost gate —
        otherwise start-up priorities would permanently starve the ongoing
        top-down search.
        """
        instr = self._active.get(handle)
        if instr is None or instr.cost == 0.0:
            return
        self._accrue_cost()
        self._release_cost(instr)
        self.total_decimates += 1
        if self.tracer is not None:
            self.tracer.emit("instr-decimate", handle=handle, released=instr.cost)
        instr.cost = 0.0

    def _accrue_cost(self) -> None:
        """Advance the time-weighted enabled-cost integral to now."""
        now = self.engine.now
        self._cost_integral += self.gate.total * (now - self._cost_last)
        self._cost_last = now

    def _release_cost(self, instr: ActiveInstrumentation) -> None:
        self.gate.remove(instr.cost)
        for p in instr.charged or instr.processes:
            self._per_proc_cost[p] = max(self._per_proc_cost.get(p, 0.0) - instr.cost, 0.0)

    # ------------------------------------------------------------------
    # segment routing
    # ------------------------------------------------------------------
    @staticmethod
    def _probe_keys(instr: ActiveInstrumentation) -> List[_RouteKey]:
        """Routing-index keys for one probe: its focus's Code and Process
        selection parts, one key per activity class its metric counts."""
        focus = instr.focus
        code = (
            focus.selection_parts("Code")
            if "Code" in focus.hierarchies else _CODE_ROOT
        )
        proc = (
            focus.selection_parts("Process")
            if "Process" in focus.hierarchies else _PROC_ROOT
        )
        return [(act, code, proc) for act in sorted(a.value for a in instr.metric.activities)]

    def _build_cell(self, parts: dict, activity: Activity) -> _Cell:
        """Walk the buckets reachable from one attribution, once.

        The candidate buckets sit at every (Code prefix, Process prefix)
        of the attribution; a segment without an attribution in a
        hierarchy can only match probes unconstrained there — exactly
        the root bucket.  The cell is registered under each of those
        keys so ``request()``/``delete()`` find it.
        """
        if len(self._cells) >= _MEMO_MAX:
            self._cells.clear()
            self._cell_index.clear()
        code = parts.get("Code") or _CODE_ROOT
        proc = parts.get("Process") or _PROC_ROOT
        cell = _Cell(parts, activity)
        act = activity.value
        for i in range(1, len(code) + 1):
            for j in range(1, len(proc) + 1):
                key = (act, code[:i], proc[:j])
                self._cell_index.setdefault(key, []).append(cell)
                bucket = self._route.get(key)
                if bucket:
                    cell.examined += len(bucket)
                    for handle, instr in bucket.items():
                        if instr.focus.matches_parts(parts):
                            cell.probes[handle] = instr
        self._cells[(id(parts), id(activity))] = cell
        return cell

    # ------------------------------------------------------------------
    # trace sink + perturbation source
    # ------------------------------------------------------------------
    def record(self, segment: TimeSegment) -> None:
        self.segments_routed += 1
        parts = segment.parts
        activity = segment.activity
        cell = self._cells.get((id(parts), id(activity)))
        if cell is None:
            cell = self._build_cell(parts, activity)
        self.probes_examined += cell.examined
        if not cell.probes:
            return
        # every probe here matches and is live (delete() takes a probe
        # out of its cells before it stamps deleted_at, so the window is
        # open-ended): time metrics add the overlap with the active
        # window, count metrics one per segment that finishes inside it
        start = segment.start
        end = start + segment.duration
        for instr in cell.probes.values():
            lo = instr.active_from
            if instr.metric.kind == "count":
                if lo <= end:
                    instr.accumulated += 1.0
                continue
            if start > lo:
                lo = start
            dt = end - lo
            if dt > 0.0:
                instr.accumulated += dt

    def _overhead_for(self, proc_name: str) -> float:
        return self.cost_model.overhead_fraction(self._per_proc_cost.get(proc_name, 0.0))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _lookup(self, handle: int) -> ActiveInstrumentation:
        instr = self._active.get(handle)
        if instr is None:
            raise KeyError(f"unknown or deleted instrumentation handle {handle}")
        return instr

    @contextmanager
    def batched_reads(self) -> Iterator[None]:
        """Share one ``engine.in_progress()`` snapshot across every
        :meth:`read` inside the block.

        The evaluation pass reads many handles at one engine instant;
        re-walking the per-process in-progress table for each handle is
        pure waste.  Virtual time cannot advance inside the block (reads
        do not step the engine), so one snapshot is exact for all of
        them.  The first read that needs it takes it: a pass in which no
        conclusion is due never walks the table at all.
        """
        prev = self._batching, self._in_progress_snapshot
        self._batching, self._in_progress_snapshot = True, None
        try:
            yield
        finally:
            self._batching, self._in_progress_snapshot = prev

    def elapsed(self, handle: int) -> float:
        """Seconds of data *handle* has observed so far (``KeyError`` for
        an unknown or deleted handle) — the cheap half of :meth:`read`,
        for callers that only want a value once enough has been seen."""
        return max(self.engine.now - self._lookup(handle).active_from, 0.0)

    def read(self, handle: int) -> Tuple[float, float]:
        """Return (accumulated seconds, observed elapsed seconds).

        In-progress activity (e.g. a blocking receive that has not yet
        returned) is included, so reads are exact at any instant.
        """
        instr = self._lookup(handle)
        now = self.engine.now
        elapsed = max(now - instr.active_from, 0.0)
        if elapsed == 0.0:
            return 0.0, 0.0
        value = instr.accumulated
        if instr.metric.kind == "time":
            # in-progress activity only contributes to time metrics;
            # counts only include completed operations
            segs = self._in_progress_snapshot
            if segs is None:
                segs = tuple(self.engine.in_progress())
                if self._batching:
                    self._in_progress_snapshot = segs
            # an in-progress segment feeds the probes of its attribution
            # cell, the same cell record() will deliver it through
            cells = self._cells
            for seg in segs:
                if not instr.metric.counts(seg.activity):
                    continue
                dt = instr.overlap(seg.start, seg.end)
                if dt <= 0.0:
                    continue
                parts, activity = seg.parts, seg.activity
                cell = cells.get((id(parts), id(activity)))
                if cell is None:
                    cell = self._build_cell(parts, activity)
                if handle in cell.probes:
                    value += dt
        return value, elapsed

    def normalized_read(self, handle: int) -> Tuple[float, float]:
        """Return (fraction, elapsed): accumulated time normalised by
        elapsed × matched-process count (the hypothesis test value)."""
        self._sync_proc_table()
        instr = self._lookup(handle)
        value, elapsed = self.read(handle)
        denom = elapsed * max(len(instr.processes), 1)
        return (value / denom if denom > 0 else 0.0), elapsed

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def total_cost(self) -> float:
        return self.gate.total

    @property
    def peak_cost(self) -> float:
        return self.gate.peak

    @property
    def mean_cost(self) -> float:
        """Time-weighted mean enabled instrumentation cost so far."""
        self._accrue_cost()
        elapsed = self._cost_last - self._cost_t0
        return self._cost_integral / elapsed if elapsed > 0 else 0.0

    def instrumentation(self, handle: int) -> ActiveInstrumentation:
        return self._active[handle]
