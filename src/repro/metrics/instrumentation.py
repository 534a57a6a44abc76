"""Dynamic instrumentation manager.

Models Paradyn's dynamic instrumentation: metric probes for a
(metric : focus) pair are *inserted* into the running program after a
request latency, accumulate only from their activation instant onward,
and are *deleted* when the Performance Consultant concludes a test.  The
manager is a trace sink on the simulator engine and doubles as a
perturbation source — active instrumentation slows the matched processes'
computation per the cost model.

Hot-path design.  The engine hands the manager its flush batches of
``(prototype, start, duration)`` triples (:meth:`record_batch`) — the
single most executed piece of the online search — and a run's segments
are drawn from a handful of attributions (interned ``parts`` dicts, see
:func:`~repro.simulator.records.intern_parts`).  Probes are bucketed in
a **routing index** keyed by ``(activity, Code selection parts, Process
selection parts)``, and each ``(parts, activity)`` seen gets one
**attribution cell**: the probes reachable from the prefixes of its Code
and Process attribution that also pass the residual Machine/SyncObject
check, and how many candidates that bucket walk examines.  The walk
happens once, when the cell is built; ``request()`` and ``delete()``
keep every cell under the probe's routing keys current.  A prototype is
resolved to its cell once, in a memo keyed by the prototype's identity,
so delivering a segment is one memo hit plus one overlap fold per
*matching* probe; a segment that exists on its own enters the same fold
as a one-triple batch through its
:func:`~repro.simulator.records.prototype_of`.  Cells and memo entries pin what their id keys
stand for, so an id can never be reused while they live; nothing a run
does invalidates a cell (matching is tuple-prefix comparison on
immutable values), and the cell table is dropped wholesale at a cap —
together with its index, the prototype memo, and any in-progress
snapshot resolved against it — and rebuilt from the index on demand.
``read()`` finds the probes an in-progress entry feeds through the same
cells: :meth:`batched_reads` resolves the engine's in-progress parts to
cells once per pass.

A probe carries its **plan**: ``request()`` works out its routing keys,
matched processes and cost once, and ``delete()`` leaves exactly the
buckets and cells under those keys.  What a focus contributes (its Code
and Process key selections and matched processes) is cached per focus
object, so pricing the search's queue head and requesting it share one
derivation; the cache is dropped when the engine's process table grows,
which every caller detects with one version compare.  The reads the
search makes per pair (``elapsed``, ``normalized_read``) look the handle
up once each.

Perturbation is pushed: whenever a process's carried cost changes, its
overhead fraction is recomputed into a table the engine reads directly.

The naive statement of delivery — every live probe examined for every
segment — is ``tests/reference_delivery.py``, which the property tests
hold delivery byte-identical to; ``tests/reference_search.ReferenceManager``
re-derives every probe's keys and matched processes at each use, and
the search and sink-seam tests hold this manager to it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..resources.focus import Focus
from ..resources.resource import ResourceSpace
from ..simulator.engine import Engine
from ..simulator.records import Activity, Batch
from .cost import CostGate, CostModel
from .metric import METRICS, Metric

__all__ = ["ActiveInstrumentation", "InstrumentationManager", "matched_processes"]

#: Cap on the attribution cell table and on the prototype memo, each
#: cleared wholesale when full (the memo also whenever the table is).
#: Big enough that a realistic search never evicts (entries are bounded
#: by distinct attributions), small enough that an adversarial stream
#: cannot grow memory without bound.
_MEMO_MAX = 1 << 16

#: Routing key for a hierarchy the probe's focus does not constrain (or
#: does not even carry): the hierarchy root, which is also the 1-prefix
#: of every segment attribution in that hierarchy.
_CODE_ROOT = ("Code",)
_PROC_ROOT = ("Process",)
_NODE_ROOT = ("Machine",)


def matched_processes(focus: Focus, engine: Engine) -> Tuple[str, ...]:
    """Process names matched by *focus*'s Process and Machine selections.

    A process matches when its own resource lies under the focus's
    Process selection and its host node lies under the Machine selection.
    This count also normalises hypothesis values (see metrics.metric).
    """
    want_proc, want_node = _PROC_ROOT, _NODE_ROOT
    for hierarchy, parts in focus.constrained:
        if hierarchy == "Process":
            want_proc = parts
        elif hierarchy == "Machine":
            want_node = parts
    n_proc, n_node = len(want_proc), len(want_node)
    out = []
    for name, proc in engine.procs.items():
        if ("Process", name)[:n_proc] != want_proc:
            continue
        if ("Machine", proc.node)[:n_node] != want_node:
            continue
        out.append(name)
    return tuple(out)


@dataclass
class ActiveInstrumentation:
    """One live (metric : focus) probe set.

    ``processes`` is the *current* matched-process set (recounted when
    the engine's process table grows — late process discovery must not
    skew the normalisation denominator); ``charged`` freezes the set the
    probe's cost was charged against at request time, and cost is
    released from exactly that set.  ``keys`` are the probe's
    routing-index keys, fixed at request time; ``delete()`` leaves the
    buckets and cells under exactly these.
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
    keys: Tuple["_RouteKey", ...] = ()

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


class _Snapshot:
    """One in-progress walk and its entries resolved to cells as
    ``(cell, start, end)``, valid while the cell table is at ``epoch``."""

    __slots__ = ("epoch", "walk", "entries")

    def __init__(self, epoch: int, walk: list, entries: list) -> None:
        self.epoch = epoch
        self.walk = walk
        self.entries = entries


#: (activity value, Code selection parts, Process selection parts).  The
#: activity goes in by value: ``Enum.__hash__`` is Python-level, and a
#: cell build hashes a dozen of these keys.
_RouteKey = Tuple[str, Tuple[str, ...], Tuple[str, ...]]

#: What a focus contributes to a probe: (the focus, which the entry pins,
#: Code key selection, Process key selection, matched processes).
_Plan = Tuple[Focus, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]


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
        # carried cost per process, and the overhead fraction it converts
        # to — recomputed whenever the cost changes; the engine reads the
        # second table on every compute (a process never charged carries
        # the model's zero-cost overhead)
        self._per_proc_cost: Dict[str, float] = {p: 0.0 for p in engine.procs}
        zero = self.cost_model.overhead_fraction(0.0)
        self._overhead: Dict[str, float] = defaultdict(lambda: zero)
        self.total_requests = 0
        self.total_deletes = 0
        self.total_decimates = 0
        #: Handles deleted since the consumer last cleared the list.  The
        #: search drains it at every pass, so a probe deleted behind its
        #: back (lost instrumentation data) is noticed on the next tick
        #: without looking every live handle up.
        self.deleted_handles: List[int] = []
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
        # attribution cells by (id(parts), id(activity)), the same cells
        # under each routing key whose bucket they draw from, prototypes
        # resolved to their cells by id(prototype) -> (prototype, cell),
        # and how many times the table has been dropped
        self._cells: Dict[Tuple[int, int], _Cell] = {}
        self._cell_index: Dict[_RouteKey, List[_Cell]] = {}
        self._proto_cells: Dict[int, Tuple[dict, _Cell]] = {}
        self._cell_epoch = 0
        # each focus priced or requested: id(focus) -> (focus, Code key,
        # Process key, matched processes), dropped when the engine's
        # process table grows; and each metric's activity values in
        # routing-key order, by metric name
        self._plans: Dict[int, _Plan] = {}
        self._proc_version = engine.proc_table_version
        self._activity_keys: Dict[str, Tuple[Metric, Tuple[str, ...]]] = {}
        # inside batched_reads(): the in-progress snapshot every read of
        # the pass shares, taken by the first read that needs it
        self._batching = False
        self._in_progress_snapshot: Optional[_Snapshot] = None
        engine.add_sink(self)
        engine.add_perturbation_source(self._overhead.__getitem__)

    # ------------------------------------------------------------------
    # process-table tracking
    # ------------------------------------------------------------------
    def _sync_proc_table(self) -> None:
        """Recount matched processes after late process discovery.

        A probe requested before the engine learned about a process would
        otherwise keep normalising by the stale count for the rest of the
        run.  The charged cost is *not* restated — the gate accounted for
        the processes that existed at request time (``charged``).  Callers
        compare the table version first, so a run whose table never grows
        pays one compare per call.
        """
        self._proc_version = self.engine.proc_table_version
        plans = self._plans
        plans.clear()
        for instr in self._active.values():
            instr.processes = (plans.get(id(instr.focus)) or self._plan(instr.focus))[3]

    def _plan(self, focus: Focus) -> _Plan:
        """Work out and cache what a probe on *focus* needs: its Code and
        Process routing-key selections and its matched processes.  The
        entry pins the focus its id key stands for; callers try
        ``self._plans.get(id(focus))`` first."""
        code, proc = _CODE_ROOT, _PROC_ROOT
        for hierarchy, parts in focus.constrained:
            if hierarchy == "Code":
                code = parts
            elif hierarchy == "Process":
                proc = parts
        plans = self._plans
        if len(plans) >= _MEMO_MAX:
            plans.clear()
        plan = plans[id(focus)] = (focus, code, proc, matched_processes(focus, self.engine))
        return plan

    # ------------------------------------------------------------------
    # request / delete
    # ------------------------------------------------------------------
    def pair_cost(self, focus: Focus, persistent: bool = False) -> float:
        if self.engine.proc_table_version != self._proc_version:
            self._sync_proc_table()
        plan = self._plans.get(id(focus)) or self._plan(focus)
        return self.cost_model.pair_cost(len(plan[3]), persistent=persistent)

    def request(self, metric_name: str, focus: Focus, persistent: bool = False) -> int:
        """Insert probes for (metric : focus); returns a read handle.

        The probes become active ``insertion_latency`` seconds after the
        request — the paper notes a reported bottleneck's timestamp starts
        at "the instant of the instrumentation request, plus the time
        required to actually insert the instrumentation".  The probe
        carries its plan — routing keys, matched processes, cost — and
        ``delete()`` reuses it.
        """
        metric = METRICS[metric_name]
        if self.engine.proc_table_version != self._proc_version:
            self._sync_proc_table()
        _, code, proc, procs = self._plans.get(id(focus)) or self._plan(focus)
        cost = self.cost_model.pair_cost(len(procs), persistent=persistent)
        acts = self._activity_keys.get(metric_name)
        if acts is None or acts[0] is not metric:
            acts = self._activity_keys[metric_name] = (
                metric, tuple(sorted(a.value for a in metric.activities)))
        keys = []
        for act in acts[1]:
            keys.append((act, code, proc))
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
            keys=tuple(keys),
        )
        self._active[handle] = instr
        route, cell_index = self._route, self._cell_index
        for key in keys:
            bucket = route.get(key)
            if bucket is None:
                bucket = route[key] = {}
            bucket[handle] = instr
            for cell in cell_index.get(key, ()):
                cell.examined += 1
                if focus.matches_parts(cell.parts):
                    cell.probes[handle] = instr
        self.gate.add(cost)
        per_proc, overhead, model = self._per_proc_cost, self._overhead, self.cost_model
        for p in procs:
            carried = per_proc[p] = per_proc.get(p, 0.0) + cost
            overhead[p] = model.overhead_fraction(carried)
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
        route, cell_index = self._route, self._cell_index
        for key in instr.keys:
            bucket = route.get(key)
            if bucket is not None:
                bucket.pop(handle, None)
                if not bucket:
                    del route[key]
            for cell in cell_index.get(key, ()):
                cell.examined -= 1
                cell.probes.pop(handle, None)
        instr.deleted_at = self.engine.now
        self._accrue_cost()
        self._release_cost(instr)
        self.total_deletes += 1
        self.deleted_handles.append(handle)
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
        """Release a probe's cost and push the new overhead fractions."""
        self.gate.remove(instr.cost)
        # only from the processes charged at request time: a process that
        # joined later never carried this probe's cost
        per_proc, overhead, model = self._per_proc_cost, self._overhead, self.cost_model
        for p in instr.charged:
            carried = per_proc[p] = max(per_proc.get(p, 0.0) - instr.cost, 0.0)
            overhead[p] = model.overhead_fraction(carried)

    # ------------------------------------------------------------------
    # segment routing
    # ------------------------------------------------------------------
    def _build_cell(self, parts: dict, activity: Activity) -> _Cell:
        """Walk the buckets reachable from one attribution, once.

        The candidate buckets sit at every (Code prefix, Process prefix)
        of the attribution; a segment without an attribution in a
        hierarchy can only match probes unconstrained there — exactly
        the root bucket.  The cell is registered under each of those
        keys so ``request()``/``delete()`` find it.
        """
        if len(self._cells) >= _MEMO_MAX:
            # the memo and any snapshot hold cells request()/delete() no
            # longer reach: they go with the table
            self._cells.clear()
            self._cell_index.clear()
            self._proto_cells.clear()
            self._cell_epoch += 1
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

    def _cell_of(self, parts: dict, activity: Activity) -> _Cell:
        cell = self._cells.get((id(parts), id(activity)))
        if cell is None:
            cell = self._build_cell(parts, activity)
        return cell

    def _resolve(self, proto: dict) -> Tuple[dict, _Cell]:
        """Memoize one prototype's cell; the entry pins the prototype."""
        cell = self._cell_of(proto["parts"], proto["activity"])
        memo = self._proto_cells
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        hit = memo[id(proto)] = (proto, cell)
        return hit

    # ------------------------------------------------------------------
    # trace sink
    # ------------------------------------------------------------------
    def record_batch(self, batch: Batch) -> None:
        """Deliver one flush batch of ``(prototype, start, duration)``
        triples, in order."""
        memo = self._proto_cells
        examined = 0
        for proto, start, duration in batch:
            hit = memo.get(id(proto))
            if hit is None:
                hit = self._resolve(proto)
            cell = hit[1]
            examined += cell.examined
            if not cell.probes:
                continue
            # every probe here matches and is live (delete() takes a probe
            # out of its cells before it stamps deleted_at, so the window
            # is open-ended): time metrics add the overlap with the active
            # window, count metrics one per segment that finishes inside it
            end = start + duration
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
        self.segments_routed += len(batch)
        self.probes_examined += examined

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _lookup(self, handle: int) -> ActiveInstrumentation:
        """The live probe of *handle*; ``KeyError`` for an unknown or
        deleted one (the hot reads try ``self._active.get`` first)."""
        instr = self._active.get(handle)
        if instr is None:
            raise KeyError(f"unknown or deleted instrumentation handle {handle}")
        return instr

    @contextmanager
    def batched_reads(self) -> Iterator[None]:
        """Share one in-progress snapshot across every :meth:`read` inside
        the block.

        The evaluation pass reads many handles at one engine instant;
        re-walking the per-process in-progress table for each handle is
        pure waste.  Virtual time cannot advance inside the block (reads
        do not step the engine), so one walk of
        :meth:`~repro.simulator.engine.Engine.in_progress_parts`, each
        entry resolved to its attribution cell, is exact for all of them.
        The first read that needs it takes it: a pass in which no
        conclusion is due never walks the table at all.  Should the cell
        table be dropped during the pass, the walk is resolved again
        against the live cells.
        """
        outer = self.open_batch()
        try:
            yield
        finally:
            self.close_batch(outer)

    def open_batch(self) -> Tuple[bool, Optional[_Snapshot]]:
        """Enter a :meth:`batched_reads` block by hand (the search's tick
        does, once per tick); returns what :meth:`close_batch` restores."""
        outer = self._batching, self._in_progress_snapshot
        self._batching, self._in_progress_snapshot = True, None
        return outer

    def close_batch(self, outer: Tuple[bool, Optional[_Snapshot]]) -> None:
        self._batching, self._in_progress_snapshot = outer

    def elapsed(self, handle: int) -> float:
        """Seconds of data *handle* has observed so far (``KeyError`` for
        an unknown or deleted handle) — the cheap half of :meth:`read`,
        for callers that only want a value once enough has been seen."""
        instr = self._active.get(handle) or self._lookup(handle)
        return max(self.engine.now - instr.active_from, 0.0)

    def read(self, handle: int) -> Tuple[float, float]:
        """Return (accumulated seconds, observed elapsed seconds).

        In-progress activity (e.g. a blocking receive that has not yet
        returned) is included, so reads are exact at any instant.
        """
        instr = self._active.get(handle) or self._lookup(handle)
        now = self.engine.now
        elapsed = max(now - instr.active_from, 0.0)
        if elapsed == 0.0:
            return 0.0, 0.0
        value = instr.accumulated
        if instr.metric.kind == "time":
            # in-progress activity only contributes to time metrics;
            # counts only include completed operations.  An in-progress
            # entry feeds the probes of its attribution cell, the same
            # cell delivery will use (membership implies the metric
            # counts the activity).
            snap = self._in_progress_snapshot
            if snap is None or snap.epoch != self._cell_epoch:
                snap = self._snapshot(snap)
                if self._batching:
                    self._in_progress_snapshot = snap
            for cell, start, end in snap.entries:
                if handle in cell.probes:
                    dt = instr.overlap(start, end)
                    if dt > 0.0:
                        value += dt
        return value, elapsed

    def _snapshot(self, stale: Optional[_Snapshot]) -> _Snapshot:
        """Resolve the engine's in-progress walk (*stale*'s, when the
        cell table was dropped since it was taken) to cells; resolving
        can itself drop the table, and then it starts over."""
        walk = self.engine.in_progress_parts() if stale is None else stale.walk
        cells = self._cells
        while True:
            epoch = self._cell_epoch
            entries = []
            for parts, activity, start, duration in walk:
                cell = cells.get((id(parts), id(activity))) or self._build_cell(parts, activity)
                entries.append((cell, start, start + duration))
            if epoch == self._cell_epoch:
                return _Snapshot(epoch, walk, entries)

    def normalized_read(self, handle: int) -> Tuple[float, float]:
        """Return (fraction, elapsed): accumulated time normalised by
        elapsed × matched-process count (the hypothesis test value)."""
        if self.engine.proc_table_version != self._proc_version:
            self._sync_proc_table()
        instr = self._active.get(handle) or self._lookup(handle)
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
