"""The Performance Consultant's online bottleneck search.

This is the paper's enhanced Performance Consultant: a top-down search of
the (hypothesis : focus) space driven by online dynamic instrumentation,
extended with the three directive mechanisms of Section 3:

* **prunes** remove candidate tests before they are ever queued;
* **priorities** order the pending queue, and High pairs are instrumented
  at search start and kept *persistent* (tested for the whole run);
* **thresholds** replace per-hypothesis defaults.

Search expansion is gated by the instrumentation cost model — when the
total enabled cost reaches the critical threshold, expansion halts until
deletions (triggered by false conclusions) bring the cost back down,
exactly the halt/resume behaviour described in Section 2.

Evaluation follows conclusions, not the watch set.  An *agenda* (a heap
of due virtual time and node id) holds the instant each watched pair can
next change its answer: a new pair once it has ``min_interval`` of data,
an undecided borderline pair on the next tick, and a concluded
persistent pair once its value can have crossed the noise band around
its threshold (a time metric gains at most one second per matched
process per second).  A tick evaluates only the entries due by then, in
node-id order, plus any pair whose handle the instrumentation manager
reports deleted since the last pass.  The record keeps the last value
read, so the tick the search completes on and any tick after the program
ended read every watched pair, as the per-tick sweep did.

A pair is paid for once on its way through consider → admit → read →
conclude → delete → refine: a candidate is looked up in the SHG before
anything else (an existing pair only gains a parent edge), and a new one
is screened by the directives in one call; a queue head the cost gate
blocks keeps its price until the head or the process table changes; the
probe carries the plan ``request()`` made for it; and a tick enters its
read batch by hand.  ``tests/reference_search.py`` is the oracle this
class is held to: the per-tick sweep, with the pair lifecycle as it was
before it was made cheap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..metrics.instrumentation import InstrumentationManager
from ..metrics.metric import METRICS
from ..obs.trace import Tracer
from ..resources.focus import Focus, whole_program
from ..resources.resource import ResourceSpace
from ..simulator.engine import Engine
from .directives import DirectiveSet
from .hypotheses import TOP_LEVEL, HypothesisTree, standard_tree
from .shg import NodeState, Priority, SearchHistoryGraph, SHGNode

__all__ = ["SearchConfig", "PerformanceConsultantSearch"]

#: Relative hair taken off every agenda entry, so float rounding can make
#: a pair due one look early (the exact test then re-checks it) but never
#: late.
_SLACK = 1e-9


@dataclass
class SearchConfig:
    """Tunable parameters of the online search.

    ``min_interval`` is the simulated seconds of data required before a
    conclusion ("each conclusion ... is determined once a set time
    interval of data has been received", Section 4.1); ``check_period`` is
    the evaluation cadence; ``final_interval`` is the relaxed data
    requirement applied when the program ends with tests still active.
    """

    min_interval: float = 40.0
    check_period: float = 2.0
    final_interval: float = 5.0
    cost_limit: float = 6.0
    insertion_latency: float = 2.0
    #: Adaptive conclusions: a value within ``noise_band`` of the threshold
    #: keeps collecting until ``decisive_factor * min_interval`` elapsed,
    #: so borderline tests do not flip between repeated runs.
    noise_band: float = 0.04
    decisive_factor: float = 3.0
    threshold_overrides: Dict[str, float] = field(default_factory=dict)
    stop_engine_when_done: bool = False
    #: Emit the tracer ``progress`` event every N ticks (default every
    #: tick).  Large searches tick thousands of times; raising this keeps
    #: per-tick stat polling from dominating the trace file.
    progress_every: int = 1


def _weak_hook(search: "PerformanceConsultantSearch", name: str) -> Callable[[Engine], None]:
    """An engine hook calling ``search.<name>()`` while the search lives.
    The search holds its engine, so the hooks the engine holds reach the
    search only weakly: a strong hook would be a reference cycle."""
    ref = weakref.ref(search)

    def hook(_engine: Engine) -> None:
        target = ref()
        if target is not None:
            getattr(target, name)()

    return hook


def _engine_clock(engine: Engine) -> Callable[[], float]:
    """A tracer clock reading *engine*'s virtual time.  A caller may keep
    its tracer after the session ends, so the clock reaches the engine
    only weakly; once the engine is freed it reads the last time seen."""
    ref = weakref.ref(engine)
    last = 0.0

    def clock() -> float:
        nonlocal last
        live = ref()
        if live is not None:
            last = live.now
        return last

    return clock


class PerformanceConsultantSearch:
    """One online diagnosis over a live engine."""

    def __init__(
        self,
        engine: Engine,
        instrumentation: InstrumentationManager,
        space: ResourceSpace,
        hypotheses: Optional[HypothesisTree] = None,
        directives: Optional[DirectiveSet] = None,
        config: Optional[SearchConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.instr = instrumentation
        self.space = space
        self.hypotheses = hypotheses or standard_tree()
        self.directives = directives or DirectiveSet()
        self.config = config or SearchConfig()
        #: Optional structured trace sink; every emission is guarded by a
        #: ``None`` check so an untraced run pays nothing.
        self.tracer = tracer
        if tracer is not None:
            tracer.clock = _engine_clock(engine)
            instrumentation.tracer = tracer
            instrumentation.gate.on_transition = (
                lambda kind, **data: tracer.emit(kind, **data)
            )
        self.shg = SearchHistoryGraph()
        self._pending: List[Tuple[int, int, int, int]] = []  # (prio, depth, seq, node_id)
        self._seq = itertools.count()
        self._started = False
        self.done_at: Optional[float] = None
        self._space_version = space.version
        self._thresholds = self._resolve_thresholds()
        #: Hypotheses whose metric accumulates time (the flip bound holds
        #: for these only; a count metric can jump at any instant).
        self._timed = {
            h.name for h in self.hypotheses.testable() if METRICS[h.metric].kind == "time"
        }
        self._metrics = {h.name: h.metric for h in self.hypotheses.testable()}
        #: The queue head ``_expand`` last priced, the process-table
        #: version it was priced at, and its cost: a head the gate blocks
        #: is not re-priced every tick.
        self._priced: Tuple[Optional[SHGNode], int, float] = (None, -1, 0.0)
        #: Nodes with a live read handle, maintained incrementally on
        #: state transitions (node_id -> node), and by handle, to map the
        #: manager's deletion record back to nodes.
        self._watched: Dict[int, SHGNode] = {}
        self._by_handle: Dict[int, SHGNode] = {}
        #: The agenda: heap of (due virtual time, node_id), and each
        #: watched node's one live due time; a heap entry that no longer
        #: matches it is stale and skipped.
        self._agenda: List[Tuple[float, int]] = []
        self._due: Dict[int, float] = {}
        #: What voids the agenda: the denominator changed, or a process's
        #: in-flight activity was dropped (see :meth:`_due_nodes`).
        self._engine_version = (engine.proc_table_version, engine.disruptions)
        self._ticks = 0
        self._progress_every = max(1, int(self.config.progress_every))

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def _resolve_thresholds(self) -> Dict[str, float]:
        """Directive thresholds override config overrides override
        hypothesis defaults."""
        out: Dict[str, float] = {}
        for h in self.hypotheses.testable():
            value = self.directives.threshold_of(h.name)
            if value is None:
                value = self.config.threshold_overrides.get(h.name)
            if value is None:
                value = h.default_threshold
            out[h.name] = value
        return out

    def threshold(self, hypothesis: str) -> float:
        return self._thresholds[hypothesis]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create the SHG root, seed the search, and hook the engine."""
        if self._started:
            raise RuntimeError("search already started")
        self._started = True
        root, _ = self.shg.add(TOP_LEVEL, whole_program(self.space))
        root.state = NodeState.TRUE
        root.t_concluded = self.engine.now
        if self.tracer is not None:
            self.tracer.emit(
                "node-queued", node=root.node_id, hypothesis=root.hypothesis,
                focus=str(root.focus), priority=str(root.priority), persistent=False,
            )
            self.tracer.emit(
                "node-concluded", node=root.node_id, state=root.state.value,
                value=None, threshold=None,
            )

        # High-priority directives are instrumented at search start and are
        # persistent (paper, Section 3.1).  Pruning directives are applied
        # to the directive list first (Section 3.2 applies prunes to the
        # extracted directives "for increased efficiency"), so a combined
        # prune+priority configuration starts fewer persistent tests.
        # Each pair is keyed once, as in _consider: a pair already in the
        # SHG (a repeated directive) only gains the root edge.  A pair on
        # a hypothesis the tree cannot test (unknown, or the virtual root)
        # is skipped.
        for pd in self.directives.high_priority_pairs():
            if pd.hypothesis not in self._metrics:
                continue
            key = (pd.hypothesis, str(pd.focus))
            if self.shg.link(key, root) is not None:
                continue
            if self.directives.screen(key, pd.focus) is None:
                continue
            node = self.shg.create(key, pd.focus, root, Priority.HIGH)
            node.persistent = True
            self._enqueue(node)

        # The default top-down start: the three top hypotheses at the
        # whole-program focus.
        wp = whole_program(self.space)
        for child in self.hypotheses.children(TOP_LEVEL):
            self._consider(child.name, wp, parent=root)

        self.engine.schedule_periodic(self.config.check_period, _weak_hook(self, "tick"))
        self.engine.on_finish(_weak_hook(self, "final_pass"))

    # ------------------------------------------------------------------
    # candidate handling
    # ------------------------------------------------------------------
    def _consider(self, hypothesis: str, focus: Focus, parent: SHGNode) -> None:
        """Queue a candidate pair unless pruned or already present.  An
        existing pair only gains a parent edge, so the SHG is asked
        first, and the directives only of a new pair."""
        key = (hypothesis, str(focus))
        if self.shg.link(key, parent) is not None:
            return
        priority = self.directives.screen(key, focus)
        if priority is None:
            node = self.shg.create(key, focus, parent)
            node.state = NodeState.PRUNED
            if self.tracer is not None:
                self.tracer.emit(
                    "node-pruned", node=node.node_id,
                    hypothesis=hypothesis, focus=key[1],
                )
            return
        node = self.shg.create(key, focus, parent, priority)
        if priority is Priority.HIGH:
            node.persistent = True
        self._enqueue(node)

    def _enqueue(self, node: SHGNode) -> None:
        heapq.heappush(
            self._pending,
            (int(node.priority), node.focus.depth(), next(self._seq), node.node_id),
        )
        if self.tracer is not None:
            self.tracer.emit(
                "node-queued", node=node.node_id, hypothesis=node.hypothesis,
                focus=str(node.focus), priority=str(node.priority),
                persistent=node.persistent,
            )

    def _refine(self, node: SHGNode) -> None:
        """Expand a true node: more specific hypotheses at the same focus,
        and the same hypothesis at every child focus (paper, Section 2)."""
        for child_h in self.hypotheses.children(node.hypothesis):
            self._consider(child_h.name, node.focus, parent=node)
        for child_f in node.focus.children(self.space):
            self._consider(node.hypothesis, child_f, parent=node)

    # ------------------------------------------------------------------
    # the periodic search step
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Evaluate the pairs due now, admit what the gate allows, and
        note completion.  Virtual time stands still for the whole tick,
        so every read in it shares one in-progress snapshot."""
        if self.space.version != self._space_version:
            self._rescan_if_grown()
        min_interval = self.config.min_interval
        outer = self.instr.open_batch()
        try:
            due = self._due_nodes()
            if due:
                self._evaluate_nodes(due, min_interval)
            self._expand()
            self._ticks += 1
            if self.tracer is not None and self._ticks % self._progress_every == 0:
                self.tracer.emit(
                    "progress",
                    events=self.engine.events_processed,
                    cost=self.instr.total_cost,
                    active=self.instr.active_count,
                    pending=len(self._pending),
                    routed=self.instr.segments_routed,
                    scanned=0,  # field of a persisted trace format tests/golden hashes
                )
            if self.done_at is None and self.is_complete():
                self.done_at = self.engine.now
                # The record keeps the last value read, and a persistent
                # pair's is this tick's: the engine may stop right here.
                read = {node.node_id for node in due}
                self._evaluate_nodes(
                    [n for n in self._watched_nodes() if n.node_id not in read],
                    min_interval)
                if self.config.stop_engine_when_done:
                    self.engine.stop()
        finally:
            self.instr.close_batch(outer)

    def _rescan_if_grown(self) -> None:
        """Late resource discovery: when the resource space has grown
        since the last tick (a DiscoverySink registered a new tag,
        process, or code object), re-refine every true node so the new
        resources enter the search (paper Section 6 future work).  The
        SHG deduplicates, so re-refinement only queues genuinely new
        candidates."""
        if self.space.version == self._space_version:
            return
        self._space_version = self.space.version
        self.done_at = None
        for node in list(self.shg):
            if node.state is NodeState.TRUE and not self.hypotheses.get(node.hypothesis).is_virtual:
                self._refine(node)

    def _watch(self, node: SHGNode) -> None:
        """Register a node with a live read handle, due once it has
        ``min_interval`` seconds of data."""
        self._watched[node.node_id] = node
        self._by_handle[node.handle] = node
        active_from = self.instr.instrumentation(node.handle).active_from
        self._schedule(node, active_from + self.config.min_interval)

    def _unwatch(self, node: SHGNode) -> None:
        self._watched.pop(node.node_id, None)
        self._due.pop(node.node_id, None)

    def _schedule(self, node: SHGNode, at: float) -> None:
        """Put a watched node on the agenda at virtual time *at* (less
        the rounding hair); ``inf`` means only a full pass reads it."""
        if at != math.inf:
            at -= _SLACK * (1.0 + abs(at))
            heapq.heappush(self._agenda, (at, node.node_id))
        self._due[node.node_id] = at

    def _watched_nodes(self, ids: Optional[Iterable[int]] = None) -> List[SHGNode]:
        """The watched nodes among *ids* (default: all of them), in the
        order given (default: node_id order).  Entries that stopped
        satisfying the predicate through an out-of-band mutation are
        dropped here."""
        out: List[SHGNode] = []
        watched = self._watched
        for nid in sorted(watched) if ids is None else ids:
            n = watched.get(nid)
            if n is None:
                continue
            if n.handle is not None and (
                n.state is NodeState.ACTIVE or (n.persistent and n.concluded)
            ):
                out.append(n)
            else:
                self._unwatch(n)
        return out

    def _due_nodes(self) -> List[SHGNode]:
        """The nodes this tick evaluates, in node_id order: the agenda's
        entries due by now, plus every watched node whose handle the
        instrumentation manager deleted since the last pass (so a lost
        sample shows on the next tick, as when every tick looked every
        handle up).

        A tick reads the whole watch set instead when it fires after the
        program ended (the record keeps the last value read), or when the
        process table grew or a process crashed or hung since the last
        tick (the flip bound assumed neither).
        """
        ids = set()
        deleted = self.instr.deleted_handles
        if deleted:
            for handle in deleted:
                node = self._by_handle.pop(handle, None)
                if node is not None and node.handle == handle:
                    ids.add(node.node_id)
            deleted.clear()
        engine = self.engine
        version = (engine.proc_table_version, engine.disruptions)
        if version != self._engine_version or engine.all_done():
            self._engine_version = version
            return self._watched_nodes()
        now = engine.now
        agenda, due = self._agenda, self._due
        while agenda and agenda[0][0] <= now:
            at, nid = heapq.heappop(agenda)
            if due.get(nid) == at:
                del due[nid]
                ids.add(nid)
        return self._watched_nodes(sorted(ids)) if ids else []

    def _next_read(self, node: SHGNode, frac: float, elapsed: float) -> float:
        """When a concluded persistent pair must next be read: the
        earliest instant its value can have crossed the noise band.

        A time metric gains at most one second per matched process per
        second (``tests/test_search_agenda.py`` checks that premise), so
        from fraction ``f`` after ``E`` seconds the fraction ``d`` seconds
        later lies in ``[f*E/(E+d), (f*E+d)/(E+d)]``.  A TRUE pair cannot
        fall below ``L = threshold - noise_band`` before ``E*(f-L)/L``, a
        FALSE one cannot rise above ``U = threshold + noise_band`` before
        ``E*(U-f)/(1-U)``.  A count metric, or a run in which a process
        crashed or hung, is read on the next tick.
        """
        now = self.engine.now
        if node.hypothesis not in self._timed or self.engine.disruptions:
            return now
        threshold = self.threshold(node.hypothesis)
        band = self.config.noise_band
        if node.state is NodeState.TRUE:
            low = threshold - band
            if low <= 0.0:
                return math.inf
            wait = elapsed * (frac - low) / low
        else:
            high = threshold + band
            if high >= 1.0:
                return math.inf
            wait = elapsed * (high - frac) / (1.0 - high)
        return now + max(wait, 0.0)

    def _evaluate_active(self, min_interval: float, force: bool = False) -> None:
        """A full pass: evaluate every watched node (the final pass)."""
        with self.instr.batched_reads():
            self._evaluate_nodes(self._watched_nodes(), min_interval, force)

    def _evaluate_nodes(
        self, nodes: List[SHGNode], min_interval: float, force: bool = False
    ) -> None:
        """Evaluate *nodes* in order.  Every node that stays watched goes
        back on the agenda at the next instant its answer can change."""
        now = self.engine.now
        for node in nodes:
            # The value (a walk over in-progress activity) is only
            # computed once a conclusion can be due.
            try:
                if self.instr.elapsed(node.handle) < min_interval:
                    active_from = self.instr.instrumentation(node.handle).active_from
                    self._schedule(node, active_from + min_interval)
                    continue
                frac, elapsed = self.instr.normalized_read(node.handle)
            except KeyError:
                # The sample vanished (lost instrumentation data).
                if node.concluded:
                    # A persistent pair that already concluded keeps its
                    # conclusion — only the ongoing watch is lost; wiping
                    # it to UNKNOWN would silently drop a confirmed
                    # bottleneck from extraction.
                    node.quality = "lost instrumentation sample"
                    node.handle = None
                    self._unwatch(node)
                    if self.tracer is not None:
                        self.tracer.emit(
                            "node-sample-lost", node=node.node_id,
                            reason=node.quality,
                        )
                else:
                    # Undecided: mark this one pair unknown and keep
                    # searching the surviving foci instead of aborting
                    # the whole diagnosis.
                    self._mark_unknown(node, "lost instrumentation sample")
                continue
            node.value = frac
            threshold = self._thresholds[node.hypothesis]
            is_true = frac > threshold
            if node.state is NodeState.ACTIVE:
                borderline = abs(frac - threshold) <= self.config.noise_band
                decisive = elapsed >= self.config.decisive_factor * min_interval
                if borderline and not decisive and not force:
                    self._schedule(node, now)  # keeps collecting: next tick
                    continue
                self._conclude(node, is_true)
                if not node.persistent:
                    continue
            elif node.persistent and node.concluded:
                # Persistent tests continue for the whole run and may flip
                # in either direction; the flip needs to clear the noise
                # band around the threshold (hysteresis), so a value
                # hovering at the threshold cannot oscillate every tick.
                flip_to: Optional[NodeState] = None
                if node.state is NodeState.FALSE and frac > threshold + self.config.noise_band:
                    flip_to = NodeState.TRUE
                elif node.state is NodeState.TRUE and frac < threshold - self.config.noise_band:
                    flip_to = NodeState.FALSE
                if flip_to is not None:
                    was = node.state
                    node.state = flip_to
                    node.t_concluded = self.engine.now
                    if self.tracer is not None:
                        self.tracer.emit(
                            "node-flip", node=node.node_id,
                            **{"from": was.value, "to": flip_to.value},
                            value=frac, threshold=threshold,
                        )
                    if flip_to is NodeState.TRUE:
                        self._refine(node)
            self._schedule(node, self._next_read(node, frac, elapsed))

    def _mark_unknown(self, node: SHGNode, reason: str) -> None:
        """Give up on one pair with a data-quality annotation; the search
        continues elsewhere (graceful degradation)."""
        node.state = NodeState.UNKNOWN
        node.quality = reason
        if node.handle is not None:
            self.instr.delete(node.handle)
            node.handle = None
        self._unwatch(node)
        if self.tracer is not None:
            self.tracer.emit("node-unknown", node=node.node_id, reason=reason)

    def _conclude(self, node: SHGNode, is_true: bool) -> None:
        node.state = NodeState.TRUE if is_true else NodeState.FALSE
        node.t_concluded = self.engine.now
        if self.tracer is not None:
            self.tracer.emit(
                "node-concluded", node=node.node_id, state=node.state.value,
                value=node.value, threshold=self.threshold(node.hypothesis),
            )
        if node.persistent:
            # Persistent tests keep watching for the whole run, but at a
            # decimated sampling rate that releases their cost-gate share.
            self.instr.decimate(node.handle)
        else:
            self.instr.delete(node.handle)
            node.handle = None
            self._unwatch(node)
        if is_true:
            self._refine(node)

    def _expand(self) -> None:
        """Instrument pending candidates in priority order while the cost
        gate admits them.  Admission is strictly in queue order — when the
        head does not fit, expansion halts (Section 2)."""
        pending = self._pending
        nodes = self.shg.nodes
        instr = self.instr
        gate = instr.gate
        version = self.engine.proc_table_version
        while pending:
            node = nodes[pending[0][3]]
            if node.state is not NodeState.QUEUED:
                heapq.heappop(pending)
                continue
            priced, priced_at, cost = self._priced
            if priced is not node or priced_at != version:
                cost = instr.pair_cost(node.focus, persistent=node.persistent)
                self._priced = (node, version, cost)
            if not gate.can_admit(cost):
                break
            heapq.heappop(pending)
            if self.tracer is not None:
                self.tracer.emit(
                    "gate-admit", node=node.node_id, cost=cost,
                    total=gate.total,
                )
            node.handle = handle = instr.request(
                self._metrics[node.hypothesis], node.focus, persistent=node.persistent)
            node.t_requested = self.engine.now
            node.state = NodeState.ACTIVE
            self._watch(node)
            if self.tracer is not None:
                self.tracer.emit(
                    "node-active", node=node.node_id, handle=handle, cost=cost,
                )

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def final_pass(self, reason: Optional[str] = None) -> None:
        """The program ended: conclude what has enough data, mark the rest.

        ``reason`` annotates the leftover pairs when the run ended
        abnormally (deadlock, watchdog timeout, injected fault), so a
        degraded record explains *why* each pair has no conclusion."""
        self._evaluate_active(self.config.final_interval, force=True)
        for node in self.shg:
            if node.state is NodeState.ACTIVE:
                self._mark_unknown(node, reason or "insufficient data at program end")
            elif node.state is NodeState.QUEUED:
                node.state = NodeState.NEVER_RUN
                if reason is not None:
                    node.quality = reason
                if self.tracer is not None:
                    self.tracer.emit("node-never-run", node=node.node_id)
        if self.done_at is None:
            self.done_at = self.engine.now
        if self.tracer is not None:
            self.tracer.emit("run-end", reason=reason)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """True when nothing is pending and every instrumented test has
        reached a conclusion at least once.

        A watched ACTIVE node or a QUEUED pending entry answers at once;
        the SHG is walked only when both say done, so a state mutated
        out of band is still seen."""
        for node in self._watched.values():
            if node.state is NodeState.ACTIVE:
                return False
        nodes = self.shg.nodes
        for _, _, _, nid in self._pending:
            if nodes[nid].state is NodeState.QUEUED:
                return False
        for node in self.shg:
            if node.state in (NodeState.ACTIVE, NodeState.QUEUED):
                return False
        return True

    def true_pairs(self) -> List[Tuple[str, str]]:
        return [
            (n.hypothesis, str(n.focus))
            for n in self.shg.true_nodes()
            if n.hypothesis != TOP_LEVEL
        ]
