"""The search and probe bookkeeping ``PerformanceConsultantSearch`` is
held to.

``repro.core.search`` evaluates a pair only when its agenda says the
answer can have changed.  :class:`ReferenceSearch` is the discipline
evaluation started with: every tick sorts the whole watch set and looks
every watched handle up (so a lost sample shows on the tick it is lost),
computes a value for every pair with ``min_interval`` of data, re-reads
every concluded persistent pair, and asks whether the search is complete
by walking the whole SHG.

It also carries the straightforward statement of each pair's lifecycle
before it was made cheap: a true node's child foci are built afresh
through the validating constructor (never from the interned lattice the
search walks); a candidate, and at the start every persistent pair, is
screened by the prune test, the priority lookup and
``SearchHistoryGraph.add`` in turn (each keys the pair itself); the
queue is ordered by a depth summed over every hierarchy; the queue head
is re-priced on every tick; and
:class:`ReferenceManager` derives a probe's routing keys from its focus
and metric at request *and* at delete, recounts matched processes per
focus through ``Focus.hierarchies``, checks the process table through a
call on every read, and looks a handle up once per accessor.  Conclusions,
flips, the agenda's bookkeeping hooks and the final pass are the class
under test's own code, so a session run under :func:`reference_search`
differs from a real one only in *when* pairs are read and in how much a
pair costs to handle.  Its records and tracer streams must be the same
bytes.

:func:`reference_search` swaps both classes into
:class:`DiagnosisSession` for the duration of a ``with`` block.
"""

import heapq
from contextlib import contextmanager
from typing import List, Optional, Tuple
from unittest import mock

from repro.core.directives import ANY_HYPOTHESIS
from repro.core.hypotheses import TOP_LEVEL
from repro.core.search import PerformanceConsultantSearch
from repro.core.shg import NodeState, Priority, SHGNode
from repro.metrics.instrumentation import (
    ActiveInstrumentation,
    InstrumentationManager,
    _Snapshot,
)
from repro.metrics.metric import METRICS
from repro.resources.focus import Focus, whole_program


def is_pruned(directives, hypothesis, focus) -> bool:
    """``DirectiveSet.is_pruned`` as a scan of every hierarchy."""
    if (hypothesis, str(focus)) in directives._pair_prune_index:
        return True
    if not directives._prune_paths:
        return False
    for hyp_key in (hypothesis, ANY_HYPOTHESIS):
        paths = directives._prune_paths.get(hyp_key)
        if not paths:
            continue
        for hier in focus.hierarchies:
            sel = focus.selection_parts(hier)
            if len(sel) == 1:
                continue  # root selection is never pruned away
            for depth in range(1, min(len(sel), directives._prune_max_depth) + 1):
                if sel[:depth] in paths:
                    return True
    return False


def derive_children(focus, space) -> List[Focus]:
    """``Focus.children`` without its process-wide table: each child is
    built by the validating ``Focus(dict)`` constructor over the space's
    own children, hierarchy by hierarchy, in the resource node's order."""
    out = []
    for hier in focus.hierarchies:
        for child in space.hierarchy(hier).children_of(focus.selection(hier)):
            out.append(Focus({**focus.selections(), hier: child.name}))
    return out


def shg_add(shg, hypothesis, focus, parent=None, priority=Priority.MEDIUM):
    """``SearchHistoryGraph.add`` in one piece: ``(node, created)``."""
    key = (hypothesis, str(focus))
    nid = shg._index.get(key)
    if nid is not None:
        node = shg.nodes[nid]
        if parent is not None and parent.node_id != node.node_id:
            node.parents.add(parent.node_id)
            parent.children.add(node.node_id)
        return node, False
    node = SHGNode(node_id=shg._next_id, hypothesis=hypothesis, focus=focus, priority=priority)
    shg._next_id += 1
    shg.nodes[node.node_id] = node
    shg._index[key] = node.node_id
    if parent is not None:
        node.parents.add(parent.node_id)
        parent.children.add(node.node_id)
    return node, True


def depth(focus) -> int:
    """Refinement edges below the whole program, summed per hierarchy."""
    return sum(len(focus.selection_parts(h)) - 1 for h in focus.hierarchies)


def matched_processes(focus, engine) -> Tuple[str, ...]:
    """Process names under *focus*'s Process and Machine selections."""
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


class ReferenceManager(InstrumentationManager):
    """Probe bookkeeping re-derived at every use."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._focus_procs = {}

    def _sync_proc_table(self) -> None:
        version = self.engine.proc_table_version
        if version == self._proc_version:
            return
        self._proc_version = version
        self._focus_procs.clear()
        for instr in self._active.values():
            instr.processes = self._matched(instr.focus)

    def _matched(self, focus) -> Tuple[str, ...]:
        procs = self._focus_procs.get(focus)
        if procs is None:
            procs = matched_processes(focus, self.engine)
            self._focus_procs[focus] = procs
        return procs

    def pair_cost(self, focus, persistent: bool = False) -> float:
        self._sync_proc_table()
        return self.cost_model.pair_cost(len(self._matched(focus)), persistent=persistent)

    def request(self, metric_name: str, focus, persistent: bool = False) -> int:
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
            self._carry(p, self._per_proc_cost.get(p, 0.0) + cost)
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
        self.deleted_handles.append(handle)
        if self.tracer is not None:
            self.tracer.emit("instr-delete", handle=handle, cost=instr.cost)

    def _release_cost(self, instr: ActiveInstrumentation) -> None:
        self.gate.remove(instr.cost)
        for p in instr.charged:
            self._carry(p, max(self._per_proc_cost.get(p, 0.0) - instr.cost, 0.0))

    def _carry(self, proc_name: str, cost: float) -> None:
        self._per_proc_cost[proc_name] = cost
        self._overhead[proc_name] = self.cost_model.overhead_fraction(cost)

    @staticmethod
    def _probe_keys(instr: ActiveInstrumentation) -> List[tuple]:
        focus = instr.focus
        code = (
            focus.selection_parts("Code")
            if "Code" in focus.hierarchies else ("Code",)
        )
        proc = (
            focus.selection_parts("Process")
            if "Process" in focus.hierarchies else ("Process",)
        )
        return [(act, code, proc) for act in sorted(a.value for a in instr.metric.activities)]

    def elapsed(self, handle: int) -> float:
        return max(self.engine.now - self._lookup(handle).active_from, 0.0)

    def read(self, handle: int) -> Tuple[float, float]:
        instr = self._lookup(handle)
        now = self.engine.now
        elapsed = max(now - instr.active_from, 0.0)
        if elapsed == 0.0:
            return 0.0, 0.0
        value = instr.accumulated
        if instr.metric.kind == "time":
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
        walk = self.engine.in_progress_parts() if stale is None else stale.walk
        cell_of = self._cell_of
        while True:
            epoch = self._cell_epoch
            entries = [
                (cell_of(parts, activity), start, start + duration)
                for parts, activity, start, duration in walk
            ]
            if epoch == self._cell_epoch:
                return _Snapshot(epoch, walk, entries)

    def normalized_read(self, handle: int) -> Tuple[float, float]:
        self._sync_proc_table()
        instr = self._lookup(handle)
        value, elapsed = self.read(handle)
        denom = elapsed * max(len(instr.processes), 1)
        return (value / denom if denom > 0 else 0.0), elapsed


class ReferenceSearch(PerformanceConsultantSearch):
    """Every tick evaluates every watched node, in node_id order."""

    def tick(self) -> None:
        self._rescan_if_grown()
        self._evaluate_active(self.config.min_interval)
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
                scanned=0,
            )
        if self.done_at is None and self.is_complete():
            self.done_at = self.engine.now
            if self.config.stop_engine_when_done:
                self.engine.stop()

    # -- candidates ----------------------------------------------------------
    def start(self) -> None:
        """The search start with each persistent pair keyed by the prune
        test and by ``shg_add`` in turn; a pair on a hypothesis the tree
        cannot test is skipped."""
        if self._started:
            raise RuntimeError("search already started")
        self._started = True
        root, _ = shg_add(self.shg, TOP_LEVEL, whole_program(self.space))
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
        for pd in self.directives.high_priority_pairs():
            if pd.hypothesis not in self.hypotheses:
                continue
            if self.hypotheses.get(pd.hypothesis).is_virtual:
                continue
            if is_pruned(self.directives, pd.hypothesis, pd.focus):
                continue
            node, created = shg_add(self.shg, pd.hypothesis, pd.focus, parent=root,
                                    priority=Priority.HIGH)
            if created:
                node.persistent = True
                self._enqueue(node)
        wp = whole_program(self.space)
        for child in self.hypotheses.children(TOP_LEVEL):
            self._consider(child.name, wp, parent=root)
        self.engine.schedule_periodic(self.config.check_period, lambda _: self.tick())
        self.engine.on_finish(lambda _: self.final_pass())

    def _consider(self, hypothesis: str, focus, parent: SHGNode) -> None:
        if is_pruned(self.directives, hypothesis, focus):
            node, created = shg_add(self.shg, hypothesis, focus, parent=parent)
            if created:
                node.state = NodeState.PRUNED
                if self.tracer is not None:
                    self.tracer.emit(
                        "node-pruned", node=node.node_id,
                        hypothesis=hypothesis, focus=str(focus),
                    )
            return
        priority = self.directives.priority_of(hypothesis, focus)
        node, created = shg_add(self.shg, hypothesis, focus, parent=parent, priority=priority)
        if created:
            if priority is Priority.HIGH:
                node.persistent = True
            self._enqueue(node)

    def _enqueue(self, node: SHGNode) -> None:
        heapq.heappush(
            self._pending,
            (int(node.priority), depth(node.focus), next(self._seq), node.node_id),
        )
        if self.tracer is not None:
            self.tracer.emit(
                "node-queued", node=node.node_id, hypothesis=node.hypothesis,
                focus=str(node.focus), priority=str(node.priority),
                persistent=node.persistent,
            )

    def _refine(self, node: SHGNode) -> None:
        for child_h in self.hypotheses.children(node.hypothesis):
            self._consider(child_h.name, node.focus, parent=node)
        for child_f in derive_children(node.focus, self.space):
            self._consider(node.hypothesis, child_f, parent=node)

    def _expand(self) -> None:
        while self._pending:
            _, _, _, node_id = self._pending[0]
            node = self.shg.nodes[node_id]
            if node.state is not NodeState.QUEUED:
                heapq.heappop(self._pending)
                continue
            cost = self.instr.pair_cost(node.focus, persistent=node.persistent)
            if not self.instr.gate.can_admit(cost):
                break
            heapq.heappop(self._pending)
            metric = self.hypotheses.get(node.hypothesis).metric
            if self.tracer is not None:
                self.tracer.emit(
                    "gate-admit", node=node.node_id, cost=cost,
                    total=self.instr.gate.total,
                )
            node.handle = self.instr.request(metric, node.focus, persistent=node.persistent)
            node.t_requested = self.engine.now
            node.state = NodeState.ACTIVE
            self._watched[node.node_id] = node
            self._by_handle[node.handle] = node
            self._schedule(node, self.instr.instrumentation(node.handle).active_from
                           + self.config.min_interval)
            if self.tracer is not None:
                self.tracer.emit(
                    "node-active", node=node.node_id, handle=node.handle, cost=cost,
                )

    # -- evaluation ----------------------------------------------------------
    def _active_nodes(self) -> List[SHGNode]:
        out: List[SHGNode] = []
        stale: List[int] = []
        for nid in sorted(self._watched):
            n = self._watched[nid]
            if n.handle is not None and (
                n.state is NodeState.ACTIVE or (n.persistent and n.concluded)
            ):
                out.append(n)
            else:
                stale.append(nid)
        for nid in stale:
            del self._watched[nid]
        return out

    def _evaluate_active(self, min_interval: float, force: bool = False) -> None:
        with self.instr.batched_reads():
            self._evaluate_nodes(self._active_nodes(), min_interval, force)

    def _evaluate_nodes(
        self, nodes: List[SHGNode], min_interval: float, force: bool = False
    ) -> None:
        for node in nodes:
            try:
                if self.instr.elapsed(node.handle) < min_interval:
                    continue
                frac, elapsed = self.instr.normalized_read(node.handle)
            except KeyError:
                if node.concluded:
                    node.quality = "lost instrumentation sample"
                    node.handle = None
                    self._unwatch(node)
                    if self.tracer is not None:
                        self.tracer.emit(
                            "node-sample-lost", node=node.node_id,
                            reason=node.quality,
                        )
                else:
                    self._mark_unknown(node, "lost instrumentation sample")
                continue
            node.value = frac
            threshold = self.threshold(node.hypothesis)
            is_true = frac > threshold
            if node.state is NodeState.ACTIVE:
                borderline = abs(frac - threshold) <= self.config.noise_band
                decisive = elapsed >= self.config.decisive_factor * min_interval
                if borderline and not decisive and not force:
                    continue
                self._conclude(node, is_true)
            elif node.persistent and node.concluded:
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

    def is_complete(self) -> bool:
        if any(
            self.shg.nodes[nid].state is NodeState.QUEUED for _, _, _, nid in self._pending
        ):
            return False
        for node in self.shg:
            if node.state in (NodeState.ACTIVE, NodeState.QUEUED):
                return False
        return True


@contextmanager
def reference_search():
    """Run every :class:`DiagnosisSession` begun inside the block on
    :class:`ReferenceSearch` and :class:`ReferenceManager`."""
    with mock.patch("repro.core.consultant.PerformanceConsultantSearch", ReferenceSearch), \
            mock.patch("repro.core.consultant.InstrumentationManager", ReferenceManager):
        yield
