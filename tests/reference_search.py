"""The per-tick sweep ``PerformanceConsultantSearch`` is held to.

``repro.core.search`` evaluates a pair only when its agenda says the
answer can have changed.  This module is the discipline evaluation
started with: every tick sorts the whole watch set and looks every
watched handle up (so a lost sample shows on the tick it is lost),
computes a value for every pair with ``min_interval`` of data, re-reads
every concluded persistent pair, and asks whether the search is complete
by walking the whole SHG.  Everything else — admission, conclusions,
refinement, the final pass — is the class under test's own code, so a
session run with :class:`ReferenceSearch` differs from a real one only
in *when* pairs are read.  Its records and tracer streams must be the
same bytes.

:func:`reference_search` swaps it into :class:`DiagnosisSession` for the
duration of a ``with`` block.
"""

from contextlib import contextmanager
from typing import List, Optional
from unittest import mock

from repro.core.search import PerformanceConsultantSearch
from repro.core.shg import NodeState, SHGNode


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
    :class:`ReferenceSearch`."""
    with mock.patch("repro.core.consultant.PerformanceConsultantSearch", ReferenceSearch):
        yield
