"""Run records: everything one diagnosis leaves behind.

"After each run of the Performance Consultant, we have the search history
graph and the program's resource hierarchies" (paper, Section 3.2) — plus,
in this reproduction, the flat postmortem profile (the paper's future-work
"raw data needed to test hypotheses postmortem") and instrumentation
statistics.  A :class:`RunRecord` is the self-contained unit the
experiment store persists and directive extraction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.shg import NodeState, SearchHistoryGraph
from ..metrics.profile import FlatProfile
from ..resources.resource import ResourceSpace
from .codec import encode

__all__ = ["RunRecord"]

#: Which memoised reconstruction each serialised field backs: reassigning
#: the field drops the cached object (see ``RunRecord.__setattr__``).
_MEMO_DEPS = {
    "shg_nodes": ("shg",),
    "hierarchies": ("space",),
    "profile": ("flat_profile",),
}
#: The serialised node states the pair queries test, read once here
#: instead of through the enum per node.
_TRUE = NodeState.TRUE.value
_FALSE = NodeState.FALSE.value


@dataclass
class RunRecord:
    """A complete, serialisable description of one diagnosed execution.

    The reconstruction helpers (:meth:`shg`, :meth:`space`,
    :meth:`flat_profile`) and the codec text (:meth:`encoded`) are
    memoised: history consumers call them per query, and rebuilding a
    :class:`FlatProfile` from its dict on every access dominated
    cross-run extraction.  The cache is invalidated when the backing
    field is *reassigned*; mutating a backing container in
    place (``record.shg_nodes.append(...)``) is not detectable — call
    :meth:`invalidate_caches` after doing so.
    """

    run_id: str
    app_name: str
    version: str
    n_processes: int
    nodes: List[str]
    placement: Dict[str, str]
    hierarchies: Dict[str, List[str]]
    shg_nodes: List[dict]
    profile: dict
    finish_time: float
    search_done_time: Optional[float]
    pairs_tested: int
    total_requests: int
    peak_cost: float
    thresholds: Dict[str, float] = field(default_factory=dict)
    config: Dict[str, float] = field(default_factory=dict)
    notes: str = ""
    #: "complete" for a normal run; "degraded" when the run ended on a
    #: simulator failure (deadlock, watchdog timeout, injected fault) and
    #: the record holds only the data gathered before the failure.
    status: str = "complete"
    #: The simulator failure that degraded the run, as one line of text.
    failure: Optional[str] = None
    #: Fraction of instrumented (hypothesis : focus) pairs that reached a
    #: full-data conclusion — directives harvested below 1.0 are suspect.
    coverage: float = 1.0
    #: Observability: per-run scalar metrics (events/sec, virtual-vs-wall
    #: ratio, cost statistics, pair counts, ...) as produced by
    #: :func:`repro.obs.metrics.run_metrics`.  Empty for records from
    #: older stores.
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # memoisation plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name, value) -> None:
        memo = self.__dict__.get("_memo")
        if memo:
            memo.pop("encoded", None)  # every field feeds the codec text
            for key in _MEMO_DEPS.get(name, ()):
                memo.pop(key, None)
        object.__setattr__(self, name, value)

    def invalidate_caches(self) -> None:
        """Drop every memoised reconstruction (needed after mutating a
        backing container in place — reassignment invalidates on its own)."""
        self.__dict__["_memo"] = {}

    def _memoised(self, key: str, build):
        memo = self.__dict__.setdefault("_memo", {})
        try:
            return memo[key]
        except KeyError:
            memo[key] = value = build()
            return value

    # ------------------------------------------------------------------
    # reconstruction helpers
    # ------------------------------------------------------------------
    def shg(self) -> SearchHistoryGraph:
        return self._memoised(
            "shg", lambda: SearchHistoryGraph.from_dicts(self.shg_nodes)
        )

    def space(self) -> ResourceSpace:
        def build() -> ResourceSpace:
            space = ResourceSpace(tuple(self.hierarchies))
            for hierarchy, names in self.hierarchies.items():
                for name in names:
                    if name != f"/{hierarchy}":
                        space.add(name)
            return space

        return self._memoised("space", build)

    def flat_profile(self) -> FlatProfile:
        return self._memoised(
            "flat_profile", lambda: FlatProfile.from_dict(self.profile)
        )

    # ------------------------------------------------------------------
    # common queries
    # ------------------------------------------------------------------
    def true_pairs(self) -> List[Tuple[str, str]]:
        """(hypothesis, focus string) for every bottleneck found."""
        return [
            (n["hypothesis"], n["focus"])
            for n in self.shg_nodes
            if n["state"] == _TRUE
            and n["hypothesis"] != "TopLevelHypothesis"
        ]

    def false_pairs(self) -> List[Tuple[str, str]]:
        return [
            (n["hypothesis"], n["focus"])
            for n in self.shg_nodes
            if n["state"] == _FALSE
        ]

    def found_times(self) -> Dict[Tuple[str, str], float]:
        """Conclusion timestamp for every true pair."""
        out: Dict[Tuple[str, str], float] = {}
        for n in self.shg_nodes:
            if (
                n["state"] == _TRUE
                and n["hypothesis"] != "TopLevelHypothesis"
                and n.get("t_concluded") is not None
            ):
                out[(n["hypothesis"], n["focus"])] = n["t_concluded"]
        return out

    def time_to_find_all(self) -> Optional[float]:
        times = self.found_times().values()
        return max(times) if times else None

    def bottleneck_count(self) -> int:
        return len(self.true_pairs())

    @property
    def degraded(self) -> bool:
        return self.status != "complete"

    def efficiency(self) -> float:
        """Bottlenecks found per pair tested (Table 2's final column)."""
        tested = self.pairs_tested
        return self.bottleneck_count() / tested if tested else 0.0

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def encoded(self) -> str:
        """The codec text of :meth:`to_dict` (:mod:`repro.storage.codec`):
        what a store writes and a server sends, encoded once per record.
        Reassigning any field drops it."""
        return self._memoised("encoded", lambda: encode(self.to_dict()))

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "app_name": self.app_name,
            "version": self.version,
            "n_processes": self.n_processes,
            "nodes": list(self.nodes),
            "placement": dict(self.placement),
            "hierarchies": {k: list(v) for k, v in self.hierarchies.items()},
            "shg_nodes": list(self.shg_nodes),
            "profile": self.profile,
            "finish_time": self.finish_time,
            "search_done_time": self.search_done_time,
            "pairs_tested": self.pairs_tested,
            "total_requests": self.total_requests,
            "peak_cost": self.peak_cost,
            "thresholds": dict(self.thresholds),
            "config": dict(self.config),
            "notes": self.notes,
            "status": self.status,
            "failure": self.failure,
            "coverage": self.coverage,
            "metrics": dict(self.metrics),
        }

    @staticmethod
    def from_dict(data: dict) -> "RunRecord":
        return RunRecord(
            run_id=data["run_id"],
            app_name=data["app_name"],
            version=data["version"],
            n_processes=data["n_processes"],
            nodes=list(data["nodes"]),
            placement=dict(data.get("placement", {})),
            hierarchies={k: list(v) for k, v in data["hierarchies"].items()},
            shg_nodes=list(data["shg_nodes"]),
            profile=data["profile"],
            finish_time=data["finish_time"],
            search_done_time=data.get("search_done_time"),
            pairs_tested=data["pairs_tested"],
            total_requests=data["total_requests"],
            peak_cost=data["peak_cost"],
            thresholds=dict(data.get("thresholds", {})),
            config=dict(data.get("config", {})),
            notes=data.get("notes", ""),
            status=data.get("status", "complete"),
            failure=data.get("failure"),
            coverage=data.get("coverage", 1.0),
            metrics=dict(data.get("metrics", {})),
        )
