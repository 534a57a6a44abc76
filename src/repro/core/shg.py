"""The Search History Graph (SHG).

"Each (hypothesis : focus) pair is represented as a node of a directed
acyclic graph called the Search History Graph" (paper, Section 2).  The
same pair can be reached by refining along different hierarchies, so nodes
deduplicate by (hypothesis, focus) and accumulate parent edges — that is
what makes the structure a DAG rather than a tree.

A finished run's record reads the graph once: :meth:`SearchHistoryGraph.tally`
walks the nodes a single time for the stored node dicts, the state
counts, the tested and concluded pairs, coverage and the first and last
true times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..resources.focus import Focus, parse_focus
from .hypotheses import TOP_LEVEL

__all__ = ["NodeState", "Priority", "SHGNode", "SHGTally", "SearchHistoryGraph"]


class NodeState(enum.Enum):
    QUEUED = "queued"          # candidate awaiting instrumentation
    ACTIVE = "active"          # instrumented, collecting data
    TRUE = "true"              # bottleneck confirmed
    FALSE = "false"            # tested below threshold
    PRUNED = "pruned"          # excluded by a pruning directive
    NEVER_RUN = "never-run"    # still queued when the program ended
    UNKNOWN = "unknown"        # instrumented but not enough data to decide


class Priority(enum.IntEnum):
    """Search-order priority; lower sorts first."""

    HIGH = 0
    MEDIUM = 1
    LOW = 2

    @staticmethod
    def parse(text: str) -> "Priority":
        return Priority[text.upper()]

    def __str__(self) -> str:
        return self.name.lower()


#: The text a node dict stores for each state and priority.
_STATE_TEXT = {s: s.value for s in NodeState}
_PRIORITY_TEXT = {p: str(p) for p in Priority}


@dataclass
class SHGNode:
    """One (hypothesis : focus) test in the search."""

    node_id: int
    hypothesis: str
    focus: Focus
    state: NodeState = NodeState.QUEUED
    priority: Priority = Priority.MEDIUM
    persistent: bool = False
    value: Optional[float] = None
    handle: Optional[int] = None
    t_requested: Optional[float] = None
    t_concluded: Optional[float] = None
    #: Data-quality annotation for pairs that could not be concluded
    #: normally (lost sample, run aborted by a fault, ...).
    quality: Optional[str] = None
    parents: Set[int] = field(default_factory=set)
    children: Set[int] = field(default_factory=set)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.hypothesis, str(self.focus))

    @property
    def concluded(self) -> bool:
        return self.state in (NodeState.TRUE, NodeState.FALSE)

    def to_dict(self) -> dict:
        return {
            "id": self.node_id,
            "hypothesis": self.hypothesis,
            "focus": str(self.focus),
            "state": _STATE_TEXT[self.state],
            "priority": _PRIORITY_TEXT[self.priority],
            "persistent": self.persistent,
            "value": self.value,
            "t_requested": self.t_requested,
            "t_concluded": self.t_concluded,
            "quality": self.quality,
            "parents": sorted(self.parents),
            "children": sorted(self.children),
        }

    @staticmethod
    def from_dict(data: dict) -> "SHGNode":
        return SHGNode(
            node_id=data["id"],
            hypothesis=data["hypothesis"],
            focus=parse_focus(data["focus"]),
            state=NodeState(data["state"]),
            priority=Priority.parse(data["priority"]),
            persistent=data.get("persistent", False),
            value=data.get("value"),
            t_requested=data.get("t_requested"),
            t_concluded=data.get("t_concluded"),
            quality=data.get("quality"),
            parents=set(data.get("parents", ())),
            children=set(data.get("children", ())),
        )


@dataclass
class SHGTally:
    """What a run's record reports of its graph.  The virtual root
    (``TopLevelHypothesis``) counts in :attr:`states` only."""

    #: Node dicts in node-id order (:meth:`SHGNode.to_dict`).
    nodes: List[dict]
    #: Nodes per state value, keys in the order the states first occur.
    states: Dict[str, int]
    #: Pairs that received instrumentation (Table 2's 'Total Number of
    #: Hypothesis/Focus Pairs Tested').
    tested: int
    #: Pairs concluded true or false.
    concluded: int
    #: Fraction of the tested pairs concluded true or false (1.0 when
    #: none was tested).  Lost samples, fault-aborted runs and
    #: end-of-program truncation lower it; harvesters use it to flag
    #: directives extracted from degraded runs.
    coverage: float
    #: Earliest and latest conclusion time of a true pair.
    first_true: Optional[float]
    last_true: Optional[float]


class SearchHistoryGraph:
    """DAG of search nodes, deduplicated by (hypothesis, focus)."""

    def __init__(self) -> None:
        self.nodes: Dict[int, SHGNode] = {}
        self._index: Dict[Tuple[str, str], int] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterable[SHGNode]:
        return iter(self.nodes.values())

    def find(self, hypothesis: str, focus: Focus) -> Optional[SHGNode]:
        nid = self._index.get((hypothesis, str(focus)))
        return None if nid is None else self.nodes[nid]

    def add(
        self,
        hypothesis: str,
        focus: Focus,
        parent: Optional[SHGNode] = None,
        priority: Priority = Priority.MEDIUM,
    ) -> Tuple[SHGNode, bool]:
        """Add (or fetch) the node for this pair.

        Returns ``(node, created)``.  When the pair already exists only a
        new parent edge is added — the pair is not retested (DAG dedup).
        """
        key = (hypothesis, str(focus))
        node = self.link(key, parent)
        if node is not None:
            return node, False
        return self.create(key, focus, parent, priority), True

    def link(self, key: Tuple[str, str], parent: Optional[SHGNode]) -> Optional[SHGNode]:
        """The node of the pair keyed ``(hypothesis, str(focus))``, with a
        parent edge added, or ``None`` when the pair is new."""
        nid = self._index.get(key)
        if nid is None:
            return None
        node = self.nodes[nid]
        if parent is not None and parent.node_id != nid:
            node.parents.add(parent.node_id)
            parent.children.add(nid)
        return node

    def create(
        self,
        key: Tuple[str, str],
        focus: Focus,
        parent: Optional[SHGNode] = None,
        priority: Priority = Priority.MEDIUM,
    ) -> SHGNode:
        """A node for the new pair keyed ``(hypothesis, str(focus))``."""
        nid = self._next_id
        node = SHGNode(node_id=nid, hypothesis=key[0], focus=focus, priority=priority)
        self._next_id = nid + 1
        self.nodes[nid] = node
        self._index[key] = nid
        if parent is not None:
            node.parents.add(parent.node_id)
            parent.children.add(nid)
        return node

    # -- queries ---------------------------------------------------------------
    def by_state(self, state: NodeState) -> List[SHGNode]:
        return [n for n in self.nodes.values() if n.state is state]

    def true_nodes(self) -> List[SHGNode]:
        return self.by_state(NodeState.TRUE)

    def tested_count(self) -> int:
        """Pairs that actually received instrumentation (Table 2's 'Total
        Number of Hypothesis/Focus Pairs Tested')."""
        return self.tally().tested

    def state_counts(self) -> Dict[str, int]:
        return self.tally().states

    def tally(self) -> SHGTally:
        """Everything a run's record reports of the graph, in one walk."""
        nodes: List[dict] = []
        states: Dict[str, int] = {}
        tested = concluded = tested_concluded = 0
        first = last = None
        in_order = True
        prev = -1
        true, false = NodeState.TRUE, NodeState.FALSE
        for nid, node in self.nodes.items():
            item = node.to_dict()
            nodes.append(item)
            in_order = in_order and prev < nid
            prev = nid
            text = item["state"]
            states[text] = states.get(text, 0) + 1
            state = node.state
            if node.hypothesis == TOP_LEVEL:
                continue
            done = state is true or state is false
            if node.t_requested is not None:
                tested += 1
                tested_concluded += done
            if done:
                concluded += 1
                if state is true:
                    t = node.t_concluded
                    if first is None or t < first:
                        first = t
                    if last is None or t > last:
                        last = t
        if not in_order:
            nodes.sort(key=lambda d: d["id"])
        return SHGTally(
            nodes=nodes,
            states=states,
            tested=tested,
            concluded=concluded,
            coverage=tested_concluded / tested if tested else 1.0,
            first_true=first,
            last_true=last,
        )

    def roots(self) -> List[SHGNode]:
        return [n for n in self.nodes.values() if not n.parents]

    # -- serialization -------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        return [self.nodes[i].to_dict() for i in sorted(self.nodes)]

    @staticmethod
    def from_dicts(items: List[dict]) -> "SearchHistoryGraph":
        shg = SearchHistoryGraph()
        for item in items:
            node = SHGNode.from_dict(item)
            shg.nodes[node.node_id] = node
            shg._index[node.key] = node.node_id
            shg._next_id = max(shg._next_id, node.node_id + 1)
        return shg
