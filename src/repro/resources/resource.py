"""Resource hierarchies.

A program is represented as a collection of discrete *resources* organised
into trees called *resource hierarchies* (paper, Section 2): ``Code``
(modules and functions), ``Machine`` (nodes), ``Process`` (application
processes), and ``SyncObject`` (synchronisation points such as message
tags).  Each hierarchy has a labelled root, and each deeper level is a
finer-grained description of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .names import ResourceNameError, join_path, split_path

__all__ = ["Resource", "ResourceHierarchy", "ResourceSpace", "STANDARD_HIERARCHIES"]

#: Hierarchy names used throughout the reproduction (Paradyn's defaults).
STANDARD_HIERARCHIES = ("Code", "Machine", "Process", "SyncObject")


@dataclass
class Resource:
    """One node of a resource hierarchy.

    ``name`` is the full canonical resource name (e.g.
    ``/Code/testutil.C/verifyA``); ``label`` is the final path component.
    ``tags`` carries optional execution identifiers used when rendering
    combined hierarchies from several runs (paper, Figure 3).  ``parts``
    is ``name`` split once at creation: refinement builds child foci from
    it instead of re-parsing the name.
    """

    name: str
    label: str
    parent: Optional["Resource"] = None
    children: Dict[str, "Resource"] = field(default_factory=dict)
    tags: set = field(default_factory=set)
    parts: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.parts = split_path(self.name)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def depth(self) -> int:
        return len(self.parts)

    def child(self, label: str) -> "Resource":
        return self.children[label]

    def walk(self) -> Iterator["Resource"]:
        """Pre-order traversal of this subtree (children in insertion order)."""
        yield self
        for c in self.children.values():
            yield from c.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r})"


class ResourceHierarchy:
    """A single tree of resources rooted at ``/<name>``."""

    def __init__(self, name: str):
        if "/" in name or not name:
            raise ResourceNameError(f"bad hierarchy name: {name!r}")
        self.name = name
        self.root = Resource(name=f"/{name}", label=name)
        self._by_name: Dict[str, Resource] = {self.root.name: self.root}

    def add(self, path: str, tag: object | None = None) -> Resource:
        """Add (or fetch) the resource named *path*, creating intermediate
        nodes as needed.  *tag* is attached to every node on the path."""
        parts = split_path(path)
        if parts[0] != self.name:
            raise ResourceNameError(
                f"resource {path!r} does not belong to hierarchy {self.name!r}"
            )
        node = self.root
        if tag is not None:
            node.tags.add(tag)
        for i in range(1, len(parts)):
            label = parts[i]
            nxt = node.children.get(label)
            if nxt is None:
                nxt = Resource(
                    name=join_path(parts[: i + 1]), label=label, parent=node
                )
                node.children[label] = nxt
                self._by_name[nxt.name] = nxt
            if tag is not None:
                nxt.tags.add(tag)
            node = nxt
        return node

    def find(self, path: str) -> Optional[Resource]:
        return self._by_name.get(path)

    def __contains__(self, path: str) -> bool:
        return path in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> List[str]:
        """All resource names in the hierarchy, pre-order."""
        return [r.name for r in self.root.walk()]

    def leaves(self) -> List[Resource]:
        return [r for r in self.root.walk() if r.is_leaf]

    def children_of(self, path: str) -> List[Resource]:
        node = self.find(path)
        if node is None:
            return []
        return list(node.children.values())

    def merge(self, other: "ResourceHierarchy", tag_self=None, tag_other=None) -> "ResourceHierarchy":
        """Return a new hierarchy containing the union of both trees, with
        nodes tagged by origin (used for Figure 3's combined view)."""
        if other.name != self.name:
            raise ResourceNameError(
                f"cannot merge hierarchy {other.name!r} into {self.name!r}"
            )
        out = ResourceHierarchy(self.name)
        for name in self.names():
            out.add(name, tag=tag_self)
        for name in other.names():
            out.add(name, tag=tag_other)
        return out


class ResourceSpace:
    """The full set of resource hierarchies describing one program run.

    ``version`` increments whenever a new resource is added, so consumers
    (notably the Performance Consultant's late-discovery rescan) can
    detect growth cheaply — resources may be discovered mid-run, e.g. a
    message tag first used late in the execution.
    """

    def __init__(self, hierarchy_names=STANDARD_HIERARCHIES):
        self.hierarchies: Dict[str, ResourceHierarchy] = {
            n: ResourceHierarchy(n) for n in hierarchy_names
        }
        self.version = 0

    def hierarchy(self, name: str) -> ResourceHierarchy:
        try:
            return self.hierarchies[name]
        except KeyError:
            raise ResourceNameError(f"unknown hierarchy: {name!r}") from None

    def add(self, path: str, tag: object | None = None) -> Resource:
        parts = split_path(path)
        hierarchy = self.hierarchy(parts[0])
        before = len(hierarchy)
        node = hierarchy.add(path, tag=tag)
        if len(hierarchy) != before:
            self.version += 1
        return node

    def find(self, path: str) -> Optional[Resource]:
        parts = split_path(path)
        h = self.hierarchies.get(parts[0])
        return None if h is None else h.find(path)

    def __contains__(self, path: str) -> bool:
        return self.find(path) is not None

    def names(self) -> List[str]:
        out: List[str] = []
        for h in self.hierarchies.values():
            out.extend(h.names())
        return out

    def root_paths(self) -> Dict[str, str]:
        """Mapping hierarchy name -> its root resource name."""
        return {n: f"/{n}" for n in self.hierarchies}

    def copy(self) -> "ResourceSpace":
        out = ResourceSpace(tuple(self.hierarchies))
        for name in self.names():
            out.add(name)
        return out

    def process_machine_bijection(self) -> bool:
        """True when processes and machine nodes map one-to-one, the MPI-1
        static-process situation the paper uses to justify pruning the
        machine hierarchy (Section 3.1)."""
        procs = self.hierarchy("Process").leaves()
        nodes = self.hierarchy("Machine").leaves()
        proc_leaves = [p for p in procs if p.depth > 1]
        node_leaves = [n for n in nodes if n.depth > 1]
        return len(proc_leaves) == len(node_leaves) and len(proc_leaves) > 0
