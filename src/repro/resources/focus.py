"""Foci: constrained views of a program.

A *focus* selects one node from each resource hierarchy; selecting a root
leaves that hierarchy unconstrained while any deeper selection narrows the
view to the leaf descendants of the chosen node (paper, Section 2).  The
whole-program focus selects every root:
``< /Code, /Machine, /Process, /SyncObject >``.

A *child focus* is obtained by moving down a single edge in one hierarchy;
deriving children this way is *refinement* — the operation the Performance
Consultant applies to every node that tests true.

A focus keeps what matching needs from the moment it is built: the
``(hierarchy, parts)`` of every *constrained* selection (one below its
root) and its depth, so the search's hot path — segment matching, prune
tests, probe routing keys, queue order — never visits an unconstrained
hierarchy.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .names import ResourceNameError, split_path
from .resource import STANDARD_HIERARCHIES, ResourceSpace

__all__ = ["Focus", "whole_program", "parse_focus"]


class Focus:
    """Immutable selection of one resource per hierarchy.

    Instances hash and compare by value so they can key dictionaries (the
    Search History Graph deduplicates nodes by ``(hypothesis, focus)``).
    Nothing mutates one after construction, so a focus may be shared
    freely: :func:`parse_focus` hands the same object to every caller
    that parses the same text, and directive mapping passes untouched
    foci through as they are.

    ``Focus(mapping)`` is the validating constructor for selections that
    arrive from outside; refinement derives children from an already
    valid parent without re-parsing it (:meth:`with_selection`).

    What matching needs is fixed once, when the focus is sealed:
    :attr:`constrained` holds the ``(hierarchy, parts)`` of every
    selection below its root, in hierarchy order, so a match, a prune
    test or a probe's routing key never looks at an unconstrained
    hierarchy, and :meth:`depth` is stored.
    """

    __slots__ = ("_sel", "_parts", "_hash", "_str", "_depth", "constrained")

    def __init__(self, selections: Mapping[str, str]):
        sel: Dict[str, str] = {}
        parts: Dict[str, Tuple[str, ...]] = {}
        for hierarchy, path in selections.items():
            p = split_path(path)
            if p[0] != hierarchy:
                raise ResourceNameError(
                    f"selection {path!r} is not in hierarchy {hierarchy!r}"
                )
            sel[hierarchy] = path
            parts[hierarchy] = p
        # Both dicts in hierarchy order: the printed order, and the one
        # a derived child inherits.
        self._sel = dict(sorted(sel.items()))
        self._parts = {h: parts[h] for h in self._sel}
        self._seal()

    def _seal(self) -> None:
        """Fix hash, printed form, constrained selections and depth once
        ``_sel`` and ``_parts`` are final."""
        self._hash = hash(tuple(self._sel.items()))
        self._str = "< " + ", ".join(self._sel.values()) + " >"
        constrained = []
        depth = 0
        for hierarchy, parts in self._parts.items():
            n = len(parts)
            if n > 1:
                constrained.append((hierarchy, parts))
                depth += n - 1
        #: ``(hierarchy, parts)`` of every selection below its root.
        self.constrained: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(constrained)
        self._depth = depth

    def _derive(self, hierarchy: str, path: str, parts: Tuple[str, ...]) -> "Focus":
        """This focus with one selection replaced by the already split
        *path*.  Replacing a value keeps both dicts' key order, so the
        result is field for field what ``Focus(dict)`` would build.
        *hierarchy* must be one this focus has."""
        if parts[0] != hierarchy:
            raise ResourceNameError(
                f"selection {path!r} is not in hierarchy {hierarchy!r}"
            )
        out = Focus.__new__(Focus)
        out._sel = {**self._sel, hierarchy: path}
        out._parts = {**self._parts, hierarchy: parts}
        out._seal()
        return out

    # -- basic protocol ----------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Focus) and self._sel == other._sel

    def __repr__(self) -> str:
        return f"Focus({str(self)!r})"

    def __str__(self) -> str:
        return self._str

    # -- accessors ----------------------------------------------------------
    @property
    def hierarchies(self) -> Tuple[str, ...]:
        return tuple(self._sel)

    def selection(self, hierarchy: str) -> str:
        return self._sel[hierarchy]

    def selection_parts(self, hierarchy: str) -> Tuple[str, ...]:
        return self._parts[hierarchy]

    def selections(self) -> Dict[str, str]:
        return dict(self._sel)

    def is_whole_program(self) -> bool:
        return not self.constrained

    def depth(self) -> int:
        """Total number of refinement edges below the whole-program focus."""
        return self._depth

    # -- algebra -------------------------------------------------------------
    def with_selection(self, hierarchy: str, path: str) -> "Focus":
        if hierarchy not in self._sel:
            raise ResourceNameError(f"focus has no hierarchy {hierarchy!r}")
        return self._derive(hierarchy, path, split_path(path))

    def constrains(self, hierarchy: str) -> bool:
        """True when the selection in *hierarchy* is below the root."""
        return len(self._parts[hierarchy]) > 1

    def is_descendant_or_equal(self, other: "Focus") -> bool:
        """True when every selection of *self* lies at or below the
        corresponding selection of *other*."""
        if set(self._sel) != set(other._sel):
            return False
        for h, mine in self._parts.items():
            theirs = other._parts[h]
            if mine[: len(theirs)] != theirs:
                return False
        return True

    def matches_parts(self, segment_parts: Mapping[str, Tuple[str, ...] | None]) -> bool:
        """Match against a time segment's per-hierarchy resource paths.

        *segment_parts* maps hierarchy name to the split path of the
        resource the segment is attributed to, or ``None`` when the segment
        carries no resource in that hierarchy (e.g. a pure-compute segment
        has no SyncObject).  A constrained hierarchy with no segment
        resource does not match; an unconstrained one always matches.
        """
        for h, want in self.constrained:
            have = segment_parts.get(h)
            if have is None or have[: len(want)] != want:
                return False
        return True

    # -- refinement ----------------------------------------------------------
    def refine(self, space: ResourceSpace, hierarchy: str) -> List["Focus"]:
        """Child foci obtained by one step down in *hierarchy*, in the
        resource node's order, from :data:`_CHILD_TABLE`."""
        sel = self._sel.get(hierarchy)
        if sel is None:
            return []
        node = space.hierarchy(hierarchy).find(sel)
        if node is None:
            return []
        key = (self._str, hierarchy, tuple(node.children))
        kids = _CHILD_TABLE.get(key)
        if kids is None:
            derived = (self._derive(hierarchy, c.name, c.parts)
                       for c in node.children.values())
            kids = tuple(_intern(f._str, f) for f in derived)
            if len(_CHILD_TABLE) >= _CHILD_TABLE_MAX:
                _CHILD_TABLE.clear()
            _CHILD_TABLE[key] = kids
        return list(kids)

    def children(self, space: ResourceSpace) -> List["Focus"]:
        """All child foci across every hierarchy (paper: refinement moves
        down along a single edge in one of the resource hierarchies)."""
        out: List["Focus"] = []
        for h in self._sel:
            out.extend(self.refine(space, h))
        return out


def whole_program(space: ResourceSpace | None = None) -> Focus:
    """The unconstrained focus over the standard (or given) hierarchies."""
    if space is None:
        return Focus({h: f"/{h}" for h in STANDARD_HIERARCHIES})
    return Focus(space.root_paths())


#: Foci already parsed, by their text.  History names the same foci over
#: and over (every harvest finalize, every directive file, every record
#: loaded), so each distinct text is parsed once per process and every
#: caller shares the one immutable object.  Only texts that parsed enter
#: the table; cleared wholesale at the cap; no lock, as for
#: ``names._SPLIT_TABLE``.
_FOCUS_TABLE: Dict[str, Focus] = {}
_FOCUS_TABLE_MAX = 1 << 14


#: Every focus's children in one hierarchy, derived once per process:
#: sessions of one app refine the same lattice.  Keyed by value — the
#: text and hierarchy fix the parent's selection, the node's child labels
#: in order fix each child — so a late-discovered resource or another
#: app's tree is another key.  Children go through :data:`_FOCUS_TABLE`
#: (a directive's focus is the refined one); bounded like it.
_CHILD_TABLE: Dict[Tuple[str, str, Tuple[str, ...]], Tuple[Focus, ...]] = {}
_CHILD_TABLE_MAX = 1 << 12


def _parse_focus(text: str) -> Focus:
    """The uncached parse behind :func:`parse_focus`."""
    body = text.strip()
    if body.startswith("<"):
        body = body[1:]
    if body.endswith(">"):
        body = body[:-1]
    sels: Dict[str, str] = {}
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parts = split_path(piece)
        if parts[0] in sels:
            raise ResourceNameError(f"duplicate hierarchy in focus: {text!r}")
        sels[parts[0]] = piece
    if not sels:
        raise ResourceNameError(f"empty focus: {text!r}")
    return Focus(sels)


def _intern(text: str, focus: Focus) -> Focus:
    """The focus :data:`_FOCUS_TABLE` holds for *text*, else *focus*,
    entered under *text*."""
    known = _FOCUS_TABLE.get(text)
    if known is None:
        if len(_FOCUS_TABLE) >= _FOCUS_TABLE_MAX:
            _FOCUS_TABLE.clear()
        _FOCUS_TABLE[text] = known = focus
    return known


def parse_focus(text: str) -> Focus:
    """Parse the printed form ``< /Code/x, /Machine, ... >``.

    Equal texts return the same (immutable) object, which is also the
    child refinement derived for that text.
    """
    if type(text) is not str:
        return _parse_focus(text)  # not a table key; fails as it always did
    focus = _FOCUS_TABLE.get(text)
    if focus is None:
        parsed = _parse_focus(text)
        focus = _intern(text, _FOCUS_TABLE.get(parsed._str, parsed))
    return focus
