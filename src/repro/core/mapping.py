"""Resource mapping between executions.

"Resources can change from one run of a program to the next ... If we are
to relate performance results from a previous run to the current run, we
must be able to establish an equivalency between (map) the differently
named resources" (paper, Section 3.2).

A :class:`ResourceMapper` applies ``map old new`` directives by
longest-prefix rewrite: mapping ``/Code/oned.f`` to ``/Code/onednb.f``
also carries every function inside the module, while a more specific map
(``/Code/sweep.f/sweep1d`` → ``/Code/nbsweep.f/nbsweep``) wins over its
module-level map.  After mapping, directives whose resources do not exist
in the current run's resource space are dropped (and reported), matching
the paper's workflow of applying mappings before reading directives into
the Performance Consultant.

Mapping is decided over a set's distinct resource names, not over its
directives: a harvested set of some 1 400 directives names a few dozen
resources.  A set that carries no map and names only resources the run
knows is returned as it is, so a directed session fed the same history
over and over pays a few dozen lookups for it, not a pass over every
directive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..resources.focus import Focus
from ..resources.names import join_path, split_path
from ..resources.resource import ResourceSpace
from .directives import (
    DirectiveSet,
    MapDirective,
    PairPruneDirective,
    PriorityDirective,
    PruneDirective,
)

__all__ = ["ResourceMapper", "MappingReport", "apply_mappings"]


@dataclass
class MappingReport:
    """Outcome of applying a mapper + validity filter to a directive set."""

    mapped: int = 0
    dropped: List[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"MappingReport(mapped={self.mapped}, dropped={len(self.dropped)})"


class ResourceMapper:
    """Longest-prefix resource-name rewriter built from map directives."""

    def __init__(self, maps: Iterable[MapDirective] = ()):
        self._maps: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        for m in maps:
            self.add(m.old, m.new)

    def add(self, old: str, new: str) -> None:
        self._maps.append((split_path(old), split_path(new)))

    def __len__(self) -> int:
        return len(self._maps)

    def map_path(self, path: str) -> str:
        parts = split_path(path)
        best: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
        for old, new in self._maps:
            if parts[: len(old)] == old:
                if best is None or len(old) > len(best[0]):
                    best = (old, new)
        if best is None:
            return path
        old, new = best
        return join_path(new + parts[len(old):])

    def map_focus(self, focus: Focus) -> Focus:
        return Focus({h: self.map_path(focus.selection(h)) for h in focus.hierarchies})


def apply_mappings(
    directives: DirectiveSet,
    space: Optional[ResourceSpace] = None,
    extra_maps: Iterable[MapDirective] = (),
) -> Tuple[DirectiveSet, MappingReport]:
    """Rewrite a directive set's resource names for a new execution.

    Mapping directives embedded in the set are applied together with
    *extra_maps*.  When *space* is given, directives that still reference
    unknown resources after mapping are dropped and listed in the report —
    the paper's "increased efficiency" step of filtering before the
    directives are read into the Performance Consultant.

    The decision is taken once per distinct name the set mentions
    (:attr:`~repro.core.directives.DirectiveSet.resource_names`): its
    mapped name and whether *space* knows it.  When the set carries no
    map and no name is rewritten or dropped, the set is already what
    the new run needs and is returned as it is (``mapped`` counts its
    prunes, pair prunes and priorities) — the warm path of a directed
    session, whose history names the same few resources every time.
    Otherwise each directive is looked up in that verdict table: one no
    map rewrote is passed through as the same object (directives are
    frozen, foci immutable); only a rewritten one is rebuilt.
    """
    maps = [*directives.maps, *extra_maps]
    mapper = ResourceMapper(maps)
    report = MappingReport()
    # name -> (mapped name, known to the space)
    verdicts: Dict[str, Tuple[str, bool]] = {}
    unchanged = not directives.maps
    for name in directives.resource_names:
        mapped = mapper.map_path(name) if maps else name
        known = space is None or mapped in space
        verdicts[name] = (mapped, known)
        unchanged = unchanged and known and mapped == name
    if unchanged:
        # every directive but the thresholds (a set with a map is changed)
        report.mapped = len(directives) - len(directives.thresholds)
        return directives, report

    def keep_focus(focus: Focus) -> Optional[Focus]:
        before = focus.selections()
        after = {}
        known = True
        for h, path in before.items():
            after[h], ok = verdicts[path]
            known = known and ok
        if after != before:
            # The validating constructor: a map that moved a selection
            # into another hierarchy is rejected here.
            focus = Focus(after)
        if not known:
            report.dropped.append(str(focus))
            return None
        report.mapped += 1
        return focus

    prunes = []
    for p in directives.prunes:
        path, known = verdicts[p.resource]
        if not known:
            report.dropped.append(path)
            continue
        report.mapped += 1
        prunes.append(p if path == p.resource else PruneDirective(p.hypothesis, path))
    pair_prunes = []
    for pp in directives.pair_prunes:
        focus = keep_focus(pp.focus)
        if focus is not None:
            pair_prunes.append(
                pp if focus is pp.focus else PairPruneDirective(pp.hypothesis, focus)
            )
    priorities = []
    for pr in directives.priorities:
        focus = keep_focus(pr.focus)
        if focus is not None:
            priorities.append(
                pr if focus is pr.focus
                else PriorityDirective(pr.hypothesis, focus, pr.level)
            )
    out = DirectiveSet(
        prunes=prunes,
        pair_prunes=pair_prunes,
        priorities=priorities,
        thresholds=list(directives.thresholds),
    )
    return out, report
