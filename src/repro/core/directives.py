"""Search directives: prunes, priorities, thresholds, and mappings.

Section 3 of the paper defines three directive types extracted from
historical data — *prunes* (ignore some tests completely), *priorities*
(ordering; High pairs are instrumented at search start and are
persistent), and *thresholds* (the level a hypothesis is tested against).
Mapping directives (``map old new``, Section 3.2) travel in the same input
file so one artifact fully configures a directed diagnosis.

Directive files are plain text, one directive per line::

    # general prune: SyncObject is irrelevant to the CPU hypothesis
    prune CPUbound /SyncObject
    # historic prune: tiny function
    prune * /Code/vect.c/vect::print
    # previously-false pair
    prunepair ExcessiveSyncWaitingTime < /Code/oned.f/main, /Machine, /Process, /SyncObject >
    priority high ExcessiveSyncWaitingTime < /Code/exchng1.f/exchng1, /Machine, /Process, /SyncObject >
    threshold ExcessiveSyncWaitingTime 0.12
    map /Code/oned.f /Code/onednb.f

A :class:`DirectiveSet` is immutable once built and *is* its tables: the
priority index and pair prunes keyed ``(hypothesis, focus text)``, the
pruned paths, the thresholds.  The search, ``len``, ``is_empty`` and the
names mapping decides over (:attr:`DirectiveSet.resource_names`) read
only those.  The ``priorities`` and ``pair_prunes`` lists are read-only
views built on first read: a set built from directive objects keeps
them, a harvested one (:meth:`DirectiveSet.from_tables`) builds them
when ``to_text``, a composition or a renaming map reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..resources.focus import Focus, parse_focus
from ..resources.names import hierarchy_of, split_path, validate_path
from .shg import Priority

__all__ = [
    "DirectiveError",
    "PruneDirective",
    "PairPruneDirective",
    "PriorityDirective",
    "ThresholdDirective",
    "MapDirective",
    "DirectiveSet",
    "ANY_HYPOTHESIS",
]

ANY_HYPOTHESIS = "*"

_UNSEEN = object()  # no verdict yet (``None`` is one: pruned)
_VERDICTS_MAX = 1 << 14  # per set; cleared wholesale at the cap


class DirectiveError(ValueError):
    """Raised for malformed directive text."""


@dataclass(frozen=True)
class PruneDirective:
    """Ignore a resource subtree for a hypothesis (or all hypotheses).

    A candidate (h : f) is pruned when the hypothesis matches and f's
    selection in the pruned resource's hierarchy lies at or below that
    resource.  Pruning a hierarchy *root* (e.g. ``/Machine``) means "never
    constrain this hierarchy" — the unconstrained root selection itself is
    not pruned, so existing whole-program tests still run.
    """

    hypothesis: str
    resource: str

    def __post_init__(self) -> None:
        validate_path(self.resource)

    def matches(self, hypothesis: str, focus: Focus) -> bool:
        if self.hypothesis != ANY_HYPOTHESIS and self.hypothesis != hypothesis:
            return False
        hier = hierarchy_of(self.resource)
        if hier not in focus.hierarchies:
            return False
        sel = focus.selection_parts(hier)
        if len(sel) == 1:
            return False  # root selection is never pruned away
        want = split_path(self.resource)
        return sel[: len(want)] == want

    def as_line(self) -> str:
        return f"prune {self.hypothesis} {self.resource}"


@dataclass(frozen=True)
class PairPruneDirective:
    """Skip one exact (hypothesis : focus) test (a previously-false pair)."""

    hypothesis: str
    focus: Focus

    def matches(self, hypothesis: str, focus: Focus) -> bool:
        return self.hypothesis == hypothesis and self.focus == focus

    def as_line(self) -> str:
        return f"prunepair {self.hypothesis} {self.focus}"


@dataclass(frozen=True)
class PriorityDirective:
    """Assign a search priority to one (hypothesis : focus) pair."""

    hypothesis: str
    focus: Focus
    level: Priority

    def as_line(self) -> str:
        return f"priority {self.level} {self.hypothesis} {self.focus}"


@dataclass(frozen=True)
class ThresholdDirective:
    """Override the test threshold of a hypothesis."""

    hypothesis: str
    value: float

    def as_line(self) -> str:
        return f"threshold {self.hypothesis} {self.value:.6g}"


@dataclass(frozen=True)
class MapDirective:
    """Equate a resource (and its subtree) across executions."""

    old: str
    new: str

    def __post_init__(self) -> None:
        validate_path(self.old)
        validate_path(self.new)

    def as_line(self) -> str:
        return f"map {self.old} {self.new}"


class DirectiveSet:
    """A collection of directives, the unit the PC consumes.

    The set is its lookup tables, and its lists are views of them (see
    the module docstring).  Nothing changes a set after construction, so
    what is derived is derived once and kept on the set: each view and
    the High pairs on first read, the resource names on first use, each
    pair's screen verdict on first ask.  Threads share sets without a
    lock: first reads that race build equal values and one is kept.
    """

    def __init__(
        self,
        prunes: Iterable[PruneDirective] = (),
        pair_prunes: Iterable[PairPruneDirective] = (),
        priorities: Iterable[PriorityDirective] = (),
        thresholds: Iterable[ThresholdDirective] = (),
        maps: Iterable[MapDirective] = (),
    ) -> None:
        self.prunes: List[PruneDirective] = list(prunes)
        self.thresholds: List[ThresholdDirective] = list(thresholds)
        self.maps: List[MapDirective] = list(maps)
        self._pair_prunes: Optional[List[PairPruneDirective]] = list(pair_prunes)
        self._priorities: Optional[List[PriorityDirective]] = list(priorities)
        self._priority_index: Dict[Tuple[str, str], Priority] = {
            (p.hypothesis, str(p.focus)): p.level for p in self._priorities}
        self._pair_prune_index: Dict[Tuple[str, str], None] = dict.fromkeys(
            (p.hypothesis, str(p.focus)) for p in self._pair_prunes)
        self._len = sum(map(len, (self.prunes, self._pair_prunes, self._priorities,
                                  self.thresholds, self.maps)))
        self._threshold_index = {t.hypothesis: t.value for t in self.thresholds}
        # Pruned resource paths as tuples keyed by hypothesis (including
        # "*"): screen() probes selection prefixes against these sets
        # instead of scanning every PruneDirective per candidate pair.
        # Path tuples start with the hierarchy name, so a selection from
        # one hierarchy can never collide with a prune in another.
        self._prune_paths: Dict[str, set] = {}
        self._prune_max_depth = 0
        for p in self.prunes:
            path = split_path(p.resource)
            self._prune_paths.setdefault(p.hypothesis, set()).add(path)
            self._prune_max_depth = max(self._prune_max_depth, len(path))
        self._high: Optional[List[PriorityDirective]] = None
        self._names: Optional[Tuple[str, ...]] = None
        self._verdicts: Dict[Tuple[str, str], Optional[Priority]] = {}

    @classmethod
    def from_tables(
        cls,
        prunes: Iterable[PruneDirective],
        priority_index: Dict[Tuple[str, str], Priority],
        pair_prune_keys: Iterable[Tuple[str, str]],
        thresholds: Iterable[ThresholdDirective] = (),
    ) -> "DirectiveSet":
        """The set whose priorities are *priority_index* and whose pair
        prunes are *pair_prune_keys*, both keyed ``(hypothesis, focus
        text)`` in list order; the texts must be printed foci
        (``str(Focus)``).  No directive object is built for a pair
        until a list is read."""
        out = cls(prunes=prunes, thresholds=thresholds)
        out._priority_index = priority_index
        out._pair_prune_index = dict.fromkeys(pair_prune_keys)
        out._priorities = out._pair_prunes = None
        out._len += len(priority_index) + len(out._pair_prune_index)
        return out

    @property
    def priorities(self) -> List[PriorityDirective]:
        """Every priority directive, in order (a read-only view)."""
        view = self._priorities
        if view is None:
            view = self._priorities = [
                PriorityDirective(hyp, parse_focus(text), level)
                for (hyp, text), level in self._priority_index.items()
            ]
        return view

    @property
    def pair_prunes(self) -> List[PairPruneDirective]:
        """Every pair prune, in order (a read-only view)."""
        view = self._pair_prunes
        if view is None:
            view = self._pair_prunes = [
                PairPruneDirective(hyp, parse_focus(text))
                for hyp, text in self._pair_prune_index
            ]
        return view

    @property
    def resource_names(self) -> Tuple[str, ...]:
        """The distinct resource paths the set names, in first-seen
        order: every prune's resource, then every selection of every
        pair focus.  History names a few resources many times over, so
        each distinct focus text is read once, and split as it prints
        (``< sel, sel, ... >``, in hierarchy order) without building a
        focus; computed on first use."""
        names = self._names
        if names is None:
            seen: Dict[str, None] = dict.fromkeys(p.resource for p in self.prunes)
            texts = dict.fromkeys([text for _, text in self._pair_prune_index]
                                  + [text for _, text in self._priority_index])
            seen.update(dict.fromkeys(", ".join([t[2:-2] for t in texts]).split(", ")))
            seen.pop("", None)  # no selection at all (an empty focus, no focus)
            names = self._names = tuple(seen)
        return names

    # -- queries used by the search -------------------------------------------
    def screen(self, key: Tuple[str, str], focus: Focus) -> Optional[Priority]:
        """What the directives say of one candidate pair, keyed
        ``(hypothesis, str(focus))`` as the Search History Graph keys it:
        ``None`` when a prune removes it, else its search priority.  The
        search asks this once per new pair; the text fixes the focus, so
        the set keeps each verdict for every session it is handed to."""
        verdicts = self._verdicts
        verdict = verdicts.get(key, _UNSEEN)
        if verdict is _UNSEEN:
            verdict = self._screen(key, focus)
            if len(verdicts) >= _VERDICTS_MAX:
                verdicts.clear()
            verdicts[key] = verdict
        return verdict

    def _screen(self, key: Tuple[str, str], focus: Focus) -> Optional[Priority]:
        """The prune and priority test behind :meth:`screen`."""
        if key in self._pair_prune_index:
            return None
        if self._prune_paths:
            max_depth = self._prune_max_depth
            for hyp_key in (key[0], ANY_HYPOTHESIS):
                paths = self._prune_paths.get(hyp_key)
                if not paths:
                    continue
                # root selections are never pruned away
                for _, sel in focus.constrained:
                    for depth in range(1, min(len(sel), max_depth) + 1):
                        if sel[:depth] in paths:
                            return None
        return self._priority_index.get(key, Priority.MEDIUM)

    def is_pruned(self, hypothesis: str, focus: Focus) -> bool:
        return self.screen((hypothesis, str(focus)), focus) is None

    def priority_of(self, hypothesis: str, focus: Focus) -> Priority:
        return self._priority_index.get((hypothesis, str(focus)), Priority.MEDIUM)

    def high_priority_pairs(self) -> List[PriorityDirective]:
        """The High priorities, in order: what the search starts from.
        Kept on the set; taken from the list a set was given, else built
        for the High pairs alone."""
        high = self._high
        if high is None:
            if self._priorities is not None:
                high = [p for p in self._priorities if p.level is Priority.HIGH]
            else:
                high = [
                    PriorityDirective(hyp, parse_focus(text), level)
                    for (hyp, text), level in self._priority_index.items()
                    if level is Priority.HIGH
                ]
            self._high = high
        return high

    def threshold_of(self, hypothesis: str) -> Optional[float]:
        return self._threshold_index.get(hypothesis)

    def is_empty(self) -> bool:
        return not self._len

    def __len__(self) -> int:
        return self._len

    # -- composition -------------------------------------------------------------
    def merged_with(self, other: "DirectiveSet") -> "DirectiveSet":
        """Concatenate two sets (later thresholds win on conflict)."""
        return DirectiveSet(
            prunes=[*self.prunes, *other.prunes],
            pair_prunes=[*self.pair_prunes, *other.pair_prunes],
            priorities=[*self.priorities, *other.priorities],
            thresholds=[*self.thresholds, *other.thresholds],
            maps=[*self.maps, *other.maps],
        )

    def without_pair_prunes(self) -> "DirectiveSet":
        """The paper's final Table 1 configuration: keep resource prunes
        (redundant/irrelevant hierarchies) but drop previously-false pair
        prunes so no new behaviour can be missed (Section 4.1)."""
        return DirectiveSet(
            prunes=list(self.prunes),
            priorities=list(self.priorities),
            thresholds=list(self.thresholds),
            maps=list(self.maps),
        )

    def only(self, *kinds: str) -> "DirectiveSet":
        """Project onto a subset of directive kinds ('prunes',
        'pair_prunes', 'priorities', 'thresholds', 'maps')."""
        valid = {"prunes", "pair_prunes", "priorities", "thresholds", "maps"}
        bad = set(kinds) - valid
        if bad:
            raise DirectiveError(f"unknown directive kinds: {sorted(bad)}")
        return DirectiveSet(
            prunes=self.prunes if "prunes" in kinds else (),
            pair_prunes=self.pair_prunes if "pair_prunes" in kinds else (),
            priorities=self.priorities if "priorities" in kinds else (),
            thresholds=self.thresholds if "thresholds" in kinds else (),
            maps=self.maps if "maps" in kinds else (),
        )

    # -- text round-trip ------------------------------------------------------------
    def to_text(self) -> str:
        lines: List[str] = []
        for group in (self.maps, self.prunes, self.pair_prunes, self.thresholds, self.priorities):
            lines.extend(d.as_line() for d in group)
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text: str) -> "DirectiveSet":
        prunes: List[PruneDirective] = []
        pair_prunes: List[PairPruneDirective] = []
        priorities: List[PriorityDirective] = []
        thresholds: List[ThresholdDirective] = []
        maps: List[MapDirective] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                kind, rest = line.split(None, 1)
            except ValueError:
                raise DirectiveError(f"line {lineno}: malformed directive {line!r}")
            try:
                if kind == "prune":
                    hyp, resource = rest.split(None, 1)
                    prunes.append(PruneDirective(hyp, resource.strip()))
                elif kind == "prunepair":
                    hyp, focus_text = rest.split(None, 1)
                    pair_prunes.append(PairPruneDirective(hyp, parse_focus(focus_text)))
                elif kind == "priority":
                    level_text, hyp, focus_text = rest.split(None, 2)
                    priorities.append(
                        PriorityDirective(hyp, parse_focus(focus_text), Priority.parse(level_text))
                    )
                elif kind == "threshold":
                    hyp, value = rest.split()
                    thresholds.append(ThresholdDirective(hyp, float(value)))
                elif kind == "map":
                    old, new = rest.split()
                    maps.append(MapDirective(old, new))
                else:
                    raise DirectiveError(f"unknown directive kind {kind!r}")
            except DirectiveError:
                raise
            except Exception as exc:
                raise DirectiveError(f"line {lineno}: {line!r}: {exc}") from exc
        return DirectiveSet(
            prunes=prunes,
            pair_prunes=pair_prunes,
            priorities=priorities,
            thresholds=thresholds,
            maps=maps,
        )
