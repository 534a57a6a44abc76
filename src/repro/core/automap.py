"""Automatic resource mapping between executions.

The paper's future work (Section 6): "We are studying additional
approaches for mapping resources from different executions.  Our goal is
to automate the mapping to the furthest extent possible, while continuing
to allow user-specified mappings."

:func:`suggest_mappings` proposes ``map old new`` directives between two
runs' resource spaces:

* **Machine** and **Process** resources pair positionally (rank order is
  the stable identity across runs — an 8-node job is nodes 0-7 one day
  and 16-23 the next, paper Section 3.2);
* **Code** resources pair by name similarity plus behavioural similarity
  (execution-share profiles): a renamed module like ``oned.f`` →
  ``onednb.f`` scores high on both; within paired modules, functions pair
  the same way (``sweep1d`` → ``nbsweep``);
* **SyncObject** message-tag families pair by rank of their wait share.

User-specified mappings always win: pass them as ``fixed`` and the
matcher never overrides them.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..metrics.profile import FlatProfile
from ..storage.records import RunRecord
from .directives import MapDirective

__all__ = ["MappingSuggestion", "suggest_mappings", "suggest_mappings_for_records"]


@dataclass(frozen=True)
class MappingSuggestion:
    """One proposed mapping with its matching score (0..1)."""

    directive: MapDirective
    score: float
    reason: str

    def as_line(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.directive.as_line()}   # {self.score:.2f} {self.reason}"


def _name_similarity(a: str, b: str) -> float:
    return SequenceMatcher(None, a, b).ratio()


def _share_similarity(a: float, b: float) -> float:
    """1 when the two execution shares are equal, decaying with ratio."""
    if a <= 0.0 and b <= 0.0:
        return 1.0
    hi = max(a, b)
    lo = min(a, b)
    return lo / hi if hi > 0 else 0.0


def _greedy_match(
    left: Sequence[str],
    right: Sequence[str],
    score_fn,
    min_score: float,
) -> List[Tuple[str, str, float]]:
    """Greedy max-score bipartite matching (scores above *min_score*)."""
    scored = sorted(
        ((score_fn(a, b), a, b) for a in left for b in right),
        key=lambda t: -t[0],
    )
    used_l: Set[str] = set()
    used_r: Set[str] = set()
    out: List[Tuple[str, str, float]] = []
    for score, a, b in scored:
        if score < min_score:
            break
        if a in used_l or b in used_r:
            continue
        used_l.add(a)
        used_r.add(b)
        out.append((a, b, score))
    return out


def _positional(
    old_items: Sequence[str], new_items: Sequence[str], prefix: str, reason: str
) -> List[MappingSuggestion]:
    out = []
    for a, b in zip(old_items, new_items):
        if a != b:
            out.append(
                MappingSuggestion(
                    MapDirective(f"{prefix}/{a}", f"{prefix}/{b}"), 1.0, reason
                )
            )
    return out


def suggest_mappings(
    old_hierarchies: Dict[str, List[str]],
    new_hierarchies: Dict[str, List[str]],
    old_profile: Optional[FlatProfile] = None,
    new_profile: Optional[FlatProfile] = None,
    fixed: Iterable[MapDirective] = (),
    min_score: float = 0.45,
    name_weight: float = 0.7,
) -> List[MappingSuggestion]:
    """Propose mappings between two runs' resource name sets.

    ``old_hierarchies`` / ``new_hierarchies`` use the RunRecord layout
    (hierarchy name -> list of resource names).  Profiles, when given,
    contribute behavioural similarity for code resources.
    """
    fixed_olds = {m.old for m in fixed}
    suggestions: List[MappingSuggestion] = []

    def shared_and_unique(hier: str, depth: int) -> Tuple[List[str], List[str]]:
        olds = [n for n in old_hierarchies.get(hier, []) if n.count("/") == depth]
        news = [n for n in new_hierarchies.get(hier, []) if n.count("/") == depth]
        old_only = [n for n in olds if n not in news and n not in fixed_olds]
        new_only = [n for n in news if n not in olds]
        return old_only, new_only

    # --- Machine / Process: positional ------------------------------------
    for hier in ("Machine", "Process"):
        old_only, new_only = shared_and_unique(hier, 2)
        suggestions.extend(
            _positional(
                [n.split("/")[-1] for n in old_only],
                [n.split("/")[-1] for n in new_only],
                f"/{hier}",
                f"positional {hier.lower()} pairing",
            )
        )

    # --- Code modules: name + behaviour ------------------------------------
    def code_share(profile: Optional[FlatProfile], name: str) -> float:
        if profile is None:
            return 0.0
        return profile.exec_share(
            entry for key, entry in profile.by_code.items()
            if key == name or key.startswith(name + "/")
        )

    old_mods, new_mods = shared_and_unique("Code", 2)

    def module_score(a: str, b: str) -> float:
        name = _name_similarity(a.split("/")[-1], b.split("/")[-1])
        if old_profile is None or new_profile is None:
            return name
        share = _share_similarity(code_share(old_profile, a), code_share(new_profile, b))
        return name_weight * name + (1 - name_weight) * share

    module_pairs = _greedy_match(old_mods, new_mods, module_score, min_score)
    for old_mod, new_mod, score in module_pairs:
        suggestions.append(
            MappingSuggestion(
                MapDirective(old_mod, new_mod), score, "module name/behaviour match"
            )
        )
        # functions inside the paired modules
        old_fns = [
            n for n in old_hierarchies.get("Code", [])
            if n.startswith(old_mod + "/") and n not in fixed_olds
        ]
        new_fns = [
            n for n in new_hierarchies.get("Code", []) if n.startswith(new_mod + "/")
        ]
        # drop functions whose bare name already matches (the module-level
        # map carries them)
        old_names = {n.split("/")[-1] for n in old_fns}
        new_names = {n.split("/")[-1] for n in new_fns}
        old_fns = [n for n in old_fns if n.split("/")[-1] not in new_names]
        new_fns = [n for n in new_fns if n.split("/")[-1] not in old_names]

        def function_score(a: str, b: str) -> float:
            name = _name_similarity(a.split("/")[-1], b.split("/")[-1])
            if old_profile is None or new_profile is None:
                return name
            share = _share_similarity(
                old_profile.code_exec_fraction(a), new_profile.code_exec_fraction(b)
            )
            return name_weight * name + (1 - name_weight) * share

        for old_fn, new_fn, fn_score in _greedy_match(
            old_fns, new_fns, function_score, min_score
        ):
            suggestions.append(
                MappingSuggestion(
                    MapDirective(old_fn, new_fn), fn_score, "function name/behaviour match"
                )
            )

    # --- SyncObject tag families: rank by wait share ------------------------
    old_fams, new_fams = shared_and_unique("SyncObject", 3)

    def family_share(profile: Optional[FlatProfile], name: str) -> float:
        if profile is None:
            return 0.0
        return sum(
            sum(entry.values())
            for key, entry in profile.by_tag.items()
            if key == name or key.startswith(name + "/")
        )

    old_sorted = sorted(old_fams, key=lambda n: -family_share(old_profile, n))
    new_sorted = sorted(new_fams, key=lambda n: -family_share(new_profile, n))
    for a, b in zip(old_sorted, new_sorted):
        suggestions.append(
            MappingSuggestion(MapDirective(a, b), 0.8, "tag family by wait-share rank")
        )

    return suggestions


def suggest_mappings_for_records(
    old: RunRecord,
    new: RunRecord,
    fixed: Iterable[MapDirective] = (),
    min_score: float = 0.45,
) -> List[MappingSuggestion]:
    """Convenience wrapper taking two stored run records."""
    return suggest_mappings(
        old.hierarchies,
        new.hierarchies,
        old_profile=old.flat_profile(),
        new_profile=new.flat_profile(),
        fixed=fixed,
        min_score=min_score,
    )
