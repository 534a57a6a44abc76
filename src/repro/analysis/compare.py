"""Quantitative comparison of two executions.

The paper's conclusion situates history-directed diagnosis inside "an
ongoing research effort in which we are designing and developing an
infrastructure for storing, naming, and querying multi-execution
performance data.  Our representation for the space of executions, and
techniques for quantitatively and automatically comparing two or more
executions, are described in a previous paper [13]" (Karavanic & Miller,
*Experiment Management Support for Performance Tuning*, SC'97).

This module provides that comparison layer over stored run records:

* **structural diff** — resources present in only one run (the raw
  material for mapping, Figure 3's execution map);
* **performance diff** — per-resource changes in time fractions between
  runs, optionally through a resource mapping;
* **bottleneck diff** — which (hypothesis : focus) conclusions appeared,
  disappeared, or persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.mapping import ResourceMapper
from ..resources.focus import parse_focus
from ..storage.records import RunRecord
from .report import Table

__all__ = [
    "StructuralDiff",
    "ResourceDelta",
    "BottleneckDiff",
    "structural_diff",
    "performance_diff",
    "bottleneck_diff",
    "comparison_report",
]


@dataclass(frozen=True)
class StructuralDiff:
    """Resources unique to each run, per hierarchy."""

    only_old: Dict[str, Tuple[str, ...]]
    only_new: Dict[str, Tuple[str, ...]]
    common: Dict[str, Tuple[str, ...]]

    @property
    def is_identical(self) -> bool:
        return not any(self.only_old.values()) and not any(self.only_new.values())


def structural_diff(
    old: RunRecord, new: RunRecord, mapper: Optional[ResourceMapper] = None
) -> StructuralDiff:
    """Partition resource names into old-only / new-only / common.

    A *mapper* translates old names first, so mapped resources count as
    common — running the diff again after mapping shows what the mapping
    still fails to cover.
    """
    only_old: Dict[str, Tuple[str, ...]] = {}
    only_new: Dict[str, Tuple[str, ...]] = {}
    common: Dict[str, Tuple[str, ...]] = {}
    hierarchies = sorted(set(old.hierarchies) | set(new.hierarchies))
    for hier in hierarchies:
        olds = {
            (mapper.map_path(n) if mapper else n)
            for n in old.hierarchies.get(hier, [])
        }
        news = set(new.hierarchies.get(hier, []))
        only_old[hier] = tuple(sorted(olds - news))
        only_new[hier] = tuple(sorted(news - olds))
        common[hier] = tuple(sorted(olds & news))
    return StructuralDiff(only_old, only_new, common)


@dataclass(frozen=True)
class ResourceDelta:
    """One resource's share of execution time in both runs."""

    resource: str
    old_fraction: float
    new_fraction: float

    @property
    def delta(self) -> float:
        return self.new_fraction - self.old_fraction


def _fractions(record: RunRecord, table: str, activity: str) -> Dict[str, float]:
    profile = record.flat_profile()
    return {
        name: shares.get(activity, 0.0)
        for name, shares in profile.share_table(getattr(profile, table)).items()
    }


def performance_diff(
    old: RunRecord,
    new: RunRecord,
    table: str = "by_code",
    activity: str = "sync",
    mapper: Optional[ResourceMapper] = None,
    min_fraction: float = 0.01,
) -> List[ResourceDelta]:
    """Per-resource fraction-of-execution changes between two runs.

    ``table`` selects the profile dimension (``by_code``, ``by_process``,
    ``by_node``, ``by_tag``); resources below ``min_fraction`` in both
    runs are dropped.  Sorted by absolute change, largest first.
    """
    old_fracs = _fractions(old, table, activity)
    if mapper is not None:
        old_fracs = {mapper.map_path(k): v for k, v in old_fracs.items()}
    new_fracs = _fractions(new, table, activity)
    out = []
    for name in set(old_fracs) | set(new_fracs):
        a = old_fracs.get(name, 0.0)
        b = new_fracs.get(name, 0.0)
        if max(a, b) >= min_fraction:
            out.append(ResourceDelta(name, a, b))
    return sorted(out, key=lambda d: -abs(d.delta))


@dataclass(frozen=True)
class BottleneckDiff:
    """Conclusion-level comparison of two diagnoses."""

    persisted: Tuple[Tuple[str, str], ...]
    appeared: Tuple[Tuple[str, str], ...]
    disappeared: Tuple[Tuple[str, str], ...]

    @property
    def jaccard(self) -> float:
        """Similarity of the two bottleneck sets (1.0 = identical)."""
        union = len(self.persisted) + len(self.appeared) + len(self.disappeared)
        return len(self.persisted) / union if union else 1.0


def bottleneck_diff(
    old: RunRecord, new: RunRecord, mapper: Optional[ResourceMapper] = None
) -> BottleneckDiff:
    """Which true conclusions persisted / appeared / disappeared.

    This is the comparison behind the paper's observation that "despite
    modifications to the communications primitives ... the bottleneck
    locations remained the same" (Section 4.3: 113 of 115 common).
    """
    old_pairs: Set[Tuple[str, str]] = set(old.true_pairs())
    if mapper is not None:
        old_pairs = {
            (hyp, str(mapper.map_focus(parse_focus(f)))) for hyp, f in old_pairs
        }
    new_pairs = set(new.true_pairs())
    return BottleneckDiff(
        persisted=tuple(sorted(old_pairs & new_pairs)),
        appeared=tuple(sorted(new_pairs - old_pairs)),
        disappeared=tuple(sorted(old_pairs - new_pairs)),
    )


def comparison_report(
    old: RunRecord,
    new: RunRecord,
    mapper: Optional[ResourceMapper] = None,
    top: int = 10,
) -> str:
    """A human-readable comparison of two stored runs."""
    sdiff = structural_diff(old, new, mapper)
    pdiff = performance_diff(old, new, mapper=mapper)
    bdiff = bottleneck_diff(old, new, mapper)

    lines = [f"Comparing {old.run_id} ({old.app_name} v{old.version}) "
             f"-> {new.run_id} ({new.app_name} v{new.version})", ""]

    st = Table("Structural differences", ["hierarchy", "old only", "new only", "common"])
    for hier in sorted(sdiff.common):
        st.add_row([
            hier,
            len(sdiff.only_old[hier]),
            len(sdiff.only_new[hier]),
            len(sdiff.common[hier]),
        ])
    lines.append(st.render())
    lines.append("")

    pt = Table("Largest sync-fraction changes (code)",
               ["resource", "old", "new", "delta"])
    for d in pdiff[:top]:
        pt.add_row([d.resource, f"{d.old_fraction:.3f}", f"{d.new_fraction:.3f}",
                    f"{d.delta:+.3f}"])
    lines.append(pt.render())
    lines.append("")

    bt = Table("Bottleneck conclusions", ["category", "count"])
    bt.add_row(["persisted", len(bdiff.persisted)])
    bt.add_row(["appeared", len(bdiff.appeared)])
    bt.add_row(["disappeared", len(bdiff.disappeared)])
    bt.add_row(["similarity (Jaccard)", f"{bdiff.jaccard:.2f}"])
    lines.append(bt.render())
    return "\n".join(lines)
