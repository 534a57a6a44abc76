"""Bottleneck-set analysis: time-to-find curves and significant areas.

The paper's evaluation protocol (Section 4.1): the undirected base run is
"allowed to run to completion to identify the complete (100%) set of
possible bottlenecks"; directed runs are then scored by the time at which
they (re)find 25/50/75/100% of that set.

Section 4.2 scores diagnosis *quality* differently: a checklist of
significant problem areas is defined from the known execution profile and
a run is credited for each area it reports "either individually or in
combination" — that is what Table 2's bottleneck counts mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.mapping import ResourceMapper
from ..metrics.profile import FlatProfile
from ..resources.focus import parse_focus
from ..storage.records import RunRecord

__all__ = [
    "Pair",
    "base_bottleneck_set",
    "time_to_fraction",
    "reduction",
    "significant_areas",
    "areas_reported",
]

Pair = Tuple[str, str]

DEFAULT_FRACTIONS = (0.25, 0.50, 0.75, 1.00)


def canonicalize_focus(focus_text: str, placement: Dict[str, str]) -> str:
    """Collapse the Machine selection into the Process selection.

    With the MPI-1 static process model, processes and machine nodes map
    one-to-one, so ``< ..., /Machine/node3, /Process >`` names the same
    leaf set as ``< ..., /Machine, /Process/p3 >`` — the redundancy the
    paper's machine-hierarchy prune exploits (Section 3.1).  Bottleneck
    sets are compared in this canonical form so a run that pruned the
    Machine hierarchy is still credited with the machine-refined variants
    the base run reported.
    """
    focus = parse_focus(focus_text)
    if "Machine" not in focus.hierarchies or not focus.constrains("Machine"):
        return str(focus)
    node = focus.selection_parts("Machine")[1]
    procs_on_node = sorted(p for p, n in placement.items() if n == node)
    if len(procs_on_node) != 1:
        return str(focus)  # not a bijection; leave untouched
    proc = procs_on_node[0]
    out = focus.with_selection("Machine", "/Machine")
    if "Process" in out.hierarchies and not out.constrains("Process"):
        out = out.with_selection("Process", f"/Process/{proc}")
    return str(out)


def canonical_pairs(
    pairs: Iterable[Pair], placement: Dict[str, str]
) -> List[Pair]:
    """Canonicalise and deduplicate a pair collection, preserving order."""
    out = dict.fromkeys(
        (hyp, canonicalize_focus(ftext, placement)) for hyp, ftext in pairs
    )
    return list(out)


_HYP_ACTIVITIES = {
    "CPUbound": ("compute",),
    "ExcessiveSyncWaitingTime": ("sync",),
    "ExcessiveIOBlockingTime": ("io",),
}


def base_bottleneck_set(record: RunRecord, margin: float = 0.0) -> Set[Pair]:
    """The set of true bottlenecks from a base run, in canonical form.

    ``margin > 0`` restricts the set to *solid, robustly reachable*
    bottlenecks: pairs whose ground-truth value (from the postmortem
    profile, not the base run's finite observation window) clears the test
    threshold by the margin, and that are reachable from the whole-program
    focus through a refinement chain of equally solid ancestors.  This is
    the paper's goal-3 notion of "a set of important bottlenecks for a
    particular execution": borderline pairs sit at the threshold and flip
    between repeated runs (the paper's own a1/a2 comparison re-found only
    78 of 81), so they are excluded from the scored set.
    """
    if margin <= 0.0:
        return set(
            canonical_pairs(record.true_pairs(), record.placement)
        )
    profile = record.flat_profile()
    placement = record.placement

    def truth(hyp: str, focus) -> float:
        return profile.focus_fraction(focus, _HYP_ACTIVITIES[hyp], placement)

    solid_cache: Dict[Tuple[str, str], bool] = {}

    def is_solid(hyp: str, focus) -> bool:
        key = (hyp, str(focus))
        if key not in solid_cache:
            threshold = record.thresholds.get(hyp, 0.20)
            solid_cache[key] = truth(hyp, focus) >= threshold + margin
        return solid_cache[key]

    reach_cache: Dict[Tuple[str, str], bool] = {}

    def reachable(hyp: str, focus) -> bool:
        """Solid and connected to the whole-program focus through solid
        ancestors (one selection raised at a time)."""
        key = (hyp, str(focus))
        if key in reach_cache:
            return reach_cache[key]
        reach_cache[key] = False  # cycle guard (DAG, but be safe)
        if not is_solid(hyp, focus):
            return False
        if focus.is_whole_program():
            reach_cache[key] = True
            return True
        ok = False
        for h in focus.hierarchies:
            parts = focus.selection_parts(h)
            if len(parts) <= 1:
                continue
            parent_sel = "/" + "/".join(parts[:-1])
            parent = focus.with_selection(h, parent_sel)
            if reachable(hyp, parent):
                ok = True
                break
        reach_cache[key] = ok
        return ok

    pairs = []
    for n in record.shg_nodes:
        if n["state"] != "true" or n["hypothesis"] == "TopLevelHypothesis":
            continue
        focus = parse_focus(n["focus"])
        if reachable(n["hypothesis"], focus):
            pairs.append((n["hypothesis"], n["focus"]))
    return set(canonical_pairs(pairs, placement))


def time_to_fraction(
    record: RunRecord,
    base_set: Iterable[Pair],
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    mapper: Optional[ResourceMapper] = None,
) -> Dict[float, float]:
    """Time (by the run's own clock) to rediscover fractions of *base_set*.

    When comparing across code versions, *mapper* translates the base
    pairs into the directed run's resource names first (Section 3.2).
    Both sides are compared in canonical (machine-collapsed) form.
    Returns ``inf`` for fractions never reached — pruning can miss
    bottlenecks, the robustness risk Section 3.1 calls out.
    """
    base = list(dict.fromkeys(base_set))
    if mapper is not None:
        base = [
            (hyp, str(mapper.map_focus(parse_focus(ftext)))) for hyp, ftext in base
        ]
    base = canonical_pairs(base, record.placement)
    found: Dict[Pair, float] = {}
    for (hyp, ftext), t in record.found_times().items():
        key = (hyp, canonicalize_focus(ftext, record.placement))
        if key not in found or t < found[key]:
            found[key] = t
    times = sorted(found[p] for p in base if p in found)
    n = len(base)
    out: Dict[float, float] = {}
    for frac in fractions:
        need = max(1, math.ceil(frac * n)) if n else 0
        if need == 0 or len(times) < need:
            out[frac] = math.inf
        else:
            out[frac] = times[need - 1]
    return out


def reduction(base_time: float, directed_time: float) -> float:
    """Percentage reduction relative to the base time (negative = faster),
    matching the parenthesised values of Tables 1 and 3."""
    if not math.isfinite(directed_time) or base_time <= 0:
        return math.nan
    return (directed_time - base_time) / base_time * 100.0


# --------------------------------------------------------------------------
# significant areas (Table 2 scoring)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Area:
    """One significant problem area: one resource, or a combination of
    resources from different hierarchies, plus its ground-truth sync
    fraction.  Section 4.2 scores areas "either individually (e.g.,
    function main) or in combination (e.g., message tag 3/0 for function
    main)"."""

    resources: Tuple[str, ...]
    fraction: float

    @property
    def label(self) -> str:
        return " & ".join(self.resources)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label} ({self.fraction:.0%})"


def _area_focus(resources: Sequence[str]) -> "object":
    from ..resources.focus import whole_program

    focus = whole_program()
    for r in resources:
        focus = focus.with_selection(r.split("/")[1], r)
    return focus


def significant_areas(
    profile: FlatProfile,
    placement: Optional[Dict[str, str]] = None,
    min_fraction: float = 0.10,
    per_process_min: float = 0.30,
    combo_min: float = 0.08,
) -> List[Area]:
    """Derive the checklist of significant synchronisation areas from the
    ground-truth execution profile, the way Section 4.2 enumerates the
    known facts of the sample application: functions and message tags with
    large global wait fractions, processes dominated by waiting, and the
    pairwise *combinations* of those components whose (per-matched-process
    normalised) wait fraction clears ``combo_min``."""
    if profile.total_time() <= 0:
        return []
    placement = placement or {}
    areas: List[Area] = []
    code_sig: List[str] = []
    tag_sig: List[str] = []
    proc_sig: List[str] = []
    for name, shares in profile.share_table(profile.by_code).items():
        frac = shares.get("sync", 0.0)
        if frac >= min_fraction:
            areas.append(Area((name,), frac))
            code_sig.append(name)
    for name, shares in profile.share_table(profile.by_tag).items():
        frac = shares.get("sync", 0.0)
        if frac >= min_fraction:
            areas.append(Area((name,), frac))
            tag_sig.append(name)
    for name in profile.by_process:
        frac = profile.sync_fraction_by_process(name)
        if frac >= per_process_min:
            areas.append(Area((name,), frac))
            proc_sig.append(name)
    if placement:
        combos = (
            [(c, t) for c in code_sig for t in tag_sig]
            + [(c, p) for c in code_sig for p in proc_sig]
            + [(t, p) for t in tag_sig for p in proc_sig]
        )
        for pair in combos:
            frac = profile.focus_fraction(_area_focus(pair), ("sync",), placement)
            if frac >= combo_min:
                areas.append(Area(tuple(pair), frac))
    return sorted(areas, key=lambda a: -a.fraction)


def areas_reported(record: RunRecord, areas: Sequence[Area]) -> Dict[str, int]:
    """Count how many checklist areas the run reported: an area counts
    when some true node's focus selects every one of the area's resources
    (at or below each) in the matching hierarchies."""
    true_foci = [parse_focus(f) for _, f in record.true_pairs()]
    hits: Dict[str, int] = {}
    for area in areas:
        count = 0
        for focus in true_foci:
            ok = True
            for resource in area.resources:
                want = tuple(resource.split("/")[1:])
                hierarchy = want[0]
                if hierarchy not in focus.hierarchies:
                    ok = False
                    break
                sel = focus.selection_parts(hierarchy)
                if len(sel) < len(want) or sel[: len(want)] != want:
                    ok = False
                    break
            if ok:
                count += 1
        hits[area.label] = count
    return hits
