"""Postmortem hypothesis evaluation and directive extraction.

The paper's future work (Section 6): "We are also extending the ability
to extract search directives to the case where results in the form of a
Search History Graph from a previous PC run are not available, but we do
have the raw data needed to test hypotheses postmortem.  This would allow
us to study use of search directives extracted from results gathered with
different monitoring tools."

This module implements that extension.  Given a flat postmortem profile
(ours, or anything convertible to one — see
:mod:`repro.simulator.tracefile` for raw trace files), it replays the
Performance Consultant's top-down refinement *offline*: hypothesis values
come from the profile's conjunction table instead of live
instrumentation, so the whole search space can be evaluated exactly and
instantly, and the conclusions are converted into the same prune /
priority / threshold directives the online extractor produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..metrics.profile import FlatProfile
from ..resources.focus import Focus, whole_program
from ..resources.resource import ResourceSpace
from .directives import (
    ANY_HYPOTHESIS,
    DirectiveSet,
    PairPruneDirective,
    PriorityDirective,
    PruneDirective,
)
from .extraction import general_prune_directives, threshold_directives
from .hypotheses import TOP_LEVEL, HypothesisTree, standard_tree
from .shg import Priority

__all__ = [
    "PostmortemConclusion",
    "evaluate_postmortem",
    "extract_directives_postmortem",
]

_HYP_ACTIVITIES = {
    "cpu_time": ("compute",),
    "sync_wait_time": ("sync",),
    "io_wait_time": ("io",),
    "exec_time": ("compute", "sync", "io"),
}


@dataclass(frozen=True)
class PostmortemConclusion:
    """One offline test result."""

    hypothesis: str
    focus: Focus
    value: float
    is_true: bool


def evaluate_postmortem(
    profile: FlatProfile,
    space: ResourceSpace,
    placement: Dict[str, str],
    hypotheses: Optional[HypothesisTree] = None,
    thresholds: Optional[Dict[str, float]] = None,
    max_tests: int = 100_000,
) -> List[PostmortemConclusion]:
    """Replay the PC's top-down search over ground-truth values.

    Performs the same traversal the online Consultant would — test each
    top hypothesis at the whole-program focus, refine true nodes one
    hierarchy edge at a time, never refine false nodes — but values come
    from the postmortem profile, so there is no cost gate, no timing, and
    no noise.  ``max_tests`` is a safety valve against degenerate spaces.
    """
    tree = hypotheses or standard_tree()
    levels = dict(thresholds or {})
    out: List[PostmortemConclusion] = []
    seen: set = set()
    wp = whole_program(space)
    frontier: List[Tuple[str, Focus]] = [(h.name, wp) for h in tree.children(TOP_LEVEL)]
    while frontier:
        hyp, focus = frontier.pop(0)
        key = (hyp, str(focus))
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > max_tests:
            raise RuntimeError(f"postmortem evaluation exceeded {max_tests} tests")
        h = tree.get(hyp)
        activities = _HYP_ACTIVITIES[h.metric]
        value = profile.focus_fraction(focus, activities, placement)
        threshold = levels.get(hyp, h.default_threshold)
        is_true = value > threshold
        out.append(PostmortemConclusion(hyp, focus, value, is_true))
        if is_true:
            for child_h in tree.children(hyp):
                frontier.append((child_h.name, focus))
            for child_f in focus.children(space):
                frontier.append((hyp, child_f))
    return out


def extract_directives_postmortem(
    profile: FlatProfile,
    space: ResourceSpace,
    placement: Dict[str, str],
    hypotheses: Optional[HypothesisTree] = None,
    thresholds: Optional[Dict[str, float]] = None,
    include_priorities: bool = True,
    include_pair_prunes: bool = True,
    include_historic_prunes: bool = True,
    include_general_prunes: bool = True,
    include_thresholds: bool = False,
    min_exec_fraction: float = 0.005,
) -> DirectiveSet:
    """Directives from raw performance data alone (no SHG required)."""
    general: List[PruneDirective] = []
    if include_general_prunes:
        # the placement stands in for the first run's environment: as many
        # distinct nodes as processes makes the Machine hierarchy redundant
        general = general_prune_directives(
            len(set(placement.values())), len(placement), hypotheses
        )
    conclusions = evaluate_postmortem(
        profile, space, placement, hypotheses=hypotheses, thresholds=thresholds
    )
    priorities: List[PriorityDirective] = []
    pair_prunes: List[PairPruneDirective] = []
    if include_priorities or include_pair_prunes:
        for c in conclusions:
            if c.is_true and include_priorities:
                priorities.append(PriorityDirective(c.hypothesis, c.focus, Priority.HIGH))
            elif not c.is_true:
                if include_priorities:
                    priorities.append(
                        PriorityDirective(c.hypothesis, c.focus, Priority.LOW)
                    )
                if include_pair_prunes:
                    pair_prunes.append(PairPruneDirective(c.hypothesis, c.focus))
    prunes: List[PruneDirective] = []
    if include_historic_prunes:
        code = space.hierarchy("Code")
        for leaf in code.leaves():
            if leaf.depth == 3 and profile.code_exec_fraction(leaf.name) < min_exec_fraction:
                prunes.append(PruneDirective(ANY_HYPOTHESIS, leaf.name))
    by_hyp: Dict[str, List[float]] = {}
    if include_thresholds:
        for c in conclusions:
            by_hyp.setdefault(c.hypothesis, []).append(c.value)
    return DirectiveSet(
        prunes=[*general, *prunes],
        pair_prunes=pair_prunes,
        priorities=priorities,
        thresholds=threshold_directives(by_hyp, hypotheses),
    )
