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
instantly.  The conclusions become a run summary
(:func:`postmortem_summary`) in the shape
:func:`~repro.storage.summary.summarize_record` gives a stored run, and
from there history takes the one extraction route
(:meth:`~repro.core.extraction.HarvestAggregate.finalize`): the same
priorities, prunes and thresholds, stated once, whatever tool gathered
the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..metrics.metric import METRICS
from ..metrics.profile import FlatProfile
from ..resources.focus import Focus, whole_program
from ..resources.resource import ResourceSpace
from ..storage.summary import bucket_maxima
from .directives import DirectiveSet
from .extraction import HarvestAggregate
from .hypotheses import TOP_LEVEL, HypothesisTree, standard_tree

__all__ = [
    "PostmortemConclusion",
    "evaluate_postmortem",
    "postmortem_summary",
    "extract_directives_postmortem",
]


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

    A flat profile holds seconds, not operation counts, so a hypothesis
    whose metric is a ``"count"`` metric (``FrequentSyncOperations`` of
    :func:`~repro.core.hypotheses.extended_tree`) cannot be judged here:
    it is neither tested nor refined, and the search concludes what it
    would without it.
    """
    tree = hypotheses or standard_tree()
    out: List[PostmortemConclusion] = []
    seen: set = set()
    wp = whole_program(space)
    frontier: List[Tuple[str, Focus]] = [(h.name, wp) for h in tree.children(TOP_LEVEL)]
    while frontier:
        hyp, focus = frontier.pop(0)
        metric = METRICS[tree.get(hyp).metric]
        key = (hyp, str(focus))
        if metric.kind == "count" or key in seen:
            continue
        seen.add(key)
        if len(seen) > max_tests:
            raise RuntimeError(f"postmortem evaluation exceeded {max_tests} tests")
        value = profile.focus_fraction(focus, metric.activity_keys, placement)
        is_true = value > tree.threshold(hyp, thresholds)
        out.append(PostmortemConclusion(hyp, focus, value, is_true))
        if is_true:
            for child_h in tree.children(hyp):
                frontier.append((child_h.name, focus))
            for child_f in focus.children(space):
                frontier.append((hyp, child_f))
    return out


def postmortem_summary(
    profile: FlatProfile,
    space: ResourceSpace,
    placement: Dict[str, str],
    hypotheses: Optional[HypothesisTree] = None,
    thresholds: Optional[Dict[str, float]] = None,
) -> dict:
    """One run's history from raw data alone, as the summary keys
    :meth:`~repro.core.extraction.HarvestAggregate.fold_summary` reads.

    The placement stands in for the run's environment (as many distinct
    nodes as processes makes the Machine hierarchy redundant); the pairs
    and values are :func:`evaluate_postmortem`'s conclusions; the code
    leaves are the space's functions and their shares the profile's.
    """
    conclusions = evaluate_postmortem(
        profile, space, placement, hypotheses=hypotheses, thresholds=thresholds
    )
    hyp_values: Dict[str, List[float]] = {}
    for c in conclusions:
        hyp_values.setdefault(c.hypothesis, []).append(c.value)
    return {
        "machine_nodes": len(set(placement.values())),
        "n_processes": len(placement),
        "true_pairs": [[c.hypothesis, str(c.focus)] for c in conclusions if c.is_true],
        "false_pairs": [[c.hypothesis, str(c.focus)] for c in conclusions if not c.is_true],
        "hyp_values": bucket_maxima(hyp_values),
        "code_leaves": [
            leaf.name for leaf in space.hierarchy("Code").leaves() if leaf.depth == 3
        ],
        "code_exec_fractions": profile.exec_shares(profile.by_code),
    }


def extract_directives_postmortem(
    profile: FlatProfile,
    space: ResourceSpace,
    placement: Dict[str, str],
    hypotheses: Optional[HypothesisTree] = None,
    thresholds: Optional[Dict[str, float]] = None,
    **options,
) -> DirectiveSet:
    """Directives from raw performance data alone (no SHG required):
    :meth:`~repro.core.extraction.HarvestAggregate.finalize` (which
    documents *options*) over the :func:`postmortem_summary`."""
    summary = postmortem_summary(profile, space, placement, hypotheses, thresholds)
    return HarvestAggregate().fold_summary(summary).finalize(
        hypotheses=hypotheses, **options
    )
