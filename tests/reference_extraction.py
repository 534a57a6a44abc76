"""The naive extraction the production harvest is held to.

``repro.core.extraction`` has one route from history to a directive:
records are summarized, summaries fold into a ``HarvestAggregate`` (set
unions, per-function maxima, 4-decimal value buckets) and the aggregate's
mechanism methods state each Section 3 rule once.  This module is the
discipline extraction started with — every rule a plain scan over the
list of runs, every observed value kept, nothing merged or cached —
written to be read against the paper, not to be fast:

* 3.1 priorities: High if a pair was *ever* true, Low if it was tested
  and *never* true;
* 3.1 general prunes: ``/SyncObject`` under every hypothesis that is not
  about synchronisation; ``/Machine`` when the first run had one process
  per node;
* 3.1 historic prunes: a function negligible in *every* run, folded to
  its module when the whole module is; previously-false pairs;
* 3.2 thresholds: the middle of the widest gap in the values observed.

A *run* here is a plain dict of per-run facts under the keys an index
summary uses, so it is fed three ways.  :func:`facts_of_record` reads
them straight off a ``RunRecord`` (``shg_nodes``, ``flat_profile()``,
``hierarchies``) without going through ``summarize_record`` — that is
what keeps the summary step itself checked — :func:`facts_of_postmortem`
reads them off an offline search's conclusions and the profile without
going through ``postmortem_summary``, and a stored or synthetic summary
is already in shape.  The module shares the directive classes,
the hypothesis tree and ``parse_focus`` with the production package and
none of the rule code.
"""

from repro.core.directives import (
    ANY_HYPOTHESIS,
    DirectiveSet,
    PairPruneDirective,
    PriorityDirective,
    PruneDirective,
    ThresholdDirective,
)
from repro.core.hypotheses import standard_tree
from repro.core.shg import Priority
from repro.resources.focus import parse_focus


def facts_of_record(record):
    """What the rules need to know about one run, read off the record."""
    profile = record.flat_profile()
    total = profile.total_time()
    values = {}
    for node in record.shg_nodes:
        if node["state"] in ("true", "false") and node.get("value") is not None:
            values.setdefault(node["hypothesis"], []).append(node["value"])
    return {
        "machine_nodes": len([name for name in record.hierarchies.get("Machine", [])
                              if name != "/Machine"]),
        "n_processes": record.n_processes,
        "true_pairs": [(n["hypothesis"], n["focus"]) for n in record.shg_nodes
                       if n["state"] == "true"
                       and n["hypothesis"] != "TopLevelHypothesis"],
        "false_pairs": [(n["hypothesis"], n["focus"]) for n in record.shg_nodes
                        if n["state"] == "false"],
        "code_leaves": [name for name in record.hierarchies.get("Code", [])
                        if name.count("/") == 3],  # /Code/module/function
        # the share formula written out, not FlatProfile's
        "code_exec_fractions": {name: sum(entry.values()) / total if total > 0 else 0.0
                                for name, entry in profile.by_code.items()},
        "hyp_values": values,
    }


def facts_of_postmortem(conclusions, profile, space, placement):
    """The same facts for a run known only by its profile: the
    conclusions of ``evaluate_postmortem`` over it, the space's
    functions, and the placement as the environment."""
    total = profile.total_time()
    values = {}
    for c in conclusions:
        values.setdefault(c.hypothesis, []).append(c.value)
    return {
        "machine_nodes": len(set(placement.values())),
        "n_processes": len(placement),
        "true_pairs": [(c.hypothesis, str(c.focus)) for c in conclusions if c.is_true],
        "false_pairs": [(c.hypothesis, str(c.focus)) for c in conclusions
                        if not c.is_true],
        "code_leaves": [name for name in space.hierarchy("Code").names()
                        if name.count("/") == 3],
        "code_exec_fractions": {name: sum(entry.values()) / total if total > 0 else 0.0
                                for name, entry in profile.by_code.items()},
        "hyp_values": values,
    }


def reference_bucket_maxima(values):
    """The values a summary keeps of one hypothesis's observations: the
    largest in each 4-decimal bucket, buckets in the order first seen."""
    largest = {}
    for v in values:
        bucket = round(v, 4)
        largest[bucket] = max(largest.get(bucket, v), v)
    return list(largest.values())


def _pairs(runs, key):
    return {tuple(pair) for run in runs for pair in run[key]}


def reference_priorities(runs):
    ever_true = _pairs(runs, "true_pairs")
    never_true = _pairs(runs, "false_pairs") - ever_true
    return [PriorityDirective(hyp, parse_focus(focus), Priority.HIGH)
            for hyp, focus in sorted(ever_true)] + \
           [PriorityDirective(hyp, parse_focus(focus), Priority.LOW)
            for hyp, focus in sorted(never_true)]


def reference_general_prunes(runs, hypotheses=None):
    tree = hypotheses or standard_tree()
    out = [PruneDirective(h.name, "/SyncObject")
           for h in tree.testable() if not h.sync_related]
    if runs and runs[0]["machine_nodes"] == runs[0]["n_processes"] > 0:
        out.append(PruneDirective(ANY_HYPOTHESIS, "/Machine"))
    return out


def reference_historic_prunes(runs, min_exec_fraction=0.005):
    functions = {name for run in runs for name in run["code_leaves"]}
    tiny = {name for name in functions
            if all(run["code_exec_fractions"].get(name, 0.0) < min_exec_fraction
                   for run in runs)}
    modules = {name.rsplit("/", 1)[0] for name in functions}
    whole = sorted(module for module in modules
                   if all(name in tiny for name in functions
                          if name.rsplit("/", 1)[0] == module))
    alone = sorted(name for name in tiny
                   if name.rsplit("/", 1)[0] not in whole)
    return [PruneDirective(ANY_HYPOTHESIS, name) for name in whole + alone]


def reference_pair_prunes(runs):
    never_true = _pairs(runs, "false_pairs") - _pairs(runs, "true_pairs")
    return [PairPruneDirective(hyp, parse_focus(focus))
            for hyp, focus in sorted(never_true)]


def reference_threshold(values, default, noise_floor=0.03, ceiling=0.35):
    points = sorted({round(v, 4) for v in values if v >= noise_floor})
    if len(points) < 2:
        return default
    widest, threshold = 0.0, None
    for below, above in zip([noise_floor] + points, points):
        middle = (below + above) / 2.0
        if middle <= ceiling and above - below > widest:
            widest, threshold = above - below, middle
    return default if threshold is None else round(threshold, 3)


def reference_thresholds(runs, hypotheses=None):
    tree = hypotheses or standard_tree()
    out = []
    for h in tree.testable():
        values = [v for run in runs for v in run["hyp_values"].get(h.name, [])]
        if values:
            out.append(ThresholdDirective(
                h.name, reference_threshold(values, h.default_threshold)))
    return out


def reference_directives(
    runs,
    include_priorities=True,
    include_general_prunes=True,
    include_historic_prunes=True,
    include_pair_prunes=True,
    include_thresholds=False,
    hypotheses=None,
    min_exec_fraction=0.005,
):
    """The directive set a harvest of *runs* (in order) must equal."""
    runs = list(runs)
    prunes = []
    if include_general_prunes:
        prunes += reference_general_prunes(runs, hypotheses)
    if include_historic_prunes:
        prunes += reference_historic_prunes(runs, min_exec_fraction)
    return DirectiveSet(
        prunes=prunes,
        pair_prunes=reference_pair_prunes(runs) if include_pair_prunes else (),
        priorities=reference_priorities(runs) if include_priorities else (),
        thresholds=reference_thresholds(runs, hypotheses)
        if include_thresholds else (),
    )
