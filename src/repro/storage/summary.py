"""Denormalized per-run query summaries (the index fast path).

A summary is everything the cross-run queries (:mod:`repro.storage.query`)
and directive extraction need from a record without deserializing it:
duration/status/coverage, true/false conclusion pairs, per-hierarchy
fraction tables, per-hypothesis observed values, code leaves.  Backends
store one per index entry.  It is also the first step of the one
extraction route: :class:`~repro.core.extraction.HarvestAggregate` folds
summaries and nothing else, so a record handed over in memory is
summarized here before it is harvested
(``tests/reference_extraction.py`` checks the step against facts read
straight off the record).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.shg import NodeState
from .records import RunRecord

__all__ = ["summarize_record", "meta_for_record", "SUMMARY_VERSION"]

SUMMARY_VERSION = 1

_CONCLUDED = (NodeState.TRUE.value, NodeState.FALSE.value)


def summarize_record(record: RunRecord) -> dict:
    """Denormalize one record into the index summary the queries read.

    Everything the cross-run consumers need without the full record:
    duration/status/coverage, the true/false conclusion pairs, SHG state
    counts, the per-hypothesis observed value distribution (threshold
    extraction), per-hierarchy fraction-of-total tables (resource
    histories), and per-function execution fractions plus the candidate
    function list (historic prunes).
    """
    profile = record.flat_profile()
    hyp_values: Dict[str, List[float]] = {}
    state_counts: Dict[str, int] = {}
    for node in record.shg_nodes:
        state = node["state"]
        state_counts[state] = state_counts.get(state, 0) + 1
        if node.get("value") is not None and state in _CONCLUDED:
            hyp_values.setdefault(node["hypothesis"], []).append(node["value"])

    machine_nodes = len(
        [n for n in record.hierarchies.get("Machine", []) if n != "/Machine"]
    )
    code_leaves = [
        name for name in record.hierarchies.get("Code", []) if name.count("/") == 3
    ]
    return {
        "version": SUMMARY_VERSION,
        "duration": record.finish_time,
        "status": record.status,
        "coverage": record.coverage,
        "failure": record.failure,
        "peak_cost": record.peak_cost,
        "time_to_find_all": record.time_to_find_all(),
        "n_processes": record.n_processes,
        "n_nodes": len(record.nodes),
        "machine_nodes": machine_nodes,
        "true_pairs": [list(pair) for pair in record.true_pairs()],
        "false_pairs": [list(pair) for pair in record.false_pairs()],
        "state_counts": state_counts,
        "hyp_values": hyp_values,
        "total_time": profile.total_time(),
        "fractions": {
            "Code": profile.share_table(profile.by_code),
            "Process": profile.share_table(profile.by_process),
            "Machine": profile.share_table(profile.by_node),
            "SyncObject": profile.share_table(profile.by_tag),
        },
        "code_exec_fractions": profile.exec_shares(profile.by_code),
        "code_leaves": code_leaves,
    }


def meta_for_record(record: RunRecord) -> dict:
    """The index meta (without ``seq``) registered for one saved record."""
    return {
        "app_name": record.app_name,
        "version": record.version,
        "n_processes": record.n_processes,
        "bottlenecks": record.bottleneck_count(),
        "pairs_tested": record.pairs_tested,
        "summary": summarize_record(record),
    }
