"""Cross-execution queries over the experiment store.

"Their results support the need for performance data storage across
multiple executions and across different tuning studies" (paper, Section
5, citing Hondroudakis & Procter).  This module answers the questions a
tuning study asks of its history: how did a resource's cost evolve across
runs, which bottlenecks persist, which run was best.

Fast path: the store's index denormalizes each record into a query
summary (:func:`repro.storage.store.summarize_record`), so
:func:`resource_history`, :func:`bottleneck_persistence`, and the
string-keyed form of :func:`best_run` answer from one index read without
deserializing any record.  Callable keys and :func:`select` still need
full records and batch-load them through ``store.load_many``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .records import RunRecord
from .store import ExperimentStore

__all__ = [
    "ResourceHistory",
    "AmbiguousResourceError",
    "resource_history",
    "bottleneck_persistence",
    "best_run",
    "select",
]


class AmbiguousResourceError(ValueError):
    """A bare resource name matched more than one hierarchy's table."""


@dataclass(frozen=True)
class ResourceHistory:
    """One resource's fraction-of-execution across a sequence of runs."""

    resource: str
    activity: str
    points: Tuple[Tuple[str, float], ...]  # (run_id, fraction)

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def trend(self) -> float:
        """Last minus first fraction (negative = the resource got cheaper)."""
        vals = self.values()
        return vals[-1] - vals[0] if len(vals) >= 2 else 0.0


def _lookup(tables: Dict[str, Dict[str, dict]], resource: str) -> Optional[dict]:
    """Resolve a resource path or bare name against per-hierarchy tables.

    A resource path dispatches on its hierarchy prefix (``/Process/...``
    reads the process table, ``/Machine/...`` the node table, ...), so a
    process that happens to share a name with a node or tag can never
    resolve against the wrong table.  Foreign profiles sometimes key
    tables by bare names; a qualified path falls back to its last
    component *only* when the dispatched table is entirely bare-keyed —
    a miss in a path-keyed table must not silently match an unrelated
    bare entry.  A bare-name query (no hierarchy prefix) is accepted
    only when it is unambiguous — present in exactly one table — and
    raises :class:`AmbiguousResourceError` otherwise.
    """
    if resource.startswith("/"):
        parts = resource.split("/")
        table = tables.get(parts[1]) if len(parts) > 1 else None
        if table is None:
            return None
        entry = table.get(resource)
        if (
            entry is None
            and len(parts) > 2
            and table
            and not any(key.startswith("/") for key in table)
        ):
            entry = table.get(parts[-1])
        return entry
    hits = [(hierarchy, t[resource]) for hierarchy, t in tables.items() if resource in t]
    if len(hits) > 1:
        raise AmbiguousResourceError(
            f"resource name {resource!r} exists in several hierarchies "
            f"({', '.join(h for h, _ in hits)}); qualify it with a path "
            f"prefix such as /{hits[0][0]}/{resource}"
        )
    return hits[0][1] if hits else None


def _summary_fraction(summary: dict, resource: str, activity: str) -> float:
    """Fraction of total execution time *resource* spent in *activity*,
    answered from an index summary.

    The summary's fraction tables are already normalized by total time,
    so this is a pure lookup.
    """
    if summary.get("total_time", 0.0) <= 0:
        return 0.0
    entry = _lookup(summary.get("fractions", {}), resource)
    return (entry or {}).get(activity, 0.0)


def resource_history(
    store: ExperimentStore,
    resource: str,
    activity: str = "sync",
    app_name: Optional[str] = None,
    run_ids: Optional[Sequence[str]] = None,
) -> ResourceHistory:
    """Track a resource's cost across stored runs (oldest first).

    Answered from index summaries — no record deserialization.
    """
    metas = store.summaries(run_ids=run_ids, app_name=app_name)
    points = tuple(
        (run_id, _summary_fraction(meta["summary"], resource, activity))
        for run_id, meta in metas.items()
    )
    return ResourceHistory(resource=resource, activity=activity, points=points)


def bottleneck_persistence(
    store: ExperimentStore,
    app_name: Optional[str] = None,
    run_ids: Optional[Sequence[str]] = None,
) -> Dict[Tuple[str, str], int]:
    """How many of the selected runs reported each (hypothesis : focus)
    pair as a bottleneck — the raw signal behind priority extraction.

    Answered from index summaries — no record deserialization.
    """
    metas = store.summaries(run_ids=run_ids, app_name=app_name)
    counts: Dict[Tuple[str, str], int] = {}
    for meta in metas.values():
        for pair in {tuple(p) for p in meta["summary"]["true_pairs"]}:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


#: Metrics the string-keyed :func:`best_run` can read straight off an
#: index summary.  ``None`` values (e.g. a run that found nothing has no
#: ``time_to_find_all``) sort as +infinity so they lose under ``minimize``.
_SUMMARY_METRICS = ("duration", "peak_cost", "time_to_find_all", "coverage")
_META_METRICS = ("bottlenecks", "pairs_tested")


def _summary_metric(meta: dict, key: str) -> float:
    if key in _META_METRICS:
        value = meta.get(key)
    else:
        value = meta["summary"].get(key)
    return float("inf") if value is None else value


def best_run(
    store: ExperimentStore,
    key: Union[str, Callable[[RunRecord], float]],
    app_name: Optional[str] = None,
    minimize: bool = True,
) -> Optional[RunRecord]:
    """The stored run minimising (or maximising) *key* — e.g. program
    duration when comparing tuned versions.

    *key* may be a callable over full records, or one of the summary
    metric names (``"duration"``, ``"peak_cost"``, ``"time_to_find_all"``,
    ``"coverage"``, ``"bottlenecks"``, ``"pairs_tested"``) — the string
    form compares index summaries and deserializes only the winner.
    """
    chooser = min if minimize else max
    if isinstance(key, str):
        if key not in _SUMMARY_METRICS and key not in _META_METRICS:
            raise ValueError(
                f"unknown summary metric {key!r}; expected one of "
                f"{', '.join(_SUMMARY_METRICS + _META_METRICS)}"
            )
        metas = store.summaries(app_name=app_name)
        if not metas:
            return None
        winner = chooser(metas, key=lambda run_id: _summary_metric(metas[run_id], key))
        return store.load(winner)
    ids = store.list(app_name=app_name)
    if not ids:
        return None
    records = store.load_many(ids)
    return chooser(records, key=key)


def select(
    store: ExperimentStore,
    predicate: Callable[[RunRecord], bool],
    app_name: Optional[str] = None,
) -> List[RunRecord]:
    """All stored runs satisfying *predicate* (oldest first)."""
    return [
        record
        for record in store.load_many(store.list(app_name=app_name))
        if predicate(record)
    ]
