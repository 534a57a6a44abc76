"""Per-run scalar metrics, aggregation, and exports.

A run's metrics are plain ``{name: number-or-None}`` dicts so they
serialise into :class:`~repro.storage.records.RunRecord` untouched and
aggregate without any live objects.  This module is dependency-free by
design: the session computes the inputs from the live search/engine/
manager, campaign and CLI layers consume only the dicts.

Metric names (the run-metrics schema):

* ``engine_events`` / ``wall_seconds`` / ``events_per_sec`` — simulator
  throughput of the diagnosis;
* ``virtual_seconds`` / ``virtual_wall_ratio`` — how much simulated
  time one wall second buys;
* ``peak_cost`` / ``mean_cost`` — peak and time-weighted mean enabled
  instrumentation cost (the paper's goal-2 "amount of unhelpful
  instrumentation", measured);
* ``pairs_instrumented`` / ``pairs_concluded`` / ``pairs_pruned`` /
  ``pairs_unknown`` — search outcome counts;
* ``instr_requests`` / ``instr_deletes`` / ``instr_decimates`` —
  instrumentation churn;
* ``segments_routed`` / ``probes_examined`` — hot-path accounting:
  segments delivered to the instrumentation manager and candidate
  probes examined for them;
* ``time_to_first_true`` / ``time_to_last_true`` — virtual timestamps
  of the first and last bottleneck conclusions (None when none);
* ``trace_events`` / ``trace_dropped`` — observability self-accounting.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Mapping, Optional, Union

__all__ = [
    "run_metrics",
    "aggregate_metrics",
    "metrics_to_json",
    "metrics_to_prometheus",
    "lint_prometheus_names",
    "deterministic_metrics",
    "WALL_CLOCK_METRICS",
]

Number = Union[int, float]
Metrics = Dict[str, Optional[Number]]

#: Metrics that depend on the host's wall clock and therefore legitimately
#: differ between otherwise byte-identical runs.  Determinism checks strip
#: these; everything else is virtual-domain and must reproduce exactly.
WALL_CLOCK_METRICS = frozenset({"wall_seconds", "events_per_sec", "virtual_wall_ratio"})


def deterministic_metrics(metrics: Mapping[str, Optional[Number]]) -> Metrics:
    """The wall-clock-independent subset of a run's metrics."""
    return {k: v for k, v in metrics.items() if k not in WALL_CLOCK_METRICS}


def run_metrics(
    *,
    engine_events: int,
    wall_seconds: float,
    virtual_seconds: float,
    peak_cost: float,
    mean_cost: float,
    pairs_instrumented: int,
    pairs_concluded: int,
    pairs_pruned: int,
    pairs_unknown: int,
    instr_requests: int,
    instr_deletes: int,
    instr_decimates: int,
    time_to_first_true: Optional[float],
    time_to_last_true: Optional[float],
    trace_events: int = 0,
    trace_dropped: int = 0,
    segments_routed: int = 0,
    probes_examined: int = 0,
    engine_segments: int = 0,
    emit_batches: int = 0,
) -> Metrics:
    """Assemble one run's metrics dict from its raw ingredients."""
    return {
        "engine_events": engine_events,
        "wall_seconds": wall_seconds,
        "events_per_sec": engine_events / wall_seconds if wall_seconds > 0 else 0.0,
        "virtual_seconds": virtual_seconds,
        "virtual_wall_ratio": virtual_seconds / wall_seconds if wall_seconds > 0 else 0.0,
        "peak_cost": peak_cost,
        "mean_cost": mean_cost,
        "pairs_instrumented": pairs_instrumented,
        "pairs_concluded": pairs_concluded,
        "pairs_pruned": pairs_pruned,
        "pairs_unknown": pairs_unknown,
        "instr_requests": instr_requests,
        "instr_deletes": instr_deletes,
        "instr_decimates": instr_decimates,
        "segments_routed": segments_routed,
        "segments_scanned": 0,  # key of the persisted record format tests/golden hashes
        "probes_examined": probes_examined,
        "engine_segments": engine_segments,
        "emit_batches": emit_batches,
        "time_to_first_true": time_to_first_true,
        "time_to_last_true": time_to_last_true,
        "trace_events": trace_events,
        "trace_dropped": trace_dropped,
    }


#: How each metric folds across runs: summed totals, averaged rates,
#: max for peaks.  Anything not listed averages.
_SUM = {
    "engine_events",
    "wall_seconds",
    "virtual_seconds",
    "pairs_instrumented",
    "pairs_concluded",
    "pairs_pruned",
    "pairs_unknown",
    "instr_requests",
    "instr_deletes",
    "instr_decimates",
    "segments_routed",
    "probes_examined",
    "engine_segments",
    "emit_batches",
    "trace_events",
    "trace_dropped",
}
_MAX = {"peak_cost"}


def aggregate_metrics(metrics_list: Iterable[Mapping[str, Optional[Number]]]) -> Metrics:
    """Fold many runs' metrics into one stage/campaign-level dict.

    Summable counters get ``_total`` suffixes, peaks ``_max``, and
    everything else ``_mean`` (None values are excluded from means).
    ``events_per_sec`` and ``virtual_wall_ratio`` are recomputed from
    the summed totals rather than averaged, so stragglers weigh in
    proportionally.
    """
    rows: List[Mapping[str, Optional[Number]]] = [m for m in metrics_list if m]
    out: Metrics = {"runs": len(rows)}
    if not rows:
        return out
    keys: List[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    for key in keys:
        values = [row[key] for row in rows if row.get(key) is not None]
        if not values:
            out[f"{key}_mean"] = None
            continue
        if key in _SUM:
            out[f"{key}_total"] = sum(values)
        elif key in _MAX:
            out[f"{key}_max"] = max(values)
        else:
            out[f"{key}_mean"] = sum(values) / len(values)
    wall = out.get("wall_seconds_total") or 0.0
    if wall > 0:
        out["events_per_sec_mean"] = (out.get("engine_events_total") or 0) / wall
        out["virtual_wall_ratio_mean"] = (out.get("virtual_seconds_total") or 0) / wall
    return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------
def metrics_to_json(metrics: Mapping[str, Optional[Number]], indent: int = 2) -> str:
    return json.dumps(dict(metrics), indent=indent, sort_keys=True)


#: Prometheus naming rules (https://prometheus.io/docs/concepts/data_model/):
#: metric names allow ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label names allow
#: ``[a-zA-Z_][a-zA-Z0-9_]*`` and must not start with ``__`` (reserved).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def lint_prometheus_names(
    metrics: Mapping[str, Optional[Number]],
    prefix: str = "",
    labels: Optional[Mapping[str, str]] = None,
) -> List[str]:
    """Problems with the metric/label names an export would emit.

    Returns human-readable complaints (empty when clean): metric names
    (``prefix_name``) violating the Prometheus metric charset, label
    names violating the label charset or using the reserved ``__``
    prefix.  Label *values* need no lint — any UTF-8 is legal once
    escaped.  Backs :func:`metrics_to_prometheus`'s validation, so a
    typo'd series name fails at export time instead of being silently
    dropped by the scrape.
    """
    problems: List[str] = []
    for name in metrics:
        metric = f"{prefix}_{name}" if prefix else str(name)
        if not _METRIC_NAME_RE.match(metric):
            problems.append(f"invalid metric name {metric!r}")
    for label in labels or ():
        if not _LABEL_NAME_RE.match(str(label)):
            problems.append(f"invalid label name {label!r}")
        elif str(label).startswith("__"):
            problems.append(f"reserved label name {label!r} (double underscore)")
    return problems


def metrics_to_prometheus(
    metrics: Mapping[str, Optional[Number]],
    prefix: str = "repro_run",
    labels: Optional[Mapping[str, str]] = None,
) -> str:
    """Prometheus text-exposition rendering (gauges, one per metric).

    None-valued metrics are omitted — absence is the idiomatic encoding
    for "no observation" in that format.  Metric and label names are
    validated against the Prometheus naming rules
    (:func:`lint_prometheus_names`); a malformed name raises
    :class:`ValueError` so it cannot ship in an exposition.
    """
    problems = lint_prometheus_names(metrics, prefix=prefix, labels=labels)
    if problems:
        raise ValueError(
            "refusing to render malformed Prometheus exposition: "
            + "; ".join(problems)
        )
    label_text = ""
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
        )
        label_text = "{" + inner + "}"
    lines: List[str] = []
    for name in sorted(metrics):
        value = metrics[name]
        if value is None:
            continue
        metric = f"{prefix}_{name}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{label_text} {float(value):g}")
    return "\n".join(lines) + ("\n" if lines else "")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
