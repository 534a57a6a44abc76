"""Instrumentation-efficiency metrics (Table 2's final column).

"The final column shows an efficiency metric determined by dividing the
number of bottlenecks found by the number of hypothesis/pairs tested.
Efficiency decreases with thresholds below 12%, an indication that
lowering the threshold ... increases the amount of instrumentation but
does not improve the result." (paper, Section 4.2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..storage.records import RunRecord

__all__ = ["ThresholdPoint", "threshold_point", "optimal_threshold"]


@dataclass(frozen=True)
class ThresholdPoint:
    """One row of a threshold-sweep table."""

    threshold: float
    bottlenecks: int
    pairs_tested: int
    efficiency: float
    areas_reported: Optional[int] = None


def threshold_point(
    record: RunRecord,
    threshold: float,
    areas_reported: Optional[int] = None,
) -> ThresholdPoint:
    """Summarise one run for the sweep table."""
    tested = record.pairs_tested
    found = record.bottleneck_count()
    return ThresholdPoint(
        threshold=threshold,
        bottlenecks=found,
        pairs_tested=tested,
        efficiency=found / tested if tested else 0.0,
        areas_reported=areas_reported,
    )


def optimal_threshold(points: Sequence[ThresholdPoint], full_count: int) -> float:
    """The paper's selection rule, automated: the *largest* threshold whose
    run still reports (close to) the full significant set; efficiency only
    degrades below it."""
    complete = [
        p for p in points
        if (p.areas_reported if p.areas_reported is not None else p.bottlenecks) >= full_count
    ]
    if not complete:
        return min(points, key=lambda p: full_count - p.bottlenecks).threshold
    return max(p.threshold for p in complete)
