"""Discovery-progress curves.

Table 1 reports four sample points (25/50/75/100%); the underlying object
is the full *discovery curve* — the fraction of the scored bottleneck set
found as a function of diagnosis time.  This module computes those curves
from run records and renders them as ASCII step plots, giving the
directed-vs-undirected comparison a figure-like view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..storage.records import RunRecord
from ..visualize.charts import sparkline
from .bottlenecks import Pair, canonical_pairs, canonicalize_focus

__all__ = ["DiscoveryCurve", "discovery_curve", "render_curves"]


@dataclass(frozen=True)
class DiscoveryCurve:
    """Fraction-found over time for one run against one scored set."""

    label: str
    points: Tuple[Tuple[float, float], ...]  # (time, fraction) steps, sorted
    total: int

    def fraction_at(self, time: float) -> float:
        """Fraction of the scored set found at or before *time*."""
        frac = 0.0
        for t, f in self.points:
            if t > time:
                break
            frac = f
        return frac

    def time_to(self, fraction: float) -> float:
        """Earliest time reaching *fraction* (inf if never)."""
        for t, f in self.points:
            if f >= fraction - 1e-12:
                return t
        return float("inf")

    def sampled(self, n: int = 40, horizon: Optional[float] = None) -> List[float]:
        """Fractions at *n* evenly spaced times (for sparkline rendering)."""
        if not self.points:
            return [0.0] * n
        end = horizon if horizon is not None else self.points[-1][0]
        if end <= 0:
            return [0.0] * n
        return [self.fraction_at(end * i / (n - 1)) for i in range(n)]


def discovery_curve(
    record: RunRecord,
    base_set: Iterable[Pair],
    label: Optional[str] = None,
) -> DiscoveryCurve:
    """Compute the step curve of base-set discovery for one run."""
    base = canonical_pairs(base_set, record.placement)
    base_keys = set(base)
    found: Dict[Pair, float] = {}
    for (hyp, ftext), t in record.found_times().items():
        key = (hyp, canonicalize_focus(ftext, record.placement))
        if key in base_keys and (key not in found or t < found[key]):
            found[key] = t
    times = sorted(found.values())
    total = len(base)
    points = tuple(
        (t, (i + 1) / total) for i, t in enumerate(times)
    ) if total else ()
    return DiscoveryCurve(
        label=label or record.run_id, points=points, total=total
    )


def render_curves(curves: Sequence[DiscoveryCurve], width: int = 50) -> str:
    """Render several curves as aligned sparklines on a shared time axis."""
    if not curves:
        return ""
    horizon = max((c.points[-1][0] for c in curves if c.points), default=1.0)
    label_w = max(len(c.label) for c in curves)
    lines = [f"{'':{label_w}}  0s {'-' * (width - 8)} {horizon:.0f}s"]
    for c in curves:
        spark = sparkline(c.sampled(width, horizon), lo=0.0, hi=1.0)
        final = c.fraction_at(horizon)
        lines.append(f"{c.label.ljust(label_w)}  {spark}  {final:.0%}")
    return "\n".join(lines)
