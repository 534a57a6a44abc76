"""Metric definitions.

A Paradyn metric is a continuously measured value; each Performance
Consultant hypothesis is based on one or more metrics and a threshold
(paper, Section 2).  The reproduction's metrics are time-class
accumulators: a metric counts the seconds a focus spends in a given set of
activity classes.  Hypothesis values are *normalized* fractions — the
accumulated seconds divided by observed elapsed time times the number of
processes the focus matches — so "81% of process 3's time" and "45% of
total execution time for all four processors" (paper, Section 4.2) are
both expressible with the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from ..simulator.records import Activity

__all__ = ["Metric", "METRICS", "EXEC_TIME", "CPU_TIME", "SYNC_WAIT_TIME", "IO_WAIT_TIME"]


@dataclass(frozen=True)
class Metric:
    """A named accumulator over activity classes.

    ``kind`` selects the accumulation rule: ``"time"`` metrics sum the
    seconds of matching activity; ``"count"`` metrics count matching
    operations (one per completed segment), yielding rates when
    normalised by elapsed time — Paradyn's operation-frequency metrics.

    ``activity_keys`` is ``activities`` as sorted activity values
    (``("compute", "io", "sync")``), computed once: the keys probes are
    routed under and the columns a flat profile is read by, so every
    consumer agrees on which classes a metric counts.
    """

    name: str
    activities: FrozenSet[Activity]
    description: str
    kind: str = "time"
    activity_keys: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "activity_keys", tuple(sorted(a.value for a in self.activities))
        )

    def counts(self, activity: Activity) -> bool:
        return activity in self.activities


EXEC_TIME = Metric(
    name="exec_time",
    activities=frozenset({Activity.COMPUTE, Activity.SYNC, Activity.IO}),
    description="Wall-clock execution time regardless of activity class.",
)

CPU_TIME = Metric(
    name="cpu_time",
    activities=frozenset({Activity.COMPUTE}),
    description="Time spent computing (CPUbound hypothesis).",
)

SYNC_WAIT_TIME = Metric(
    name="sync_wait_time",
    activities=frozenset({Activity.SYNC}),
    description="Time blocked in synchronisation (ExcessiveSyncWaitingTime).",
)

IO_WAIT_TIME = Metric(
    name="io_wait_time",
    activities=frozenset({Activity.IO}),
    description="Time blocked in I/O (ExcessiveIOBlockingTime).",
)

SYNC_OP_COUNT = Metric(
    name="sync_op_count",
    activities=frozenset({Activity.SYNC}),
    description="Completed blocking synchronisation operations "
                "(FrequentSyncOperations hypothesis; a rate when normalised).",
    kind="count",
)

IO_OP_COUNT = Metric(
    name="io_op_count",
    activities=frozenset({Activity.IO}),
    description="Completed blocking I/O operations.",
    kind="count",
)

#: Registry keyed by metric name.
METRICS: Dict[str, Metric] = {
    m.name: m
    for m in (
        EXEC_TIME,
        CPU_TIME,
        SYNC_WAIT_TIME,
        IO_WAIT_TIME,
        SYNC_OP_COUNT,
        IO_OP_COUNT,
    )
}
