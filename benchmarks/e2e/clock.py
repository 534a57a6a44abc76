"""Reference host speed: a fixed pure-Python kernel timed between operations.

This box drifts: identical code reads 118–168 ms for the same session
within minutes, and for tens of minutes at a time it runs at half speed
(CPU time ≈ wall time, so it is the host's speed, not preemption).
Dividing every timed operation by a fixed kernel timed immediately
before and after it removes most of that drift, so the benchmark reports
host time *at reference host speed* ("ref-ms", "ref-s").

The kernel mirrors the instruction mix of the simulator's hot loop —
generator stepping, ``heapq`` push/pop, dict update, slotted-attribute
bump, float add — on a small working set, so the allocator's state does
not reach it, and imports nothing from ``repro``, so no change to the
program can move it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Callable, List, Sequence, Tuple

#: What one kernel run takes on the reference host, in ms.  A constant of
#: the benchmark: changing it rescales every time metric.
REF_KERNEL_MS = 15.0

_KERNEL_STEPS = 20000
#: The kernel's result; checked on every run so the work stays fixed.
_KERNEL_CHECKSUM = 109452545.0


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


def _ticks(n: int):
    t = 0.0
    for _ in range(n):
        t += 0.5
        yield t


def kernel() -> float:
    """Run the fixed work once and return its checksum."""
    heap: List[Tuple[float, int]] = []
    table = {}
    cell = _Cell()
    push, pop = heapq.heappush, heapq.heappop
    ticks = _ticks(_KERNEL_STEPS)
    for i in range(_KERNEL_STEPS):
        t = next(ticks)
        push(heap, ((i * 7919) % 1013 + t, i))
        if len(heap) > 64:
            when, j = pop(heap)
            table[j & 255] = when
            cell.count += 1
            cell.total += when
    return cell.total + cell.count + len(heap) + len(table)


def kernel_ms() -> float:
    """Wall milliseconds one kernel run takes right now.

    The collector is off meanwhile: the kernel's own allocations would
    otherwise trigger collections whose cost depends on the program's
    heap, and the kernel must not depend on the program."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = kernel()
        elapsed = (time.perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()
    if checksum != _KERNEL_CHECKSUM:
        raise RuntimeError(f"reference kernel drifted: checksum {checksum!r}")
    return elapsed


class RefClock:
    """Times operations in the calling thread at reference host speed.

    The kernel runs between operations, while nothing else is
    outstanding; each operation is scaled by the mean of the kernel
    timings on either side of it, per sample, before any percentile is
    taken.
    """

    def __init__(self) -> None:
        self.kernel_samples: List[float] = [kernel_ms()]

    def timed(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run *fn*; returns ``(result, wall_s, ref_s)``."""
        before = self.kernel_samples[-1]
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = kernel_ms()
        self.kernel_samples.append(after)
        return result, wall, wall * REF_KERNEL_MS / ((before + after) / 2.0)

    def speed_index(self) -> float:
        """Host speed relative to the reference host (1.0 = reference)."""
        return REF_KERNEL_MS / statistics.median(self.kernel_samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
