"""Virtual-time event queue.

A minimal deterministic discrete-event core: events are ``(time, seq,
payload)`` triples ordered by time with FIFO tie-breaking, so repeated
runs of the same program produce byte-identical traces.

The payload is opaque to the queue.  User code schedules plain
callables; the engine schedules its own continuations as small tuples
(an opcode plus its operands) so the hot path never allocates a closure
per event, and tells the two apart by type when it pops.

Cancellation is lazy (a cancelled token is skipped when it reaches the
front) but *bounded*: whenever the cancelled set outgrows the heap —
which proves at least one cancelled token no longer has a pending entry
— the heap is compacted in place and the set cleared.  Without the
bound, tokens cancelled after their event already fired would accumulate
for the life of the queue (one leaked set entry per late cancel, which
long campaigns turn into unbounded growth).  Compaction mutates
``_heap`` in place (never rebinds it) so the engine's loop can hold a
direct reference across calls.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of timed payloads (callbacks or continuation tuples)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._cancelled: set = set()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, fn: Callable[[], None]) -> int:
        """Schedule *fn* at *time*; returns a token usable with cancel()."""
        token = next(self._seq)
        heapq.heappush(self._heap, (time, token, fn))
        return token

    def cancel(self, token: int) -> None:
        """Lazily cancel a scheduled event (skipped when popped).

        Cancelling a token whose event already fired is a no-op, but the
        queue cannot tell the two cases apart cheaply; instead the
        cancelled set is bounded by compaction (see module docstring).
        """
        cancelled = self._cancelled
        cancelled.add(token)
        if len(cancelled) > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry eagerly and clear the token set.

        In-place (``_heap[:] =``) so external references to the heap
        list — the engine's loop hoists one — stay valid.
        """
        cancelled = self._cancelled
        if cancelled:
            self._heap[:] = [e for e in self._heap if e[1] not in cancelled]
            heapq.heapify(self._heap)
            cancelled.clear()

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][1] in self._cancelled:
            _, tok, _ = heapq.heappop(self._heap)
            self._cancelled.discard(tok)
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Optional[Tuple[float, Any]]:
        while self._heap:
            time, tok, fn = heapq.heappop(self._heap)
            if tok in self._cancelled:
                self._cancelled.discard(tok)
                continue
            return time, fn
        return None

    def clear(self) -> None:
        self._heap.clear()
        self._cancelled.clear()
