"""The transient-failure classifier and :class:`ResiliencePolicy`, the one
value that configures a store's retry and circuit breaker.

The history store is shared infrastructure: a transient EIO from a
network filesystem, an EAGAIN, or a lock-held index must not abort a
diagnosis run that could succeed ten milliseconds later.  A policy
bounds that patience explicitly — a maximum attempt count AND a
wall-clock deadline, whichever lands first — and seeds its jitter, so a
replayed torture schedule backs off identically every time.  Past the
retries, a breaker remembers a long outage so later calls fail in
microseconds instead of a deadline in seconds.  The store's guard
(:mod:`repro.storage.store`) runs both halves from this one value.

What counts as *transient* is :func:`is_transient`: the retryable OS
errnos (EIO, EAGAIN, EBUSY, EINTR; ENOSPC is **not** retryable — a full
disk does not empty itself on a backoff curve).  Everything else —
:class:`~repro.storage.api.StoreCorruption` especially — is final.

Tunables that would break the loop — no attempt at all, a negative
delay or deadline, jitter outside ``[0, 1]``, a breaker that can never
close — are rejected when the policy is built, not at the first
transient error.
"""

from __future__ import annotations

import errno
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["ResiliencePolicy", "is_transient"]

#: OS errnos a retry can plausibly outwait.  ENOSPC is deliberately
#: absent: retrying into a full disk burns the deadline for nothing.
_TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.EAGAIN, errno.EBUSY, errno.EINTR})


def is_transient(exc: BaseException) -> bool:
    """Whether *exc* is the kind of failure a short wait can fix."""
    return isinstance(exc, OSError) and exc.errno in _TRANSIENT_ERRNOS


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables for one store's retry + breaker behaviour.

    One frozen value object so the CLI's ``--retry-*`` flags, the
    facade, and the torture harness all configure resilience the same
    way.

    Retry: delay before retry *n* (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a jitter
    factor in ``[1 - jitter, 1]`` drawn from ``random.Random(seed)`` —
    full-jitter-style spreading without ever exceeding the deterministic
    envelope.  ``deadline_s`` covers the whole operation including
    sleeps; a retry whose backoff does not fit the remaining budget is
    not attempted.

    Breaker: after ``breaker_threshold`` consecutive exhausted
    operations it opens and rejects calls without touching the backend;
    after ``breaker_reset_s`` it admits one probe, whose outcome closes
    or re-opens it.

    ``sleep`` and ``clock`` are injectable so tests and the torture
    harness run at full speed with zero real waiting.
    """

    attempts: int = 4
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.5
    deadline_s: Optional[float] = 2.0
    seed: int = 0
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        for name in ("base_delay", "multiplier", "max_delay"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError(
                f"deadline_s must be >= 0 or None, got {self.deadline_s}")
        if self.breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, "
                             f"got {self.breaker_threshold}")
