"""Retry with seeded exponential backoff — the transient-failure half of
:mod:`repro.resilience` — and :class:`ResiliencePolicy`, the one value
that configures a store's retry and circuit breaker.

The history store is shared infrastructure: a transient EIO from a
network filesystem, an EAGAIN, or a lock-held index must not
abort a diagnosis run that could succeed ten milliseconds later.  A
:class:`RetryPolicy` bounds that patience explicitly — a maximum attempt
count AND a wall-clock deadline, whichever lands first — and draws its
jitter from a seeded :class:`random.Random` so a replayed torture
schedule backs off identically every time.

What counts as *transient* is a policy decision, not a mechanism one:
:func:`default_classify` treats the retryable OS errnos (EIO, EAGAIN,
EBUSY, EINTR; ENOSPC is **not** retryable —
a full disk does not empty itself on a backoff curve) as worth retrying,
and everything else — :class:`~repro.storage.api.StoreCorruption`
especially — as final.  Callers override ``classify`` per call site.

Tunables that would break the loop — no attempt at all, a negative
delay or deadline, jitter outside ``[0, 1]`` — are rejected when the
policy is built, not at the first transient error.
"""

from __future__ import annotations

import errno
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .breaker import CircuitBreaker

__all__ = [
    "ResiliencePolicy",
    "RetryPolicy",
    "RetryExhausted",
    "default_classify",
    "is_transient",
]

#: OS errnos a retry can plausibly outwait.  ENOSPC is deliberately
#: absent: retrying into a full disk burns the deadline for nothing.
_TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.EAGAIN, errno.EBUSY, errno.EINTR})


def is_transient(exc: BaseException) -> bool:
    """Whether *exc* is the kind of failure a short wait can fix."""
    return isinstance(exc, OSError) and exc.errno in _TRANSIENT_ERRNOS


# kept as a distinct name so call sites read as policy, not plumbing
default_classify = is_transient


class RetryExhausted(RuntimeError):
    """Every attempt a :class:`RetryPolicy` allowed has failed.

    Carries the final exception (``last``) and the attempt count so the
    caller can re-raise a domain-typed error with full provenance.
    """

    def __init__(self, message: str, last: BaseException, attempts: int) -> None:
        super().__init__(message)
        self.last = last
        self.attempts = attempts


@dataclass
class RetryPolicy:
    """Bounded, seeded exponential backoff.

    Delay before retry *n* (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a
    seeded jitter factor in ``[1 - jitter, 1]`` — full-jitter-style
    spreading without ever exceeding the deterministic envelope.  The
    ``deadline_s`` budget covers the whole call including sleeps; a
    retry that cannot fit its backoff inside the remaining budget is
    not attempted.

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
    classify: Callable[[BaseException], bool] = default_classify
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    #: Observer called as ``on_retry(attempt, delay, exc)`` before each
    #: backoff sleep — the hook metrics and breakers count through.
    on_retry: Optional[Callable[[int, float, BaseException], None]] = None
    _rng: random.Random = field(init=False, repr=False)

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
        self._rng = random.Random(self.seed)

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry *attempt* (1-based), jitter applied."""
        raw = min(self.base_delay * self.multiplier ** (attempt - 1),
                  self.max_delay)
        if self.jitter <= 0:
            return raw
        return raw * (1.0 - self.jitter * self._rng.random())

    def call(self, fn: Callable[[], object], *, describe: str = "store operation"):
        """Run *fn*, retrying transient failures within the budget.

        Non-transient exceptions propagate untouched on the first
        strike.  When the budget runs out, raises
        :class:`RetryExhausted` chaining the last transient failure.
        """
        start = self.clock()
        history: List[str] = []
        final: Optional[BaseException] = None
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except Exception as exc:
                if not self.classify(exc):
                    raise
                final = exc
                history.append(f"{type(exc).__name__}: {exc}")
                if attempt >= self.attempts:
                    break
                delay = self.delay_for(attempt)
                if self.deadline_s is not None:
                    spent = self.clock() - start
                    if spent + delay > self.deadline_s:
                        break
                if self.on_retry is not None:
                    self.on_retry(attempt, delay, exc)
                self.sleep(delay)
        assert final is not None
        raise RetryExhausted(
            f"{describe} still failing after {len(history)} attempt(s) "
            f"(last: {history[-1]})",
            last=final, attempts=len(history),
        ) from final


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables for one store's retry + breaker behaviour.

    One frozen value object so the CLI's ``--retry-*`` flags, the
    facade, and the torture harness all configure resilience the same
    way.  ``sleep``/``clock`` are injectable for zero-wall-clock tests.
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
        # Build both parts once: their constructors hold the checks, so
        # a bad tunable fails here, where the policy is written.
        self.make_retry()
        self.make_breaker("policy")

    def make_retry(self, on_retry=None) -> RetryPolicy:
        return RetryPolicy(
            attempts=self.attempts,
            base_delay=self.base_delay,
            multiplier=self.multiplier,
            max_delay=self.max_delay,
            jitter=self.jitter,
            deadline_s=self.deadline_s,
            seed=self.seed,
            classify=default_classify,
            sleep=self.sleep,
            clock=self.clock,
            on_retry=on_retry,
        )

    def make_breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name,
            failure_threshold=self.breaker_threshold,
            reset_timeout_s=self.breaker_reset_s,
            clock=self.clock,
        )
