"""The resilience seam: a :class:`StorageBackend` wrapper that retries
transient failures and fails fast behind a circuit breaker.

:class:`ExperimentStore` threads every backend call through a
:class:`ResilientBackend` (unless resilience is disabled), and this is
the store's one retry layer (the backend itself never retries):

* transient failures — EIO, EAGAIN — reach this wrapper raw and are
  retried, whole operation by whole operation, under a seeded
  :class:`~repro.resilience.policy.RetryPolicy`
  with a bounded deadline; every retry is counted;
* an exhausted operation trips the per-backend
  :class:`~repro.resilience.breaker.CircuitBreaker`; while it is open,
  calls fail in microseconds with :class:`StoreUnavailable` instead of
  burning a retry budget each;
* domain errors — :class:`StoreError`, :class:`StoreCorruption` — pass
  through untouched on the first strike (they prove the store is
  *reachable*, so they count as breaker successes), and
  :class:`~repro.faults.io.SimulatedCrash` passes through everything
  (nothing recovers from a kill).

Retrying a whole backend operation is safe because the backend keeps
the operation's *index effect* atomic: a ``put`` that raised a transient
error has not indexed the run (the index segment is sealed by the final
atomic rename), so the retry re-runs the full operation from scratch
and idempotently.

All counters are exported via :meth:`ResilientBackend.metrics` in the
flat shape :func:`repro.obs.metrics.metrics_to_prometheus` renders.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple, TypeVar

from ..storage.api import (
    CompactionStats,
    RecoveryReport,
    StorageBackend,
    StoreInfo,
    StoreUnavailable,
)
from .breaker import CircuitBreaker, CircuitOpen
from .policy import RetryExhausted, RetryPolicy, default_classify

__all__ = ["ResiliencePolicy", "ResilientBackend"]

T = TypeVar("T")


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


class ResilientBackend(StorageBackend):
    """Every :class:`StorageBackend` operation, guarded.

    ``inner`` stays reachable (``.inner``, and attribute fallthrough via
    ``__getattr__`` for backend-specific extras like ``segment_count``),
    so diagnostics and benchmarks that poke internals
    keep working.
    """

    def __init__(self, inner: StorageBackend,
                 policy: Optional[ResiliencePolicy] = None) -> None:
        self.inner = inner
        self.policy = policy or ResiliencePolicy()
        self.name = inner.name  # instance attr: the ABC's class default
        # would otherwise shadow __getattr__ delegation
        self._retry = self.policy.make_retry(on_retry=self._on_retry)
        self._breaker = self.policy.make_breaker(inner.name)
        self._lock = threading.Lock()
        self._ops_total = 0
        self._retries_total = 0
        self._unavailable_total = 0

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------
    def _on_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        with self._lock:
            self._retries_total += 1

    def _guard(self, op: str, fn: Callable[[], T]) -> T:
        with self._lock:
            self._ops_total += 1
        try:
            self._breaker.allow()
        except CircuitOpen as exc:
            with self._lock:
                self._unavailable_total += 1
            raise StoreUnavailable(str(exc)) from exc
        try:
            result = self._retry.call(fn, describe=f"{self.name} {op}")
        except RetryExhausted as exc:
            self._breaker.record_failure()
            with self._lock:
                self._unavailable_total += 1
            raise StoreUnavailable(
                f"store backend {self.name!r}: {exc}"
            ) from exc.last
        except Exception:
            # A domain error (StoreError, StoreCorruption, ...) means the
            # store answered — reachable, just unhappy.
            self._breaker.record_success()
            raise
        self._breaker.record_success()
        return result

    def metrics(self) -> Dict[str, float]:
        """Flat counters for ``repro report --metrics`` Prometheus export."""
        with self._lock:
            out = {
                "ops_total": float(self._ops_total),
                "retries_total": float(self._retries_total),
                "unavailable_total": float(self._unavailable_total),
            }
        out.update(self._breaker.metrics())
        return out

    # ------------------------------------------------------------------
    # StorageBackend, guarded
    # ------------------------------------------------------------------
    def put(self, run_id: str, payload: dict, meta: dict,
            *, overwrite: bool = False) -> Tuple[int, Hashable]:
        return self._guard("put", lambda: self.inner.put(
            run_id, payload, meta, overwrite=overwrite))

    def get(self, run_id: str) -> dict:
        return self._guard("get", lambda: self.inner.get(run_id))

    def delete(self, run_id: str) -> None:
        return self._guard("delete", lambda: self.inner.delete(run_id))

    def contains(self, run_id: str) -> bool:
        return self._guard("contains", lambda: self.inner.contains(run_id))

    def record_token(self, run_id: str) -> Hashable:
        return self._guard("record_token",
                           lambda: self.inner.record_token(run_id))

    def query_summaries(
        self,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, dict]:
        return self._guard("query_summaries", lambda: self.inner.query_summaries(
            app_name=app_name, version=version, run_ids=run_ids))

    # The two aggregate methods have non-abstract defaults on the ABC,
    # which this subclass would silently inherit (shadowing __getattr__
    # delegation) — so they must be wrapped explicitly like the rest.
    def harvest_aggregate(self, app_name: Optional[str] = None):
        return self._guard("harvest_aggregate",
                           lambda: self.inner.harvest_aggregate(app_name))

    def index_token(self) -> Hashable:
        return self._guard("index_token", lambda: self.inner.index_token())

    def rebuild(self) -> RecoveryReport:
        return self._guard("rebuild", lambda: self.inner.rebuild())

    def compact(self) -> CompactionStats:
        return self._guard("compact", lambda: self.inner.compact())

    def info(self) -> StoreInfo:
        return self._guard("info", lambda: self.inner.info())

    # backend-specific extras (segment_count, lock, ...) fall
    # through unguarded — they are internals, not contract surface
    def __getattr__(self, item: str):
        return getattr(self.inner, item)
