"""repro.resilience — retry, circuit breaking and scrub for the history
store.

Three layers, lowest first:

* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`: per-store
  closed→open→half-open fail-fast, with Prometheus-exportable counters;
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy`: seeded
  exponential backoff with deadlines, plus the transient-failure
  classifier shared by every caller; and :class:`ResiliencePolicy`, the
  one value that configures both halves for a store.
  :class:`~repro.storage.store.ExperimentStore` sends every backend
  operation through one guarded call built from it — the store's one
  retry layer (the backend never retries);
* :mod:`~repro.resilience.scrub` — the verification side:
  ``repro store verify``.
"""

from .breaker import CircuitBreaker, CircuitOpen
from .policy import (
    ResiliencePolicy,
    RetryExhausted,
    RetryPolicy,
    default_classify,
    is_transient,
)
from .scrub import ScrubReport, verify_store

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "ResiliencePolicy",
    "RetryExhausted",
    "RetryPolicy",
    "ScrubReport",
    "default_classify",
    "is_transient",
    "verify_store",
]
