"""repro.resilience — retry, circuit breaking, scrub, and torture for the
history store.

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
* :mod:`~repro.resilience.scrub` / :mod:`~repro.resilience.torture` —
  the verification side: ``repro store verify`` and the seeded
  crash-consistency harness.

``torture`` is exported lazily (PEP 562): it imports
:mod:`repro.storage.store`, which imports this package for
:class:`ResiliencePolicy` — an eager re-export would close that cycle.
CI imports each side first in a fresh interpreter to prove it stays open.
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
    "TortureReport",
    "default_classify",
    "is_transient",
    "run_schedule",
    "run_torture",
    "verify_store",
]

_LAZY = {"TortureReport", "run_schedule", "run_torture"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from . import torture

    return getattr(torture, name)
