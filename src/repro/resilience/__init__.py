"""repro.resilience — retry, circuit breaking, scrub, and torture for the
history store.

Four layers, lowest first:

* :mod:`~repro.resilience.policy` — :class:`RetryPolicy`: seeded
  exponential backoff with deadlines, plus the transient-failure
  classifier shared by every caller;
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`: per-backend
  closed→open→half-open fail-fast, with Prometheus-exportable counters;
* :mod:`~repro.resilience.backend` — :class:`ResilientBackend`: the
  :class:`~repro.storage.api.StorageBackend` wrapper
  :class:`~repro.storage.store.ExperimentStore` threads every operation
  through, configured by one :class:`ResiliencePolicy` value — the
  store's one retry layer (the backend never retries);
* :mod:`~repro.resilience.scrub` / :mod:`~repro.resilience.torture` —
  the verification side: ``repro store verify`` and the seeded
  crash-consistency harness.

``scrub`` and ``torture`` are exported lazily (PEP 562): they import
:mod:`repro.storage.store`, which imports this package for
:class:`ResilientBackend` — eager re-export would close that cycle.
"""

from .backend import ResiliencePolicy, ResilientBackend
from .breaker import CircuitBreaker, CircuitOpen
from .policy import RetryExhausted, RetryPolicy, default_classify, is_transient

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "ResiliencePolicy",
    "ResilientBackend",
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

_LAZY = {
    "ScrubReport": ("scrub", "ScrubReport"),
    "verify_store": ("scrub", "verify_store"),
    "TortureReport": ("torture", "TortureReport"),
    "run_schedule": ("torture", "run_schedule"),
    "run_torture": ("torture", "run_torture"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)
