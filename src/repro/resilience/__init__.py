"""repro.resilience — the history store's availability config and scrub.

* :mod:`~repro.resilience.policy` — :class:`ResiliencePolicy`, the one
  validated value that configures a store's retry (seeded exponential
  backoff under a deadline) and circuit breaker, and
  :func:`is_transient`, the failure classifier.
  :class:`~repro.storage.store.ExperimentStore` builds one guard from it
  and sends every backend operation through that guard — the store's
  one retry layer (the backend never retries);
* :mod:`~repro.resilience.scrub` — the verification side:
  ``repro store verify``.
"""

from .policy import ResiliencePolicy, is_transient
from .scrub import ScrubReport, verify_store

__all__ = [
    "ResiliencePolicy",
    "ScrubReport",
    "is_transient",
    "verify_store",
]
