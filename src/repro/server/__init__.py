"""Diagnosis-as-a-service: long-lived serving of concurrent sessions.

The one-shot CLI/facade path pays the full session setup cost on every
call: open the store, parse its index, harvest history, run, tear down.
This package amortizes all of it across requests —

* :class:`StorePool` keeps opened :class:`~repro.storage.store.ExperimentStore`
  handles (and their parsed-index/record caches) hot, plus a harvest
  cache keyed by the evidence each set came from, so repeated diagnoses
  over the same history archive reuse everything but the diagnosis
  itself;
* :class:`DiagnosisService` multiplexes N concurrent sessions over one
  asyncio loop by slicing each engine's virtual clock
  (:meth:`~repro.core.consultant.DiagnosisSession.begin` /
  :meth:`~repro.core.consultant.ActiveDiagnosis.step`), with per-tenant
  cost caps and bounded-queue backpressure;
* :mod:`repro.server.protocol` serves the whole thing over a JSONL TCP
  socket (``repro serve``) and provides the synchronous
  :class:`ServerClient` shim the load generator and tests drive.
"""

from .pool import StorePool
from .service import (
    DiagnosisService,
    ServerBusy,
    SessionRequest,
    TenantPolicy,
)
from .protocol import ServerClient, ServerThread, serve_forever, start_server

__all__ = [
    "StorePool",
    "DiagnosisService",
    "ServerBusy",
    "SessionRequest",
    "TenantPolicy",
    "ServerClient",
    "ServerThread",
    "serve_forever",
    "start_server",
]
