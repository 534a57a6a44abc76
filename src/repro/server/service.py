"""The concurrent diagnosis scheduler behind ``repro serve``.

One asyncio loop multiplexes N live :class:`DiagnosisSession`\\ s by
slicing each engine's virtual clock: a session runs
:meth:`~repro.core.consultant.ActiveDiagnosis.step` for a bounded number
of dispatched events, yields the loop, and resumes — the engine's
watchdog budgets are per-call and non-destructive, so the sliced run
replays exactly the event sequence (and produces exactly the record) a
one-shot run would.  No threads are needed for concurrency; the engine
is CPU-bound virtual time, and slicing bounds how long any one session
can monopolize the loop.

Admission control is two-layered, per the paper's own cost discipline:

* **backpressure** — at most ``queue_limit`` queued sessions; submission
  past that raises :class:`ServerBusy` (the caller sheds load instead of
  the server growing an unbounded queue);
* **per-tenant isolation** — each tenant's :class:`TenantPolicy` caps
  how many of its sessions run at once and clamps the per-session
  instrumentation ``cost_limit`` (each session owns its
  :class:`~repro.metrics.cost.CostGate`, so one tenant exhausting its
  cap halts only its own expansion, never another tenant's).  Scheduling
  is round-robin across tenants with pending work; a saturated tenant is
  skipped, not waited on.

An optional ``executor`` (reusing :mod:`repro.campaign.executors`) moves
whole sessions onto worker processes for CPU-bound fan-out on multi-core
hosts; the asyncio slicing path remains the default and the
byte-identity reference.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set, Union

from ..apps.base import Application
from ..apps.catalog import build_catalog_app
from ..core.consultant import DiagnosisSession
from ..core.directives import DirectiveSet
from ..core.search import SearchConfig
from ..storage.records import RunRecord
from .pool import StorePool

__all__ = ["DiagnosisService", "ServerBusy", "SessionRequest", "TenantPolicy"]

Progress = Callable[[dict], None]


class ServerBusy(RuntimeError):
    """The service's bounded queue is full; resubmit later."""


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant serving limits.

    ``cost_limit`` clamps every session's instrumentation cost cap (the
    session still gets its *own* hysteretic gate, so exhaustion halts
    only that session's expansion); ``max_concurrent`` bounds how many
    of the tenant's sessions run simultaneously.  ``None`` means
    unlimited for either knob.
    """

    cost_limit: Optional[float] = None
    max_concurrent: Optional[int] = None


@dataclass
class SessionRequest:
    """One diagnosis to serve.

    ``app`` is a live :class:`Application` or a catalog name (with
    ``version``/``iterations`` forwarded to
    :func:`~repro.apps.catalog.build_catalog_app`).  ``history`` supplies
    search directives: a :class:`DirectiveSet` is used as-is, a store
    path is harvested through the service's :class:`StorePool` (cached
    until the store's index changes).  ``store`` persists the finished
    record through the same pool.  ``search`` holds
    :class:`SearchConfig` field overrides when no explicit ``config`` is
    given.  ``progress`` receives this session's progress events in
    addition to the service-wide callback.
    """

    app: Union[Application, str]
    version: Optional[str] = None
    iterations: Optional[int] = None
    history: Union[None, DirectiveSet, str] = None
    harvest_options: Dict[str, Any] = field(default_factory=dict)
    store: Optional[str] = None
    run_id: Optional[str] = None
    overwrite: bool = False
    tenant: str = "default"
    config: Optional[SearchConfig] = None
    search: Dict[str, Any] = field(default_factory=dict)
    on_failure: str = "degrade"
    max_events: Optional[int] = None
    max_virtual_time: Optional[float] = None
    progress: Optional[Progress] = None


@dataclass
class _Job:
    request: SessionRequest
    future: "asyncio.Future[RunRecord]"
    submitted: float


def _worker_run(payload: dict) -> RunRecord:
    """Run one whole session in a pool worker (module-level: picklable)."""
    directives = None
    if payload["directives"] is not None:
        directives = DirectiveSet.from_text(payload["directives"])
    return DiagnosisSession(
        app=build_catalog_app(
            payload["app"], payload["version"], payload["iterations"]
        ),
        directives=directives,
        config=SearchConfig(**payload["config"]),
        run_id=payload["run_id"],
        on_failure=payload["on_failure"],
        max_events=payload["max_events"],
        max_virtual_time=payload["max_virtual_time"],
    ).run()


class DiagnosisService:
    """Schedules concurrent diagnosis sessions over one asyncio loop.

    All methods must be called from that loop (the protocol layer and
    :class:`~repro.server.protocol.ServerThread` arrange this).  The
    service is usable immediately after construction; :meth:`stop`
    rejects the queue and waits for running sessions.
    """

    def __init__(
        self,
        pool: Optional[StorePool] = None,
        *,
        max_concurrent: int = 4,
        queue_limit: int = 32,
        slice_events: int = 2000,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = None,
        progress: Optional[Progress] = None,
        executor: Any = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if slice_events < 1:
            raise ValueError(f"slice_events must be >= 1, got {slice_events}")
        self.pool = pool if pool is not None else StorePool()
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.slice_events = slice_events
        self.tenants = dict(tenants or {})
        self.default_policy = default_policy or TenantPolicy()
        self.progress = progress
        self.executor = executor
        self._pending: "OrderedDict[str, Deque[_Job]]" = OrderedDict()
        self._pending_total = 0
        self._running: Dict[str, int] = {}
        self._running_total = 0
        self._tasks: Set[asyncio.Task] = set()
        self._stopping = False
        self.counters: Dict[str, int] = {
            "sessions_submitted": 0,
            "sessions_completed": 0,
            "sessions_failed": 0,
            "sessions_rejected": 0,
            "slices_total": 0,
            "events_total": 0,
        }

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: SessionRequest) -> "asyncio.Future[RunRecord]":
        """Queue one session; the returned future resolves to its record.

        Raises :class:`ServerBusy` when ``queue_limit`` sessions are
        already waiting — bounded-queue backpressure, so overload is
        visible at the edge instead of an ever-growing queue.
        """
        if self._stopping:
            raise ServerBusy("service is stopping")
        if self._pending_total >= self.queue_limit:
            self.counters["sessions_rejected"] += 1
            self._emit(request, {
                "event": "session-rejected", "tenant": request.tenant,
                "queued": self._pending_total,
            })
            raise ServerBusy(
                f"queue full ({self._pending_total} sessions waiting)"
            )
        loop = asyncio.get_running_loop()
        job = _Job(request, loop.create_future(), time.perf_counter())
        self._pending.setdefault(request.tenant, deque()).append(job)
        self._pending_total += 1
        self.counters["sessions_submitted"] += 1
        self._emit(request, {
            "event": "session-queued", "tenant": request.tenant,
            "queued": self._pending_total, "running": self._running_total,
        })
        self._dispatch()
        return job.future

    async def run(self, request: SessionRequest) -> RunRecord:
        """Submit and await one session."""
        return await self.submit(request)

    async def stop(self) -> None:
        """Reject new work, fail queued jobs, and wait for running ones."""
        self._stopping = True
        for queue in self._pending.values():
            for job in queue:
                if not job.future.done():
                    job.future.set_exception(ServerBusy("service stopped"))
        self._pending.clear()
        self._pending_total = 0
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _policy(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)

    def _next_job(self) -> Optional[_Job]:
        """Round-robin over tenants with pending work, skipping any at
        their concurrency cap — a saturated tenant never head-blocks the
        others."""
        for tenant in list(self._pending):
            queue = self._pending[tenant]
            if not queue:
                del self._pending[tenant]
                continue
            cap = self._policy(tenant).max_concurrent
            if cap is not None and self._running.get(tenant, 0) >= cap:
                continue
            job = queue.popleft()
            self._pending_total -= 1
            if queue:
                # Rotate the tenant behind the others it just beat.
                self._pending.move_to_end(tenant)
            else:
                del self._pending[tenant]
            return job
        return None

    def _dispatch(self) -> None:
        while not self._stopping and self._running_total < self.max_concurrent:
            job = self._next_job()
            if job is None:
                return
            tenant = job.request.tenant
            self._running[tenant] = self._running.get(tenant, 0) + 1
            self._running_total += 1
            task = asyncio.get_running_loop().create_task(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job: _Job) -> None:
        request = job.request
        try:
            record = await self._execute(job)
        except Exception as exc:  # noqa: BLE001 - relayed via the future
            self.counters["sessions_failed"] += 1
            self._emit(request, {
                "event": "session-failed", "tenant": request.tenant,
                "error": f"{type(exc).__name__}: {exc}",
            })
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            self.counters["sessions_completed"] += 1
            if not job.future.done():
                job.future.set_result(record)
        finally:
            tenant = request.tenant
            self._running[tenant] -= 1
            if not self._running[tenant]:
                del self._running[tenant]
            self._running_total -= 1
            self._dispatch()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _build_session(self, request: SessionRequest) -> DiagnosisSession:
        app = request.app
        if not isinstance(app, Application):
            app = build_catalog_app(app, request.version, request.iterations)
        directives: Optional[DirectiveSet] = None
        if isinstance(request.history, DirectiveSet):
            directives = request.history
        elif request.history is not None:
            directives = self.pool.harvest(
                request.history, app=app.name, **request.harvest_options
            )
        config = request.config or SearchConfig(**request.search)
        policy = self._policy(request.tenant)
        if policy.cost_limit is not None \
                and config.cost_limit > policy.cost_limit:
            config = dataclasses.replace(config, cost_limit=policy.cost_limit)
        return DiagnosisSession(
            app=app,
            directives=directives,
            config=config,
            run_id=request.run_id,
            on_failure=request.on_failure,
            max_events=request.max_events,
            max_virtual_time=request.max_virtual_time,
        )

    async def _execute(self, job: _Job) -> RunRecord:
        request = job.request
        started = time.perf_counter()
        self._emit(request, {
            "event": "session-started", "tenant": request.tenant,
            "queue_seconds": started - job.submitted,
        })
        if self.executor is not None and not isinstance(request.app, Application):
            record = await self._execute_on_worker(request)
        else:
            session = self._build_session(request)
            active = session.begin()
            while active.step(self.slice_events):
                self.counters["slices_total"] += 1
                self._emit(request, {
                    "event": "session-progress", "tenant": request.tenant,
                    "run_id": active.run_id,
                    "events": active.events_dispatched,
                    "virtual_time": active.engine.now,
                })
                await asyncio.sleep(0)
            self.counters["slices_total"] += 1
            record = active.result()
        self.counters["events_total"] += record.metrics.get("engine_events") or 0
        if request.store is not None:
            self.pool.get(request.store).save(
                record, overwrite=request.overwrite
            )
        self._emit(request, {
            "event": "session-finished", "tenant": request.tenant,
            "run_id": record.run_id, "status": record.status,
            "bottlenecks": record.bottleneck_count(),
            "wall_seconds": time.perf_counter() - started,
        })
        return record

    async def _execute_on_worker(self, request: SessionRequest) -> RunRecord:
        """One whole session on the campaign executor (CPU-bound fan-out).

        Coarse-grained: no virtual-clock slicing and no per-slice
        progress, but sessions occupy worker processes instead of the
        serving loop.  Requires a catalog app (the payload must pickle).
        """
        session = self._build_session(request)
        config = session.config or SearchConfig()
        payload = {
            "app": request.app,
            "version": request.version,
            "iterations": request.iterations,
            "directives": (
                session.directives.to_text()
                if session.directives is not None else None
            ),
            "config": dataclasses.asdict(config),
            "run_id": request.run_id,
            "on_failure": request.on_failure,
            "max_events": request.max_events,
            "max_virtual_time": request.max_virtual_time,
        }

        def call() -> RunRecord:
            outcome = list(self.executor.run(_worker_run, [payload]))[0][1]
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        return await asyncio.get_running_loop().run_in_executor(None, call)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _emit(self, request: SessionRequest, event: dict) -> None:
        for sink in (self.progress, request.progress):
            if sink is None:
                continue
            try:
                sink(event)
            except Exception:  # noqa: BLE001 - a dead observer (e.g. a
                pass  # disconnected client) must not kill the session

    def server_metrics(self) -> Dict[str, float]:
        """Flat counters in the shape
        :func:`~repro.obs.metrics.metrics_to_prometheus` renders as the
        ``repro_server_*`` series."""
        out: Dict[str, float] = dict(self.counters)
        out["queue_depth"] = self._pending_total
        out["active_sessions"] = self._running_total
        out["tenants_known"] = len(self.tenants)
        for name, value in self.pool.stats().items():
            out[f"pool_{name}"] = value
        return out
