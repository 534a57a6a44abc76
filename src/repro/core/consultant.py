"""Diagnosis sessions: run an application under the Performance Consultant.

This is the public entry point most users want: build an
:class:`~repro.apps.base.Application`, optionally supply a
:class:`~repro.core.directives.DirectiveSet` harvested from history, and
get back a fully populated :class:`~repro.storage.records.RunRecord`.
"""

from __future__ import annotations

import itertools
import os
import time
import uuid
from dataclasses import dataclass
from typing import Optional

from ..apps.base import Application
from ..faults import FaultInjector, FaultPlan
from ..metrics.cost import CostModel
from ..metrics.instrumentation import InstrumentationManager
from ..metrics.profile import ProfileCollector
from ..obs.metrics import run_metrics
from ..obs.trace import Tracer
from ..simulator.errors import SimTimeout, SimulationError
from ..storage.records import RunRecord
from .directives import DirectiveSet
from .discovery import DiscoverySink
from .hypotheses import TOP_LEVEL, HypothesisTree, standard_tree
from .mapping import apply_mappings
from .search import PerformanceConsultantSearch, SearchConfig

__all__ = ["DiagnosisSession", "ActiveDiagnosis", "run_diagnosis"]

_run_counter = itertools.count(1)
_process_tag: Optional[str] = None
_process_tag_pid: Optional[int] = None


def _current_process_tag() -> str:
    # Recomputed whenever the pid changes: forked campaign workers inherit
    # the parent's module state, so a tag captured at import time (and the
    # counter value itself) would collide across processes.
    global _process_tag, _process_tag_pid
    pid = os.getpid()
    if _process_tag_pid != pid:
        _process_tag = f"{pid:x}{uuid.uuid4().hex[:6]}"
        _process_tag_pid = pid
    return _process_tag


def _default_run_id(app: Application) -> str:
    return f"{app.name}-{app.version}-{_current_process_tag()}-{next(_run_counter):04d}"


@dataclass
class DiagnosisSession:
    """A configured but not-yet-executed diagnosis."""

    app: Application
    directives: Optional[DirectiveSet] = None
    config: Optional[SearchConfig] = None
    cost_model: Optional[CostModel] = None
    hypotheses: Optional[HypothesisTree] = None
    run_id: Optional[str] = None
    apply_resource_mapping: bool = True
    #: Register resources the trace reveals but the application did not
    #: declare (late discovery, paper Section 6 future work).
    discover_resources: bool = False
    #: Fault injection: anomalies applied to this execution.
    faults: Optional[FaultPlan] = None
    #: What a simulator failure (deadlock, watchdog timeout) does:
    #: ``"raise"`` propagates it; ``"degrade"`` finalises the search over
    #: the data gathered so far and returns a record with
    #: ``status="degraded"``, the failure line, and the coverage fraction.
    on_failure: str = "raise"
    #: Watchdog budgets forwarded to ``Engine.run`` (a fault plan's own
    #: budgets take precedence when set).
    max_events: Optional[int] = None
    max_virtual_time: Optional[float] = None
    #: Observability: attach a :class:`~repro.obs.trace.Tracer` and the
    #: search, the instrumentation manager, and the cost gate stream
    #: structured events into it.  ``None`` (the default) adds zero
    #: overhead — no callback is ever consulted.
    tracer: Optional[Tracer] = None

    def begin(self) -> "ActiveDiagnosis":
        """Set up the run — engine, instrumentation, search — and start
        the search without executing any virtual time.

        Returns an :class:`ActiveDiagnosis` whose :meth:`~ActiveDiagnosis.step`
        advances the engine's virtual clock in bounded slices; calling
        ``step()`` with no budget runs to completion.  This is the seam
        the diagnosis server schedules concurrent sessions through — a
        one-shot :meth:`run` is ``begin()`` plus one unbounded step.
        """
        if self.on_failure not in ("raise", "degrade"):
            raise ValueError(f"unknown on_failure policy {self.on_failure!r}")
        wall_start = time.perf_counter()
        config = self.config or SearchConfig()
        space = self.app.make_space()
        directives = self.directives or DirectiveSet()
        if self.apply_resource_mapping and not directives.is_empty():
            # Map directive resource names onto this run's names and drop
            # directives that still reference unknown resources (paper,
            # Section 3.2: mappings are applied, then prunes, before the
            # directives are read into the Performance Consultant).
            directives, _report = apply_mappings(directives, space)
        engine = self.app.make_engine()
        injector = None
        max_time = self.max_virtual_time if self.max_virtual_time is not None else 1e9
        max_events = self.max_events
        if self.faults is not None and not self.faults.is_empty():
            injector = FaultInjector(self.faults).attach(engine)
        if self.faults is not None:
            plan_time, plan_events = (
                self.faults.max_virtual_time, self.faults.max_events,
            )
            if plan_time is not None:
                max_time = plan_time
            if plan_events is not None:
                max_events = plan_events
        instr = InstrumentationManager(
            engine,
            space,
            cost_model=self.cost_model or CostModel(),
            cost_limit=config.cost_limit,
            insertion_latency=config.insertion_latency,
        )
        profiler = ProfileCollector()
        engine.add_sink(profiler)
        if self.discover_resources:
            engine.add_sink(DiscoverySink(space))
        run_id = self.run_id or _default_run_id(self.app)
        search = PerformanceConsultantSearch(
            engine,
            instr,
            space,
            hypotheses=self.hypotheses or standard_tree(),
            directives=directives,
            config=config,
            tracer=self.tracer,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "run-start", run_id=run_id, app=self.app.name,
                version=self.app.version, n_processes=self.app.n_processes,
            )
        search.start()
        return ActiveDiagnosis(
            session=self,
            engine=engine,
            search=search,
            instr=instr,
            profiler=profiler,
            space=space,
            config=config,
            run_id=run_id,
            max_time=max_time,
            max_events=max_events,
            injector=injector,
            wall_start=wall_start,
        )

    def run(self) -> RunRecord:
        """Execute the application with the online search attached."""
        active = self.begin()
        active.step()
        return active.result()


class ActiveDiagnosis:
    """A started diagnosis that can be advanced in bounded slices.

    Produced by :meth:`DiagnosisSession.begin`.  Each :meth:`step` call
    resumes the engine for at most ``max_events`` dispatched events and
    returns ``True`` while the run is unfinished — the engine's watchdog
    budgets are per-call and non-destructive, so a sliced execution
    replays exactly the event sequence a one-shot run dispatches and the
    final :meth:`result` record is identical (modulo wall-clock metrics
    and segment-flush batching).  The session's *own* ``max_events`` /
    ``max_virtual_time`` budgets are enforced cumulatively across
    slices, so a hung program still times out at the same virtual point
    it would have one-shot.
    """

    def __init__(
        self,
        *,
        session: DiagnosisSession,
        engine,
        search: PerformanceConsultantSearch,
        instr: InstrumentationManager,
        profiler: ProfileCollector,
        space,
        config: SearchConfig,
        run_id: str,
        max_time: float,
        max_events: Optional[int],
        injector,
        wall_start: float,
    ) -> None:
        self.session = session
        self.engine = engine
        self.search = search
        self.instr = instr
        self.profiler = profiler
        self.space = space
        self.config = config
        self.run_id = run_id
        self._max_time = max_time
        self._max_events = max_events
        self._injector = injector
        self._wall_start = wall_start
        self._events_base = engine.events_processed
        self._finish: Optional[float] = None
        self._failure: Optional[str] = None
        self._done = False

    @property
    def done(self) -> bool:
        """Whether the run has finished (normally or degraded)."""
        return self._done

    @property
    def events_dispatched(self) -> int:
        """Engine events dispatched by this diagnosis so far."""
        return self.engine.events_processed - self._events_base

    def step(self, max_events: Optional[int] = None) -> bool:
        """Advance by up to *max_events* dispatched events.

        ``None`` runs to completion (or to the session's own budgets).
        Returns ``True`` while more virtual time remains, ``False`` once
        the run finished.  A session budget exhausted mid-slice follows
        the session's ``on_failure`` policy exactly as a one-shot run
        would: ``"raise"`` propagates :class:`SimTimeout`, ``"degrade"``
        finalises the search over the data gathered so far.
        """
        if self._done:
            return False
        remaining: Optional[int] = None
        if self._max_events is not None:
            remaining = max(self._max_events - self.events_dispatched, 0)
        budget = remaining
        if max_events is not None:
            budget = max_events if remaining is None else min(max_events, remaining)
        try:
            finish = self.engine.run(max_time=self._max_time, max_events=budget)
        except SimTimeout as exc:
            budget_keys = getattr(exc, "budget", None) or {}
            slice_limited = (
                "max_events" in budget_keys
                and max_events is not None
                and (remaining is None or self.events_dispatched < self._max_events)
            )
            if slice_limited:
                return True
            return self._conclude_failure(exc)
        except SimulationError as exc:
            return self._conclude_failure(exc)
        self._finish = finish
        self._done = True
        return False

    def _conclude_failure(self, exc: SimulationError) -> bool:
        if self.session.on_failure == "raise":
            raise exc
        # Graceful degradation: finalise over what was gathered, keep
        # the surviving conclusions, annotate the rest.
        self._failure = f"{type(exc).__name__}: {exc}"
        self.search.final_pass(reason=self._failure)
        self._finish = self.engine.now
        self._done = True
        return False

    def result(self) -> RunRecord:
        """Assemble the finished run's record (requires :attr:`done`)."""
        if not self._done:
            raise RuntimeError(
                "diagnosis still in progress; step() it to completion first"
            )
        session, engine, search, instr = (
            self.session, self.engine, self.search, self.instr,
        )
        finish = self._finish if self._finish is not None else engine.now
        failure = self._failure
        degraded = failure is not None or bool(engine.crashed())
        if failure is None and engine.crashed():
            crashed = sorted(p.name for p in engine.crashed())
            failure = f"crashed processes: {crashed}"
        shg = search.shg
        states = shg.state_counts()
        concluded = sum(
            1 for n in shg if n.concluded and n.hypothesis != TOP_LEVEL
        )
        metrics = run_metrics(
            engine_events=engine.events_processed,
            wall_seconds=time.perf_counter() - self._wall_start,
            virtual_seconds=finish,
            peak_cost=instr.peak_cost,
            mean_cost=instr.mean_cost,
            pairs_instrumented=shg.tested_count(),
            pairs_concluded=concluded,
            pairs_pruned=states.get("pruned", 0),
            pairs_unknown=states.get("unknown", 0),
            instr_requests=instr.total_requests,
            instr_deletes=instr.total_deletes,
            instr_decimates=instr.total_decimates,
            segments_routed=instr.segments_routed,
            probes_examined=instr.probes_examined,
            engine_segments=engine.segments_emitted,
            emit_batches=engine.emit_batches,
            time_to_first_true=search.first_true_time(),
            time_to_last_true=search.last_true_time(),
            trace_events=session.tracer.count if session.tracer else 0,
            trace_dropped=session.tracer.dropped if session.tracer else 0,
        )
        config = self.config
        return RunRecord(
            run_id=self.run_id,
            app_name=session.app.name,
            version=session.app.version,
            n_processes=session.app.n_processes,
            nodes=list(session.app.node_names),
            placement=dict(session.app.placement),
            hierarchies={
                name: hierarchy.names()
                for name, hierarchy in self.space.hierarchies.items()
            },
            shg_nodes=shg.to_dicts(),
            profile=self.profiler.profile.to_dict(),
            finish_time=finish,
            search_done_time=search.done_at,
            pairs_tested=shg.tested_count(),
            total_requests=instr.total_requests,
            peak_cost=instr.peak_cost,
            thresholds=dict(search._thresholds),
            config={
                "min_interval": config.min_interval,
                "check_period": config.check_period,
                "cost_limit": config.cost_limit,
                "insertion_latency": config.insertion_latency,
            },
            notes=session.faults.describe() if session.faults else "",
            status="degraded" if degraded else "complete",
            failure=failure,
            coverage=search.coverage(),
            metrics=metrics,
        )


def run_diagnosis(
    app: Application,
    directives: Optional[DirectiveSet] = None,
    config: Optional[SearchConfig] = None,
    run_id: Optional[str] = None,
    **kwargs,
) -> RunRecord:
    """One-call diagnosis: run *app* under the Performance Consultant.

    ``kwargs`` are forwarded to :class:`DiagnosisSession` (cost model,
    hypothesis tree, mapping toggle).
    """
    return DiagnosisSession(
        app=app, directives=directives, config=config, run_id=run_id, **kwargs
    ).run()
