"""The campaign runner: staged, parallel, retried, resumable diagnosis sets.

A :class:`Campaign` executes stages of :class:`~repro.campaign.spec.RunSpec`
in order.  Within a stage every run is independent — exactly the shape of
the paper's experiment tables, where each cell is one (application,
configuration, history-condition) diagnosis — so the stage fans out over
the configured executor.  Between stages the campaign provides the
*extraction barrier*: a stage marked ``directives_from="baseline"`` waits
for the baseline stage, harvests directives from its records, and injects
them into its own specs before any of them start.

Failure policy, in escalation order:

1. a run whose worker raises is retried up to ``retries`` times, with
   exponential backoff (``backoff * backoff_factor**attempt`` seconds)
   between rounds;
2. a run still failing on a *simulator* error is salvaged — re-executed
   once with ``on_failure="degrade"`` so the Performance Consultant
   finalises over whatever data it gathered and returns a partial record
   (``status="degraded"``) instead of nothing;
3. only then is the run recorded as a failure — and one bad run never
   takes down the campaign.

``run_timeout`` bounds each run's wall clock in either executor; an
expired run fails with :class:`~repro.campaign.executors.RunTimeout` and
goes through the same retry ladder.

Results stream back through an optional ``progress`` callback and are
optionally persisted to a concurrency-safe
:class:`~repro.storage.store.ExperimentStore` as they arrive.  That store
is the campaign's only durable record of finished runs: after a kill, the
same campaign re-run with ``resume=True`` restores the runs the store's
index holds and sends only the rest to the executor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.consultant import run_diagnosis
from ..core.directives import DirectiveSet
from ..core.extraction import extract_directives
from ..faults import FaultPlan
from ..obs.metrics import aggregate_metrics
from ..simulator.errors import SimulationError
from ..storage.records import RunRecord
from ..storage.store import ExperimentStore, StoreCorruption, StoreError
from .executors import SerialExecutor, default_executor
from .spec import RunSpec, Stage

__all__ = ["Campaign", "CampaignResult", "StageResult", "CampaignError"]

ProgressCallback = Callable[[Dict[str, Any]], None]


class CampaignError(RuntimeError):
    """Raised for campaign configuration problems."""


# ---------------------------------------------------------------------------
# the worker function (module-level: it crosses process boundaries)
# ---------------------------------------------------------------------------
def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one spec; returns the record as a dict plus worker telemetry.

    Directives travel as text (the directive file format) and fault plans
    as their dict form rather than as objects, so the payload's pickle
    surface stays small and version-stable; records come back as plain
    dicts for the same reason.
    """
    start = time.perf_counter()
    if payload["pre_delay"] > 0.0:
        time.sleep(payload["pre_delay"])
    app = payload["builder"](*payload["builder_args"], **payload["builder_kwargs"])
    directives = None
    if payload["directives_text"] is not None:
        directives = DirectiveSet.from_text(payload["directives_text"])
    session_kwargs = dict(payload["session_kwargs"])
    if payload.get("faults") is not None:
        session_kwargs["faults"] = FaultPlan.from_dict(payload["faults"])
    record = run_diagnosis(
        app,
        directives=directives,
        config=payload["config"],
        run_id=payload["run_id"],
        **session_kwargs,
    )
    return {
        "record": record.to_dict(),
        "wall": time.perf_counter() - start,
        "pid": os.getpid(),
    }


def _payload_for(spec: RunSpec) -> Dict[str, Any]:
    return {
        "builder": spec.builder,
        "builder_args": tuple(spec.builder_args),
        "builder_kwargs": dict(spec.builder_kwargs),
        "config": spec.config,
        "directives_text": spec.directives.to_text() if spec.directives else None,
        "run_id": spec.run_id,
        "pre_delay": spec.pre_delay,
        "session_kwargs": dict(spec.session_kwargs),
        "faults": spec.faults.to_dict() if spec.faults else None,
    }


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class StageResult:
    """Everything one stage produced."""

    name: str
    records: List[Optional[RunRecord]]
    failures: Dict[str, str] = field(default_factory=dict)
    retried: List[str] = field(default_factory=list)
    #: Run ids whose record is partial: the run failed outright and was
    #: salvaged with ``on_failure="degrade"``, or its record came back
    #: with ``status="degraded"`` (crashed processes, injected faults).
    degraded: List[str] = field(default_factory=list)
    #: Run ids whose record could not be persisted to the campaign store
    #: (``on_store_failure="degrade"``): the run itself succeeded and its
    #: record is in :attr:`records`, but the store write failed.
    store_failures: Dict[str, str] = field(default_factory=dict)
    #: Run ids restored from the campaign store instead of re-executed.
    resumed: List[str] = field(default_factory=list)
    wall: float = 0.0
    #: The harvested directive set injected via ``directives_from``.
    harvested: Optional[DirectiveSet] = None

    @property
    def ok(self) -> List[RunRecord]:
        return [r for r in self.records if r is not None]

    def metrics(self) -> Dict[str, Any]:
        """Stage-level aggregate of the runs' observability metrics
        (:func:`repro.obs.metrics.aggregate_metrics`)."""
        return aggregate_metrics(r.metrics for r in self.ok)


@dataclass
class CampaignResult:
    """Per-stage results plus campaign-level aggregates."""

    name: str
    stages: Dict[str, StageResult]
    wall: float = 0.0

    @property
    def records(self) -> List[RunRecord]:
        return [r for stage in self.stages.values() for r in stage.ok]

    @property
    def failures(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for stage in self.stages.values():
            out.update(stage.failures)
        return out

    @property
    def degraded(self) -> List[str]:
        return [run_id for stage in self.stages.values() for run_id in stage.degraded]

    @property
    def store_failures(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for stage in self.stages.values():
            out.update(stage.store_failures)
        return out

    def stage(self, name: str) -> StageResult:
        return self.stages[name]

    def metrics(self) -> Dict[str, Any]:
        """Campaign-level aggregate of every run's observability metrics."""
        return aggregate_metrics(r.metrics for r in self.records)

    def summary(self) -> str:
        lines = [f"campaign {self.name}: {self.wall:.1f} s wall"]
        for stage in self.stages.values():
            line = (
                f"  stage {stage.name}: {len(stage.ok)}/{len(stage.records)} ok, "
                f"{len(stage.failures)} failed"
            )
            if stage.degraded:
                line += f", {len(stage.degraded)} degraded"
            if stage.store_failures:
                line += f", {len(stage.store_failures)} unsaved"
            if stage.resumed:
                line += f", {len(stage.resumed)} resumed"
            lines.append(line + f", {stage.wall:.1f} s")
            for record in stage.ok:
                t_all = record.time_to_find_all()
                detail = (
                    f"    {record.run_id}: {record.bottleneck_count()} bottlenecks, "
                    f"{record.pairs_tested} pairs"
                )
                if t_all:
                    detail += f", found all at {t_all:.1f} s"
                if record.degraded:
                    detail += f" [DEGRADED {record.coverage:.0%} coverage: {record.failure}]"
                lines.append(detail)
            for run_id, error in stage.failures.items():
                lines.append(f"    {run_id}: FAILED ({error})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the campaign itself
# ---------------------------------------------------------------------------
class Campaign:
    """A staged set of diagnoses executed through one executor.

    Single-stage convenience::

        Campaign(specs=[RunSpec(build_poisson, ("C",)) for _ in range(8)])

    Full pipeline (baseline → harvest → directed)::

        Campaign(stages=[
            Stage("baseline", base_specs),
            Stage("directed", directed_specs, directives_from="baseline"),
        ])

    ``retries`` is the number of re-executions after the first attempt;
    round *n* of retries starts after ``backoff * backoff_factor**(n-1)``
    seconds (exponential backoff, shared by the whole retry round).
    """

    def __init__(
        self,
        stages: Optional[Sequence[Stage]] = None,
        *,
        specs: Optional[Sequence[RunSpec]] = None,
        name: str = "campaign",
        retries: int = 1,
        backoff: float = 0.1,
        backoff_factor: float = 2.0,
    ):
        if (stages is None) == (specs is None):
            raise CampaignError("pass exactly one of stages= or specs=")
        if specs is not None:
            stages = [Stage("runs", list(specs))]
        if retries < 0:
            raise CampaignError(f"retries must be >= 0, got {retries}")
        if backoff < 0 or backoff_factor < 1.0:
            raise CampaignError(
                f"need backoff >= 0 and backoff_factor >= 1, "
                f"got {backoff}/{backoff_factor}"
            )
        self.stages = list(stages)
        self.name = name
        self.retries = retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        if not self.stages:
            raise CampaignError("campaign has no stages")
        seen: set = set()
        for stage in self.stages:
            if stage.name in seen:
                raise CampaignError(f"duplicate stage name {stage.name!r}")
            if stage.directives_from is not None and stage.directives_from not in seen:
                raise CampaignError(
                    f"stage {stage.name!r} harvests from {stage.directives_from!r}, "
                    "which is not an earlier stage"
                )
            seen.add(stage.name)

    # ------------------------------------------------------------------
    def run(
        self,
        executor=None,
        *,
        store: Union[ExperimentStore, str, Path, None] = None,
        progress: Optional[ProgressCallback] = None,
        overwrite: bool = False,
        workers: Optional[int] = None,
        resume: bool = False,
        run_timeout: Optional[float] = None,
        on_store_failure: str = "raise",
    ) -> CampaignResult:
        """Execute every stage; never raises for individual run failures.

        ``executor`` defaults to :class:`SerialExecutor` (or a pool when
        ``workers`` is given).  ``store`` may be a path or an
        :class:`ExperimentStore`; records are saved as they complete.
        With ``resume=True`` (which needs ``store``) the runs the
        store's index already holds are loaded instead of re-executed.
        ``run_timeout`` caps each run's wall-clock seconds.
        ``on_store_failure`` decides what a failed ``store.save`` does:
        ``"raise"`` (the default) aborts the campaign, ``"degrade"``
        records the error in :attr:`StageResult.store_failures`, keeps
        the in-memory record, and continues — a sick archive then costs
        durability, not compute (a later resume re-runs the unsaved run).
        ``progress`` receives event dicts (``stage-started``,
        ``run-finished``, ``run-failed``, ``run-retried``,
        ``run-salvaged``, ``run-skipped``, ``store-degraded``,
        ``stage-finished``) for live reporting.
        """
        if on_store_failure not in ("raise", "degrade"):
            raise CampaignError(
                f'on_store_failure must be "raise" or "degrade", '
                f"got {on_store_failure!r}"
            )
        if executor is None:
            executor = default_executor(workers) if workers else SerialExecutor()
        if resume and store is None:
            raise CampaignError("resume=True needs a store")
        if store is not None and not isinstance(store, ExperimentStore):
            from ..facade import resolve_store

            store = resolve_store(store)
        emit = progress or (lambda event: None)
        # Resume keys on the *index*, not on payload files: a kill between
        # a save's record rename and its segment seal leaves an unindexed
        # orphan file that list(), ``in``, harvest and save all treat as
        # absent, so that run re-executes and its save reclaims the file.
        held = frozenset(store.list()) if resume else frozenset()

        campaign_start = time.perf_counter()
        result = CampaignResult(name=self.name, stages={})
        for stage in self.stages:
            result.stages[stage.name] = self._run_stage(
                stage, executor, result, store, emit, overwrite,
                held, run_timeout, on_store_failure,
            )
        result.wall = time.perf_counter() - campaign_start
        return result

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        stage: Stage,
        executor,
        result: CampaignResult,
        store: Optional[ExperimentStore],
        emit: ProgressCallback,
        overwrite: bool,
        held: AbstractSet[str],
        run_timeout: Optional[float],
        on_store_failure: str = "raise",
    ) -> StageResult:
        stage_start = time.perf_counter()
        specs = [
            spec if spec.run_id else spec.with_run_id(
                f"{self.name}-{stage.name}-{index:03d}"
            )
            for index, spec in enumerate(stage.specs)
        ]

        harvested = None
        if stage.directives_from is not None:
            # The extraction barrier: directives come from a fully
            # completed earlier stage, mirroring the paper's harvest step.
            # Partial records below the coverage floor are not trusted as
            # history.
            source = [
                r
                for r in result.stages[stage.directives_from].ok
                if r.coverage >= stage.min_coverage
            ]
            if not source:
                raise CampaignError(
                    f"stage {stage.name!r}: no successful runs in "
                    f"{stage.directives_from!r} (coverage >= {stage.min_coverage:g}) "
                    "to harvest directives from"
                )
            if store is not None:
                # Harvest what the store holds: load_many serves the
                # records this process just saved straight from the store
                # cache, and picks up any concurrent overwrite (the stat
                # signature changes) instead of a stale in-memory copy.
                try:
                    source = store.load_many([r.run_id for r in source])
                except (StoreError, StoreCorruption):
                    pass  # harvest from the in-memory records instead
            harvested = extract_directives(source, **dict(stage.extract))
            specs = [
                spec if spec.directives is not None else spec.with_directives(harvested)
                for spec in specs
            ]

        emit({
            "event": "stage-started",
            "campaign": self.name,
            "stage": stage.name,
            "runs": len(specs),
            "executor": repr(executor),
            "harvested_directives": len(harvested) if harvested else 0,
        })

        payloads = [_payload_for(spec) for spec in specs]
        records: List[Optional[RunRecord]] = [None] * len(specs)
        failures: Dict[str, str] = {}
        retried: List[str] = []
        degraded: List[str] = []
        store_failures: Dict[str, str] = {}
        resumed: List[str] = []

        def accept(index: int, outcome: Dict[str, Any], salvaged: bool = False) -> None:
            """A final successful (possibly degraded) worker result."""
            run_id = specs[index].run_id
            record = RunRecord.from_dict(outcome["record"])
            records[index] = record
            if record.degraded:
                degraded.append(run_id)
            if store is not None:
                try:
                    store.save(record, overwrite=overwrite)
                except (StoreError, OSError) as exc:
                    # The *run* succeeded; only its persistence failed.
                    # Under "degrade" the record survives in memory and
                    # the campaign carries on.
                    if on_store_failure != "degrade":
                        raise
                    store_failures[run_id] = str(exc)
                    emit({
                        "event": "store-degraded",
                        "stage": stage.name,
                        "run_id": run_id,
                        "error": str(exc),
                    })
            emit({
                "event": "run-salvaged" if salvaged else "run-finished",
                "stage": stage.name,
                "run_id": run_id,
                "wall": outcome["wall"],
                "pid": outcome["pid"],
                "bottlenecks": record.bottleneck_count(),
                "pairs_tested": record.pairs_tested,
                "time_to_find_all": record.time_to_find_all(),
                "status": record.status,
                "coverage": record.coverage,
            })

        def reject(index: int, outcome: Exception) -> None:
            """A run that exhausted every recovery path."""
            run_id = specs[index].run_id
            failures[run_id] = str(outcome)
            emit({
                "event": "run-failed",
                "stage": stage.name,
                "run_id": run_id,
                "error": str(outcome),
            })

        # Runs the store already holds: restore, don't re-execute.
        pending = [i for i, spec in enumerate(specs) if spec.run_id not in held]
        restore = [i for i, spec in enumerate(specs) if spec.run_id in held]
        if restore:
            loaded = store.load_many([specs[i].run_id for i in restore])
            for index, record in zip(restore, loaded):
                records[index] = record
                resumed.append(record.run_id)
                if record.degraded:
                    degraded.append(record.run_id)
                emit({
                    "event": "run-skipped",
                    "stage": stage.name,
                    "run_id": record.run_id,
                    "status": record.status,
                })

        # Attempt 0 plus `retries` backoff rounds.
        last_error: Dict[int, Exception] = {}
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt > 0:
                delay = self.backoff * self.backoff_factor ** (attempt - 1)
                for index in pending:
                    retried.append(specs[index].run_id)
                    emit({
                        "event": "run-retried",
                        "stage": stage.name,
                        "run_id": specs[index].run_id,
                        "error": str(last_error[index]),
                        "attempt": attempt,
                        "backoff": delay,
                    })
                if delay > 0:
                    time.sleep(delay)
            batch = pending
            failed: List[int] = []
            for local_index, outcome in executor.run(
                _execute_payload, [payloads[i] for i in batch], timeout=run_timeout
            ):
                index = batch[local_index]
                if isinstance(outcome, Exception):
                    last_error[index] = outcome
                    failed.append(index)
                else:
                    accept(index, outcome)
            pending = sorted(failed)

        # Salvage: runs that keep dying on a *simulator* failure get one
        # degraded re-execution, so the campaign reports a partial record
        # (what the search concluded before the fault) instead of nothing.
        # Builder bugs, timeouts, and other infrastructure errors are not
        # salvageable that way and go straight to the failure list.
        salvage = [
            i
            for i in pending
            if isinstance(last_error[i], SimulationError)
            and payloads[i]["session_kwargs"].get("on_failure") != "degrade"
        ]
        for index in pending:
            if index not in salvage:
                reject(index, last_error[index])
        if salvage:
            degrade_payloads = []
            for index in salvage:
                payload = dict(payloads[index])
                payload["session_kwargs"] = dict(
                    payload["session_kwargs"], on_failure="degrade"
                )
                degrade_payloads.append(payload)
            for local_index, outcome in executor.run(
                _execute_payload, degrade_payloads, timeout=run_timeout
            ):
                index = salvage[local_index]
                if isinstance(outcome, Exception):
                    reject(index, outcome)
                else:
                    accept(index, outcome, salvaged=True)

        stage_result = StageResult(
            name=stage.name,
            records=records,
            failures=failures,
            retried=retried,
            degraded=degraded,
            store_failures=store_failures,
            resumed=resumed,
            wall=time.perf_counter() - stage_start,
            harvested=harvested,
        )
        emit({
            "event": "stage-finished",
            "stage": stage.name,
            "ok": len(stage_result.ok),
            "failed": len(failures),
            "degraded": len(degraded),
            "resumed": len(resumed),
            "wall": stage_result.wall,
        })
        return stage_result
