"""The traced phase: where the time of one diagnosis goes, layer by layer.

Spans are recorded from here, around the calls into each layer (spans
inside the program are a later change): every traced request is
replayed stage by stage in process — the stages ``DiagnosisService``
and the facade run, through the same public calls — and is also served
plain and served with progress events, so the staged total can be set
against what a caller observes.  End-to-end metrics never come from
this phase.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import DiagnosisSession, SearchConfig
from repro.metrics.profile import ProfileCollector
from repro.server import StorePool
from repro.storage import ExperimentStore, RunRecord
from repro.storage.api import StoreInfo

from clock import REF_KERNEL_MS, RefClock, percentile
from rig import Rig, build_app
from workloads import APP, SEARCH, SLICE_EVENTS, Scale


class Spans:
    """In-memory span log: name, start, end, parent, request id.

    ``scale`` (set per request once the kernel has run on both sides of
    it) converts a span's wall duration to reference host speed.
    """

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        row = {"id": len(self.rows), "name": name, "request": request,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "scale": 1.0}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def rescale(self, request: str, scale: float) -> None:
        for row in self.rows:
            if row["request"] == request:
                row["scale"] = scale

    def ref_ms(self, name: str, request: Optional[str] = None) -> List[float]:
        """Durations in ref-ms of every span called *name* (of one
        request, when given)."""
        return [(r["end"] - r["start"]) * r["scale"] * 1e3
                for r in self.rows if r["name"] == name
                and request in (None, r["request"])]

    def median_ms(self, name: str) -> float:
        values = self.ref_ms(name)
        return statistics.median(values) if values else 0.0

    def sum_error(self) -> float:
        """Worst share, over staged requests, of the ``request`` span
        that none of its stages covers: the request's own self time.

        The stages have no children, so this is how far their self times
        are from summing to the request span."""
        covered: Dict[int, float] = {}
        for r in self.rows:
            if r["parent"] is not None:
                covered[r["parent"]] = covered.get(r["parent"], 0.0) \
                    + (r["end"] - r["start"])
        return max(
            abs(1.0 - covered.get(r["id"], 0.0) / (r["end"] - r["start"]))
            for r in self.rows if r["name"] == "request")

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for row in self.rows:
                out.write(json.dumps(row) + "\n")


def _open_and_harvest(spans: Spans, request: str, history: str):
    """What a cold caller pays before the session: the facade's
    ``pool=None`` route, one span per layer."""
    with spans.span("storage.open", request):
        store = ExperimentStore(history)
        store.index_token()
    try:
        with spans.span("core.extraction.evidence", request):
            evidence = store.harvest_evidence(APP)
        with spans.span("core.extraction.finalize", request):
            return evidence.finalize()
    finally:
        store.close()


def _staged_request(spans: Spans, rig: Rig, pool: StorePool,
                    iterations: int, request: str) -> RunRecord:
    """One request of the workload, stage by stage."""
    w = rig.workload
    with spans.span("request", request) as root:
        with spans.span("apps.build", request):
            app = build_app(iterations)
        directives = None
        if w.directed and w.served:
            with spans.span("server.pool.harvest", request):
                directives = pool.harvest(rig.history, app=APP)
        elif w.directed:
            directives = _open_and_harvest(spans, request, rig.history)
        root["directives"] = len(directives or ())
        session = DiagnosisSession(
            app=app, directives=directives, config=SearchConfig(**SEARCH),
            run_id=request,
        )
        with spans.span("core.consultant.begin", request):
            active = session.begin()
        with spans.span("core.consultant.step", request) as step:
            step["slices"] = 1
            while active.step(SLICE_EVENTS if w.served else None):
                step["slices"] += 1
        with spans.span("core.consultant.result", request):
            record = active.result()
        if w.write_through:
            with spans.span("storage.save", request):
                pool.get(rig.history).save(record)
            rig.saved += 1
        if w.served:
            with spans.span("server.protocol.encode", request) as encode:
                line = json.dumps(
                    {"event": "result", "record": record.to_dict()}
                ).encode()
                encode["bytes"] = len(line)
            with spans.span("server.protocol.decode", request):
                json.loads(line)
    return record


def _engine_ms(clock: RefClock, iterations: int, finish: float,
               profile: bool) -> Tuple[float, int]:
    """A fresh engine run to the session's finish time, with or without
    the profile sink; returns ``(ref_ms, events)``."""
    engine = build_app(iterations).make_engine()
    if profile:
        engine.add_sink(ProfileCollector())
    engine.schedule(finish, engine.stop)
    _finish, _wall, ref = clock.timed(engine.run)
    return ref * 1e3, engine.events_processed


@dataclass
class _Samples:
    """What the traced requests yield, one list entry per request (the
    engine differentials: per request that got them).  Times in ref-ms."""

    records: List[RunRecord] = field(default_factory=list)
    plain_ms: List[float] = field(default_factory=list)
    plain_wall_ms: List[float] = field(default_factory=list)
    #: Facade call minus the session's own ``wall_seconds`` in that call.
    around_session_ms: List[float] = field(default_factory=list)
    #: Client-observed latency minus the service's ``wall_seconds``.
    around_service_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)
    service_ms: List[float] = field(default_factory=list)
    slices: List[int] = field(default_factory=list)
    ping_ms: List[float] = field(default_factory=list)
    engine_ms: List[float] = field(default_factory=list)
    engine_events: List[int] = field(default_factory=list)
    profile_ms: List[float] = field(default_factory=list)
    residual_ms: List[float] = field(default_factory=list)


def _trace_request(rig: Rig, clock: RefClock, spans: Spans, pool: StorePool,
                   out: _Samples, i: int, iterations: int,
                   differential: bool) -> None:
    """One execution: sent plain, replayed staged, sent with progress
    events, and (when *differential*) run as a bare engine."""
    w = rig.workload
    result, wall, ref = clock.timed(
        lambda: rig.request(iterations, f"plain-{i:04d}"))
    plain = rig.note(result)
    rig.score(plain)
    out.plain_ms.append(ref * 1e3)
    out.plain_wall_ms.append(wall * 1e3)
    out.around_session_ms.append(
        (wall - plain.metrics["wall_seconds"]) * ref / wall * 1e3)

    request = f"staged-{i:04d}"
    record, wall, ref = clock.timed(
        lambda: _staged_request(spans, rig, pool, iterations, request))
    spans.rescale(request, ref / wall)
    out.records.append(record)

    if w.served:
        events: List[dict] = []
        result, wall, ref = clock.timed(lambda: rig.request(
            iterations, f"progress-{i:04d}", progress=events.append))
        rig.note(result)
        by_kind = {e["event"]: e for e in events}
        queued = by_kind["session-started"]["queue_seconds"]
        inside = by_kind["session-finished"]["wall_seconds"]
        out.queue_ms.append(queued * ref / wall * 1e3)
        out.service_ms.append(inside * ref / wall * 1e3)
        out.around_service_ms.append((wall - inside) * ref / wall * 1e3)
        out.slices.append(
            1 + sum(e["event"] == "session-progress" for e in events))
        out.ping_ms.append(clock.timed(rig.client.ping)[2] * 1e3)

    if not differential:
        return
    if w.directed and w.served:
        # What the pool saves this workload: one cold open-and-harvest,
        # its three spans rootless under a request id of their own.
        probe = f"probe-{i:04d}"
        _found, wall, ref = clock.timed(
            lambda: _open_and_harvest(spans, probe, rig.history))
        spans.rescale(probe, ref / wall)
    bare, events_run = _engine_ms(
        clock, iterations, record.finish_time, profile=False)
    profiled, _ = _engine_ms(
        clock, iterations, record.finish_time, profile=True)
    out.engine_ms.append(bare)
    out.engine_events.append(events_run)
    out.profile_ms.append(profiled - bare)
    step, = spans.ref_ms("core.consultant.step", request)
    out.residual_ms.append(step - profiled)


def traced_phase(rig: Rig, cycle: Sequence[int], scale: Scale,
                 clock: RefClock, trace_path: Path) -> Dict[str, float]:
    """Every per-layer metric of one workload, from one traced cycle.

    Differences are taken within a request or between runs of the same
    execution, never between medians of different requests: a session's
    time varies by 10-20 % run to run and by +-7 % between executions,
    far more than the layers being told apart.
    """
    w = rig.workload
    spans = Spans()
    pool = StorePool()
    got = _Samples()
    before = rig.client.metrics()["metrics"] if w.served else {}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    kernel0 = len(clock.kernel_samples)
    try:
        for i, iterations in enumerate(cycle):
            _trace_request(rig, clock, spans, pool, got, i, iterations,
                           differential=i < scale.differentials)
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        after = rig.client.metrics()["metrics"] if w.served else {}
    finally:
        pool.close()
        spans.write(trace_path)

    def mean(key: str) -> float:
        return statistics.fmean(r.metrics[key] for r in got.records)

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    saves = spans.ref_ms("storage.save")
    # Two served requests (plain, progress) per traced request.
    harvests = delta("pool_harvest_hits") + delta("pool_harvest_misses")
    kernel = med(clock.kernel_samples[kernel0:])
    # The archive as the run leaves it; no archive reads as an empty one.
    info = StoreInfo(root=None, backend="", runs=0, index_format=0)
    disk = 0
    if w.directed:
        store = ExperimentStore(rig.history, cache_size=0)
        try:
            info = store.info()
        finally:
            store.close()
        disk = sum(f.stat().st_size
                   for f in Path(rig.history).rglob("*") if f.is_file())
    return {
        "apps.build_ms": spans.median_ms("apps.build"),
        "simulator.engine_ms": med(got.engine_ms),
        "simulator.events_per_session": mean("engine_events"),
        "simulator.segments_per_session": mean("engine_segments"),
        "simulator.us_per_event":
            med(got.engine_ms) * 1e3 / med(got.engine_events),
        "metrics.profile_ms": med(got.profile_ms),
        "metrics.instr_requests": mean("instr_requests"),
        "metrics.probes_examined": mean("probes_examined"),
        "metrics.probes_per_segment":
            mean("probes_examined") / mean("engine_segments"),
        "core.search.residual_ms": med(got.residual_ms),
        "core.search.pairs_pruned": mean("pairs_pruned"),
        "core.search.pairs_concluded": mean("pairs_concluded"),
        "core.search.true_per_pair": statistics.fmean(
            r.bottleneck_count() / r.metrics["pairs_instrumented"]
            for r in got.records),
        "core.consultant.begin_ms": spans.median_ms("core.consultant.begin"),
        "core.consultant.step_ms": spans.median_ms("core.consultant.step"),
        "core.consultant.result_ms": spans.median_ms("core.consultant.result"),
        "core.extraction.evidence_ms":
            spans.median_ms("core.extraction.evidence"),
        "core.extraction.finalize_ms":
            spans.median_ms("core.extraction.finalize"),
        "core.extraction.directives":
            [r["directives"] for r in spans.rows if "directives" in r][-1],
        "storage.open_ms": spans.median_ms("storage.open"),
        "storage.save_ms": med(saves),
        "storage.save_max_ms": max(saves, default=0.0),
        "storage.seed_save_ms": med(rig.seed_save_ref_ms),
        "storage.disk_bytes_per_record": disk / info.runs if info.runs else 0,
        "storage.index_bytes_end": info.index_bytes,
        "storage.segments_end": info.segments,
        "storage.aggregated_segments_end": info.aggregated_segments,
        "storage.generation_end": info.generation,
        "server.pool.harvest_ms": spans.median_ms("server.pool.harvest"),
        "server.pool.harvest_requests": harvests / (2 * len(got.records)),
        "server.pool.harvest_hit_share":
            delta("pool_harvest_hits") / harvests if harvests else 0.0,
        "server.pool.harvest_incremental_share":
            delta("pool_harvest_incremental") / harvests if harvests else 0.0,
        "server.pool.store_opens": after.get("pool_store_misses", 0),
        "server.service.overhead_ms": med(got.around_service_ms),
        "server.service.queue_ms": med(got.queue_ms),
        "server.service.wall_ms": med(got.service_ms),
        "server.service.slices_per_session":
            statistics.fmean(got.slices or [0]),
        "server.service.sessions_failed": after.get("sessions_failed", 0),
        "server.service.sessions_rejected": after.get("sessions_rejected", 0),
        "server.protocol.encode_ms":
            spans.median_ms("server.protocol.encode"),
        "server.protocol.decode_ms":
            spans.median_ms("server.protocol.decode"),
        "server.protocol.response_bytes": statistics.fmean(
            [r["bytes"] for r in spans.rows if "bytes" in r] or [0]),
        "server.protocol.ping_ms": med(got.ping_ms),
        "facade.diagnose_ms": 0.0 if w.served else med(got.plain_ms),
        "facade.overhead_ms": 0.0 if w.served else med(got.around_session_ms),
        "host.calib_ms": kernel,
        "host.speed_index": REF_KERNEL_MS / kernel,
        "host.wall_p50_ms": med(got.plain_wall_ms),
        "host.wall_p75_ms": percentile(got.plain_wall_ms, 75),
        "host.cpu_share": cpu_share,
        "host.fixture_s": rig.fixture_ref_s,
        "host.cold_first_ms": rig.cold_first_ref_ms,
        "host.span_sum_error": spans.sum_error(),
    }
