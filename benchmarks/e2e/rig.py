"""The system under test, set up for one workload and driven one session
at a time through its public entry points only."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Optional, Set, Tuple

import repro
from repro.analysis import base_bottleneck_set, time_to_fraction
from repro.apps.catalog import build_catalog_app
from repro.core import DiagnosisSession, SearchConfig
from repro.obs import WALL_CLOCK_METRICS
from repro.server import ServerClient, ServerThread
from repro.storage import ExperimentStore, RunRecord

from clock import RefClock
from workloads import (
    APP, BASE_ITERATIONS, SEARCH, SOLID_MARGIN, VERSION, Scale, Workload,
)

#: Metrics that legitimately differ between a sliced (served) and a
#: one-shot run of the same spec; everything else must match exactly.
_MASKED_METRICS = WALL_CLOCK_METRICS | {"emit_batches"}


class OutputMismatch(Exception):
    """The program's output is not what the reference says it must be."""


def build_app(iterations: int):
    return build_catalog_app(APP, VERSION, iterations)


class Rig:
    """One set-up of a workload: fixture, server, connection.

    Construction *is* the set-up the benchmark times — base run, fixture
    saves, server start, the first (cold) request and the warm-ups, with
    the reference kernel run between them — and ``setup_ref_s`` is its
    duration at reference host speed.
    """

    def __init__(self, workload: Workload, scale: Scale, clock: RefClock,
                 root: Path) -> None:
        self.workload = workload
        self.clock = clock
        #: An empty directory of the caller's, for the archive.
        self.root = root
        self.history: Optional[str] = None
        self.server: Optional[ServerThread] = None
        self.client: Optional[ServerClient] = None
        self.setup_ref_s = 0.0
        #: Ref-ms per fixture save, one entry per batch of 8.
        self.seed_save_ref_ms: List[float] = []
        #: Runs the archive must hold: the fixture plus every save since.
        self.saved = 0
        try:
            self.base: RunRecord = self._timed(lambda: repro.diagnose(
                build_app(BASE_ITERATIONS), pool=None, run_id="base", **SEARCH,
            ))[0]
            self.solid: Set[Tuple[str, str]] = base_bottleneck_set(
                self.base, margin=SOLID_MARGIN)
            self.fixture_ref_s = self._seed_fixture(scale.fixture_records) \
                if workload.directed else 0.0
            if workload.served:
                self._timed(self._start_server)
            self.cold_first_ref_ms = self._setup_session("cold-0") * 1e3
            for i in range(scale.warmups):
                self._setup_session(f"warm-{i}")
        except BaseException:
            self.close()
            raise

    def _timed(self, fn: Callable[[], object]) -> Tuple[object, float]:
        """Run one step of the set-up; returns ``(result, ref_s)``."""
        result, _wall, ref = self.clock.timed(fn)
        self.setup_ref_s += ref
        return result, ref

    def _seed_fixture(self, records: int) -> float:
        """Archive the base run as *records* runs under distinct ids;
        returns the ``ref_s`` it took.

        ``cache_size=0`` so seeding does not set the memory peak; the
        kernel runs every 8 saves."""
        self.history = str(self.root / "history")
        store = ExperimentStore(self.history, cache_size=0)
        payload = self.base.to_dict()

        def save_batch(ids: range) -> None:
            for i in ids:
                payload["run_id"] = f"hist-{i:04d}"
                store.save(RunRecord.from_dict(payload))

        total = 0.0
        try:
            for start in range(0, records, 8):
                ids = range(start, min(start + 8, records))
                _, ref = self._timed(lambda: save_batch(ids))
                self.seed_save_ref_ms.append(ref * 1e3 / len(ids))
                total += ref
        finally:
            store.close()
        self.saved = records
        return total

    def _setup_session(self, run_id: str) -> float:
        """The cold request or a warm-up, on the base execution; returns
        its ``ref_s``."""
        result, ref = self._timed(
            lambda: self.request(BASE_ITERATIONS, run_id))
        self.score(self.note(result))
        return ref

    def _start_server(self) -> None:
        # One CPU-bound asyncio loop serving one closed-loop caller: more
        # outstanding requests would measure this 2-core box's scheduler.
        self.server = ServerThread(max_concurrent=1)
        self.client = ServerClient(self.server.host, self.server.port)

    # ------------------------------------------------------------------
    # one session
    # ------------------------------------------------------------------
    def request(self, iterations: int, run_id: str, progress=None):
        """One diagnosis as a caller sees it: a record dict over TCP, or
        a :class:`RunRecord` from the facade."""
        w = self.workload
        if not w.served:
            return repro.diagnose(
                build_app(iterations), history=self.history, pool=None,
                run_id=run_id, **SEARCH,
            )
        fields = {"version": VERSION, "iterations": iterations,
                  "search": SEARCH, "run_id": run_id}
        if w.directed:
            fields["history"] = self.history
        if w.write_through:
            fields["store"] = self.history
        return self.client.diagnose(APP, progress=progress, **fields)

    def note(self, result) -> RunRecord:
        """Book-keeping for a finished request; returns its record."""
        if self.workload.write_through:
            self.saved += 1
        return result if isinstance(result, RunRecord) \
            else RunRecord.from_dict(result)

    # ------------------------------------------------------------------
    # output checks
    # ------------------------------------------------------------------
    def score(self, record: RunRecord) -> Tuple[float, int, float]:
        """The paper's counts for one session against the base run's
        solid set: simulated seconds to find all of it, pairs
        instrumented, share found.

        A truncated diagnosis, or one that missed a solid bottleneck, is
        a failed session however soon it stopped: it gets no time."""
        if record.status != "complete" or record.search_done_time is None:
            raise OutputMismatch(f"{record.run_id}: incomplete session")
        to_all = time_to_fraction(record, self.solid)[1.0]
        found = self.solid & base_bottleneck_set(record)
        share = len(found) / len(self.solid)
        if to_all == float("inf") or share < 1.0:
            raise OutputMismatch(
                f"{record.run_id}: found {len(found)} of {len(self.solid)} "
                f"solid bottlenecks")
        return to_all, record.metrics["pairs_instrumented"], share

    def check_equivalence(self, iterations: int) -> None:
        """One request of this workload must produce the record the
        in-process ``DiagnosisSession.run()`` of the same spec does."""
        directives = None
        if self.workload.directed:
            directives = repro.harvest(self.history, app=APP, pool=None)
        got = self.note(self.request(iterations, "check-0"))
        want = DiagnosisSession(
            app=build_app(iterations), directives=directives,
            config=SearchConfig(**SEARCH), run_id="check-0",
        ).run()
        if _canonical(got) != _canonical(want):
            raise OutputMismatch(
                f"{self.workload.name}: record differs from the in-process "
                f"DiagnosisSession.run() of the same spec")

    def check_store(self) -> None:
        """After writes: the archive is clean and holds exactly the
        fixture plus one run per request that saved."""
        if not self.workload.write_through:
            return
        store = ExperimentStore(self.history, cache_size=0)
        try:
            report = store.verify()
            runs = len(store)
        finally:
            store.close()
        if not report.clean or runs != self.saved:
            raise OutputMismatch(
                f"archive after write-through: clean={report.clean}, "
                f"{runs} runs, expected {self.saved}")

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            if self.server is not None:
                self.server.stop()


def _canonical(record: RunRecord) -> dict:
    data = json.loads(json.dumps(record.to_dict()))
    data["metrics"] = {k: v for k, v in data["metrics"].items()
                       if k not in _MASKED_METRICS}
    return data
