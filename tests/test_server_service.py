"""Tests for the concurrent session scheduler (DiagnosisService)."""

import asyncio

import pytest

from repro.apps.synthetic import make_pingpong
from repro.apps.tester import TesterConfig, build_tester
from repro.core import SearchConfig
from repro.core.consultant import DiagnosisSession
from repro.obs import deterministic_metrics
from repro.server import (
    DiagnosisService,
    ServerBusy,
    SessionRequest,
    StorePool,
    TenantPolicy,
)
from repro.simulator.errors import SimTimeout
from repro.storage import ExperimentStore, StoreError

FAST = SearchConfig(min_interval=5.0, check_period=0.5,
                    insertion_latency=0.2, cost_limit=50.0)

#: Metrics that legitimately differ between sliced and one-shot execution:
#: wall clock, and the segment flush batching the slicing boundaries change.
LOOP_SHAPE = {"emit_batches"}


def comparable(record):
    out = record.to_dict()
    out["run_id"] = "X"
    out["metrics"] = {
        k: v for k, v in deterministic_metrics(out["metrics"]).items()
        if k not in LOOP_SHAPE
    }
    return out


def _request(run_id=None, **kwargs):
    kwargs.setdefault("app", make_pingpong(iterations=60))
    kwargs.setdefault("config", FAST)
    return SessionRequest(run_id=run_id, **kwargs)


def run_service(coro):
    return asyncio.run(coro)


class TestActiveDiagnosis:
    """The begin()/step()/result() seam the scheduler is built on."""

    def test_sliced_equals_oneshot(self):
        oneshot = DiagnosisSession(
            app=make_pingpong(iterations=60), config=FAST, run_id="x"
        ).run()
        active = DiagnosisSession(
            app=make_pingpong(iterations=60), config=FAST, run_id="x"
        ).begin()
        slices = 0
        while active.step(40):
            slices += 1
        sliced = active.result()
        assert slices > 2  # the budget actually sliced the run
        assert comparable(sliced) == comparable(oneshot)

    def test_step_without_budget_runs_to_completion(self):
        active = DiagnosisSession(
            app=make_pingpong(iterations=60), config=FAST
        ).begin()
        assert active.step() is False
        assert active.done
        assert active.result().status == "complete"

    def test_result_before_done_raises(self):
        active = DiagnosisSession(
            app=make_pingpong(iterations=60), config=FAST
        ).begin()
        with pytest.raises(RuntimeError, match="in progress"):
            active.result()

    def test_session_budget_still_raises_when_sliced(self):
        active = DiagnosisSession(
            app=make_pingpong(iterations=500), config=FAST,
            max_events=100, on_failure="raise",
        ).begin()
        with pytest.raises(SimTimeout):
            while active.step(40):
                pass

    def test_session_budget_degrades_when_sliced(self):
        active = DiagnosisSession(
            app=make_pingpong(iterations=500), config=FAST,
            max_events=100, on_failure="degrade",
        ).begin()
        while active.step(40):
            pass
        record = active.result()
        assert record.status == "degraded"
        assert "SimTimeout" in record.failure
        assert active.events_dispatched == 100


class TestDiagnosisService:
    def test_concurrent_records_identical_to_serial(self):
        serial = [
            DiagnosisSession(
                app=make_pingpong(iterations=60), config=FAST, run_id=f"r{i}"
            ).run()
            for i in range(4)
        ]

        async def main():
            service = DiagnosisService(max_concurrent=4, slice_events=50)
            futures = [
                service.submit(_request(run_id=f"r{i}")) for i in range(4)
            ]
            return await asyncio.gather(*futures)

        served = run_service(main())
        for a, b in zip(served, serial):
            assert comparable(a) == comparable(b)

    def test_sessions_interleave(self):
        """With a small slice budget, no session finishes before every
        session has started — the loop is genuinely multiplexing."""
        order = []

        def progress(event):
            order.append((event["event"], event.get("run_id")))

        async def main():
            service = DiagnosisService(
                max_concurrent=4, slice_events=30, progress=progress
            )
            futures = [
                service.submit(_request(run_id=f"i{i}")) for i in range(3)
            ]
            await asyncio.gather(*futures)

        run_service(main())
        started = [i for i, (kind, _) in enumerate(order)
                   if kind == "session-started"]
        finished = [i for i, (kind, _) in enumerate(order)
                    if kind == "session-finished"]
        assert max(started) < min(finished)

    def test_queue_limit_backpressure(self):
        async def main():
            service = DiagnosisService(max_concurrent=1, queue_limit=2,
                                       slice_events=50)
            futures = [service.submit(_request()) for _ in range(3)]
            # 1 running + 2 queued = at the limit; the next is rejected.
            with pytest.raises(ServerBusy):
                service.submit(_request())
            assert service.counters["sessions_rejected"] == 1
            await asyncio.gather(*futures)

        run_service(main())

    def test_tenant_concurrency_cap_and_fairness(self):
        """A tenant at its cap is skipped, not waited on: the other
        tenant's sessions all run while capped's queue drains slowly."""
        async def main():
            service = DiagnosisService(
                max_concurrent=4, slice_events=50,
                tenants={"capped": TenantPolicy(max_concurrent=1)},
            )
            futures = [
                service.submit(_request(run_id=f"c{i}", tenant="capped"))
                for i in range(3)
            ] + [
                service.submit(_request(run_id=f"f{i}", tenant="free"))
                for i in range(3)
            ]
            running_caps = []

            async def watch():
                while service._running_total:
                    running_caps.append(service._running.get("capped", 0))
                    await asyncio.sleep(0)

            watcher = asyncio.get_running_loop().create_task(watch())
            records = await asyncio.gather(*futures)
            await watcher
            return records, running_caps

        records, running_caps = run_service(main())
        assert len(records) == 6
        assert all(r.status == "complete" for r in records)
        assert max(running_caps) <= 1  # the cap held throughout

    def test_save_through_pool(self, tmp_path):
        async def main():
            service = DiagnosisService(StorePool(), slice_events=50)
            record = await service.run(_request(
                run_id="saved", store=str(tmp_path / "runs")
            ))
            assert service.pool.stats()["stores_open"] == 1
            service.pool.close()
            return record

        record = run_service(main())
        loaded = ExperimentStore(tmp_path / "runs").load("saved")
        assert loaded.to_dict() == record.to_dict()

    def test_catalog_app_by_name(self):
        async def main():
            service = DiagnosisService(slice_events=500)
            return await service.run(SessionRequest(
                app="tester", iterations=20,
            ))

        record = run_service(main())
        assert record.app_name == "tester"
        assert record.status == "complete"

    def test_unknown_app_fails_session(self):
        async def main():
            service = DiagnosisService()
            with pytest.raises(ValueError, match="unknown application"):
                await service.run(SessionRequest(app="nosuch"))

        run_service(main())

    def test_history_harvested_through_pool(self, tmp_path):
        from repro import diagnose

        diagnose(make_pingpong(iterations=60), store=tmp_path / "runs",
                 run_id="seed", pool=None, min_interval=5.0,
                 check_period=0.5, insertion_latency=0.2, cost_limit=50.0)

        async def main():
            service = DiagnosisService(slice_events=50)
            first = await service.run(_request(
                run_id="d1", history=str(tmp_path / "runs")
            ))
            second = await service.run(_request(
                run_id="d2", history=str(tmp_path / "runs")
            ))
            assert service.pool.stats()["harvest_hits"] == 1
            return first, second

        first, second = run_service(main())
        assert first.status == second.status == "complete"

    def test_missing_history_path_fails_and_creates_nothing(self, tmp_path):
        """A typo in a served history path fails the session the way
        ``repro.diagnose`` fails it, instead of creating an empty store
        there and running undirected."""
        events = []

        async def main():
            service = DiagnosisService(slice_events=500, progress=events.append)
            with pytest.raises(StoreError, match="history path .* does not exist"):
                await service.run(SessionRequest(
                    app="tester", iterations=20,
                    history=str(tmp_path / "typo" / "runs"),
                ))
            return service.server_metrics()

        metrics = run_service(main())
        assert metrics["sessions_failed"] == 1
        assert metrics["sessions_completed"] == 0
        failed = [e for e in events if e["event"] == "session-failed"]
        assert len(failed) == 1 and "StoreError" in failed[0]["error"]
        assert not (tmp_path / "typo").exists()

    def test_directive_file_as_history(self, tmp_path):
        """The shared resolver also serves a directive file as history."""
        from repro import diagnose, harvest

        diagnose(make_pingpong(iterations=60), store=tmp_path / "runs",
                 run_id="seed", pool=None, min_interval=5.0,
                 check_period=0.5, insertion_latency=0.2, cost_limit=50.0)
        directives = ExperimentStore(tmp_path / "runs") \
            .harvest_evidence().finalize()
        assert harvest(tmp_path / "runs", pool=None).to_text() \
            == directives.to_text()
        path = tmp_path / "seed.directives"
        path.write_text(directives.to_text())

        async def main():
            service = DiagnosisService(slice_events=50)
            from_file = await service.run(_request(
                run_id="f", history=str(path)))
            from_set = await service.run(_request(
                run_id="f", history=directives))
            return from_file, from_set

        from_file, from_set = run_service(main())
        assert from_file.status == "complete"
        assert comparable(from_file) == comparable(from_set)

    def test_server_metrics_shape(self):
        from repro.obs import lint_prometheus_names, metrics_to_prometheus

        async def main():
            service = DiagnosisService(slice_events=50)
            await service.run(_request())
            return service.server_metrics()

        metrics = run_service(main())
        assert metrics["sessions_completed"] == 1
        assert metrics["active_sessions"] == 0
        assert lint_prometheus_names(metrics, prefix="repro_server") == []
        text = metrics_to_prometheus(metrics, prefix="repro_server")
        assert "repro_server_sessions_completed 1" in text
        assert "repro_server_pool_harvest_reuses 0" in text

    def test_stop_rejects_queue(self):
        async def main():
            service = DiagnosisService(max_concurrent=1, slice_events=50)
            running = service.submit(_request())
            queued = service.submit(_request())
            await service.stop()
            record = await running
            assert record.status == "complete"
            with pytest.raises(ServerBusy):
                await queued
            with pytest.raises(ServerBusy):
                service.submit(_request())

        run_service(main())

    def test_executor_path(self):
        from repro.campaign import default_executor

        async def main():
            service = DiagnosisService(
                slice_events=50, executor=default_executor(1)
            )
            return await service.run(SessionRequest(
                app="tester", iterations=20, run_id="worker-run"
            ))

        record = run_service(main())
        oneshot = DiagnosisSession(
            app=build_tester(TesterConfig(iterations=20)),
            run_id="worker-run",
        ).run()
        assert comparable(record) == comparable(oneshot)
