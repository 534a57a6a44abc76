"""Tests for the concurrent session scheduler (DiagnosisService)."""

import asyncio
import contextlib
import os

import pytest

from repro.apps.synthetic import make_pingpong
from repro.apps.tester import TesterConfig, build_tester
from repro.campaign import PoolExecutor
from repro.campaign.runner import _execute_payload
from repro.core import SearchConfig
from repro.core.consultant import DiagnosisSession
from repro.faults import IOFault, IOFaultPlan
from repro.faults import io as io_faults
from repro.obs import deterministic_metrics
from repro.resilience import ResiliencePolicy
from repro.server import (
    DiagnosisService,
    ServerBusy,
    SessionRequest,
    StorePool,
    TenantPolicy,
)
from repro.simulator.errors import SimTimeout
from repro.storage import ExperimentStore, StoreError, StoreUnavailable

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

    def test_store_goes_sick_between_harvest_and_save(self, tmp_path):
        """History and store on one path (the paper's loop).  After the
        session has harvested, every write to the archive fails, for
        longer than the store's retries last: that session alone fails,
        the archive is left as it was, and the next request saves."""
        from repro import diagnose

        runs = str(tmp_path / "runs")
        diagnose(make_pingpong(iterations=60), store=runs, run_id="seed",
                 pool=None, min_interval=5.0, check_period=0.5,
                 insertion_latency=0.2, cost_limit=50.0)
        sick = IOFaultPlan(faults=(
            IOFault(op="write", at=0, kind="eio", times=10**6),))
        events = []
        armed = contextlib.ExitStack()
        injectors = []

        def sicken_after_harvest(event):
            # a slice has run, so begin() has harvested the history
            if event["event"] == "session-progress" and not injectors:
                injectors.append(armed.enter_context(io_faults.injected(sick)))

        async def main():
            service = DiagnosisService(slice_events=50, progress=events.append)
            with armed:
                with pytest.raises(StoreUnavailable):
                    await service.run(_request(
                        run_id="sick", history=runs, store=runs,
                        progress=sicken_after_harvest))
            sick_metrics = service.server_metrics()
            archive = service.pool.get(runs)
            assert archive.verify().clean and len(archive) == 1
            healthy = await service.run(_request(
                run_id="healthy", history=runs, store=runs))
            service.pool.close()
            return sick_metrics, healthy, service.server_metrics()

        sick_metrics, healthy, metrics = run_service(main())
        (injector,) = injectors
        assert len(injector.injected) == ResiliencePolicy().attempts
        assert sick_metrics["sessions_failed"] == 1
        assert sick_metrics["sessions_completed"] == 0
        assert sick_metrics["active_sessions"] == 0
        failed = [e for e in events if e["event"] == "session-failed"]
        assert len(failed) == 1 and "StoreUnavailable" in failed[0]["error"]
        assert metrics["sessions_submitted"] == 2
        assert metrics["sessions_submitted"] \
            == metrics["sessions_completed"] + metrics["sessions_failed"]
        assert metrics["active_sessions"] == 0
        assert metrics["pool_harvest_misses"] >= 1
        store = ExperimentStore(runs)
        assert store.verify().clean
        assert sorted(store.list()) == ["healthy", "seed"]
        assert healthy.status == "complete"
        assert comparable(store.load("healthy")) == comparable(healthy)

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


def _die_if_doomed(payload):
    """A campaign job whose worker process dies on the run id "doomed"."""
    if payload["run_id"] == "doomed":
        os._exit(3)
    return _execute_payload(payload)


class DyingPool(PoolExecutor):
    """A real process pool whose child dies on the session "doomed"."""

    def run(self, fn, payloads, timeout=None):
        return super().run(_die_if_doomed, payloads, timeout)


class TestWorkerPool:
    """``executor=`` on a real process pool: each session is one campaign
    job in a child process of its own."""

    @staticmethod
    def serve(executor, *run_ids, events=None, policy=None, **fields):
        """Run tester sessions one after another; a session that fails
        yields its exception in place of its record."""
        async def main():
            service = DiagnosisService(executor=executor, progress=events,
                                       default_policy=policy)
            out = []
            for run_id in run_ids:
                try:
                    out.append(await service.run(SessionRequest(
                        app="tester", iterations=20, run_id=run_id,
                        **fields)))
                except Exception as exc:  # noqa: BLE001 - the case checks it
                    out.append(exc)
            return out, service.server_metrics()

        return run_service(main())

    def test_record_equals_in_loop(self):
        """Directives and the tenant-clamped config resolve on the loop
        and reach the child; its record is the in-loop session's."""
        from repro.core import extract_directives

        history = extract_directives([DiagnosisSession(
            app=build_tester(TesterConfig(iterations=20))).run()])
        fields = dict(history=history, search={"cost_limit": 50.0},
                      policy=TenantPolicy(cost_limit=2.0))
        (pooled,), _ = self.serve(PoolExecutor(2), "directed", **fields)
        (in_loop,), _ = self.serve(None, "directed", **fields)
        (undirected,), _ = self.serve(None, "directed")
        assert pooled.run_id == "directed"
        assert pooled.config["cost_limit"] == 2.0
        assert comparable(pooled) == comparable(in_loop)
        assert comparable(pooled) != comparable(undirected)

    def test_default_run_id_is_tagged_by_the_worker(self):
        from repro.core.consultant import _current_process_tag

        (pooled,), _ = self.serve(PoolExecutor(2), None)
        (in_loop,), _ = self.serve(None, None)
        assert _current_process_tag() in in_loop.run_id
        assert pooled.run_id.startswith("tester-")
        assert _current_process_tag() not in pooled.run_id

    def test_dying_child_fails_only_its_own_session(self):
        events = []
        (doomed, after), metrics = self.serve(
            DyingPool(2), "doomed", "after", events=events.append)
        assert type(doomed).__name__ == "BrokenProcessPool"
        assert after.run_id == "after" and after.status == "complete"
        failed = [e for e in events if e["event"] == "session-failed"]
        assert [e["error"].split(":")[0] for e in failed] == ["BrokenProcessPool"]
        assert metrics["sessions_failed"] == 1
        assert metrics["sessions_completed"] == 1
        assert metrics["sessions_submitted"] == (
            metrics["sessions_completed"] + metrics["sessions_failed"])
