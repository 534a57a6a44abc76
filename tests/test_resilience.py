"""The resilience layer: retry policy, circuit breaker, the policy value
that configures them, and the store's guarded call — its one retry
layer, including the transient EIO -> retry -> StoreUnavailable
escalation it was built for."""

import dataclasses
import errno

import pytest

from repro.faults import IOFault, IOFaultPlan
from repro.faults import io as io_faults

from repro.resilience import (
    CircuitBreaker,
    CircuitOpen,
    ResiliencePolicy,
    RetryExhausted,
    RetryPolicy,
    is_transient,
)
from repro.storage import (
    ExperimentStore,
    FileBackend,
    RunRecord,
    StoreError,
    StoreUnavailable,
)


def _record(run_id: str) -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="resil",
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0,
        search_done_time=None,
        pairs_tested=0,
        total_requests=0,
        peak_cost=0.0,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _fast(**kwargs) -> RetryPolicy:
    clock = FakeClock()
    kwargs.setdefault("sleep", clock.sleep)
    kwargs.setdefault("clock", clock)
    return RetryPolicy(**kwargs)


class TestClassify:
    def test_errno_families(self):
        assert is_transient(OSError(errno.EIO, "io"))
        assert is_transient(OSError(errno.EAGAIN, "again"))
        assert not is_transient(OSError(errno.ENOSPC, "full"))
        assert not is_transient(OSError(errno.ENOENT, "gone"))

    def test_domain_errors_are_final(self):
        assert not is_transient(StoreError("no such run"))
        assert not is_transient(ValueError("nope"))


class TestRetryPolicy:
    def test_first_try_success_no_sleep(self):
        sleeps = []
        policy = _fast(sleep=sleeps.append)
        assert policy.call(lambda: "ok") == "ok"
        assert sleeps == []

    def test_transient_failures_retried_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "injected")
            return "recovered"

        assert _fast(attempts=4).call(flaky) == "recovered"
        assert calls["n"] == 3

    def test_non_transient_raises_immediately(self):
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise StoreError("already stored")

        with pytest.raises(StoreError):
            _fast(attempts=4).call(fatal)
        assert calls["n"] == 1

    def test_exhaustion_raises_typed_error_with_provenance(self):
        def always():
            raise OSError(errno.EIO, "injected")

        policy = _fast(attempts=3)
        with pytest.raises(RetryExhausted) as exc_info:
            policy.call(always, describe="file put")
        assert exc_info.value.attempts == 3
        assert isinstance(exc_info.value.last, OSError)
        assert "file put" in str(exc_info.value)

    def test_deadline_cuts_retries_short(self):
        clock = FakeClock()
        policy = RetryPolicy(attempts=100, base_delay=0.5, multiplier=1.0,
                             jitter=0.0, deadline_s=1.0,
                             sleep=clock.sleep, clock=clock)
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise OSError(errno.EIO, "injected")

        with pytest.raises(RetryExhausted):
            policy.call(always)
        # 0.5s per backoff into a 1.0s budget: attempt, 2 sleeps, done
        assert calls["n"] == 3

    def test_backoff_is_seeded_and_bounded(self):
        a = RetryPolicy(seed=9)
        b = RetryPolicy(seed=9)
        delays_a = [a.delay_for(n) for n in range(1, 6)]
        delays_b = [b.delay_for(n) for n in range(1, 6)]
        assert delays_a == delays_b
        for n, delay in enumerate(delays_a, start=1):
            raw = min(a.base_delay * a.multiplier ** (n - 1), a.max_delay)
            assert raw * (1 - a.jitter) <= delay <= raw

    def test_on_retry_observer(self):
        seen = []
        policy = _fast(attempts=3,
                       on_retry=lambda n, d, e: seen.append((n, type(e))))

        def always():
            raise OSError(errno.EIO, "injected")

        with pytest.raises(RetryExhausted):
            policy.call(always)
        assert seen == [(1, OSError), (2, OSError)]


class TestCircuitBreaker:
    def _breaker(self, **kwargs) -> CircuitBreaker:
        self.clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout_s", 10.0)
        return CircuitBreaker("test", clock=self.clock, **kwargs)

    def test_opens_after_threshold(self):
        breaker = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        self.clock.now += 10.0
        assert breaker.state == "half-open"
        breaker.allow()  # the probe slot
        with pytest.raises(CircuitOpen):
            breaker.allow()  # second concurrent probe rejected
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        self.clock.now += 10.0
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        metrics = breaker.metrics()
        assert metrics["breaker_opened_total"] == 2.0
        assert metrics["breaker_probe_failures"] == 1.0

    def test_metrics_shape(self):
        breaker = self._breaker()
        metrics = breaker.metrics()
        assert set(metrics) == {
            "breaker_state", "breaker_opened_total", "breaker_rejected_total",
            "breaker_probe_successes", "breaker_probe_failures",
            "breaker_consecutive_failures",
        }
        assert all(isinstance(v, float) for v in metrics.values())


class TestResiliencePolicy:
    """A tunable that would break retry is rejected where the policy is
    written — not at the first transient error, where a negative delay
    became a ValueError the breaker counted as a success, and a negative
    deadline silently turned retry off."""

    @pytest.mark.parametrize("bad", [
        {"attempts": 0},
        {"base_delay": -1},
        {"max_delay": -0.5},
        {"multiplier": -2.0},
        {"deadline_s": -5},
        {"jitter": -0.1},
        {"jitter": 1.5},
        {"breaker_threshold": 0},
    ], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
    def test_rejected_when_built(self, bad):
        with pytest.raises(ValueError):
            ResiliencePolicy(**bad)

    def test_edge_values_accepted(self):
        ResiliencePolicy(base_delay=0.0, jitter=0.0, deadline_s=None)
        ResiliencePolicy(attempts=1, jitter=1.0, deadline_s=0.0,
                         breaker_threshold=1)


class TestTransientEscalation:
    """A transient EIO reaches the store's one retry layer raw: the
    store's guarded call retries the whole operation, counts every retry,
    trips the breaker, and types exhaustion as StoreUnavailable; with
    resilience off the raw OSError surfaces.

    Every attempt of a save writes the claim file first, so an armed
    ``write`` strike fails each attempt at its first write: the injector
    counts one write call per attempt."""

    POLICY = ResiliencePolicy(attempts=3, breaker_threshold=2,
                              base_delay=1e-4, max_delay=1e-3,
                              deadline_s=60.0, sleep=lambda s: None)

    @staticmethod
    def _eio(times: int = 10**6) -> IOFaultPlan:
        return IOFaultPlan(faults=(
            IOFault(op="write", at=0, kind="eio", times=times),))

    def test_eio_retried_then_typed(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", resilience=self.POLICY)
        with io_faults.injected(self._eio()) as injector:
            for op in (1, 2):
                with pytest.raises(StoreUnavailable) as exc_info:
                    store.save(_record(f"r{op}"))
                # attempts, not one strike or 4
                assert injector.counters["write"] == 3 * op
                assert isinstance(exc_info.value.__cause__, OSError)
        metrics = store.resilience_metrics()
        assert metrics["retries_total"] == 4.0
        assert metrics["unavailable_total"] == 2.0
        assert metrics["breaker_state"] == 1.0
        assert ExperimentStore(tmp_path / "runs").list() == []

    def test_open_breaker_rejects_without_io(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", resilience=self.POLICY)
        with io_faults.injected(self._eio()) as injector:
            for _ in range(2):
                with pytest.raises(StoreUnavailable):
                    store.save(_record("r0"))
            before = dict(injector.counters)
            with pytest.raises(StoreUnavailable, match="circuit breaker"):
                store.save(_record("r0"))
            assert injector.counters == before
        assert store.resilience_metrics()["unavailable_total"] == 3.0

    def test_resilience_off_surfaces_the_raw_error(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", resilience=False)
        with io_faults.injected(self._eio()) as injector:
            with pytest.raises(OSError, match="injected EIO") as exc_info:
                store.save(_record("r0"))
        assert exc_info.value.errno == errno.EIO
        assert injector.counters["write"] == 1

    def test_eio_that_clears_recovers(self, tmp_path):
        store = ExperimentStore(
            tmp_path / "runs",
            resilience=ResiliencePolicy(attempts=4, base_delay=1e-4,
                                        max_delay=1e-3, deadline_s=60.0,
                                        sleep=lambda s: None))
        with io_faults.injected(self._eio(times=2)) as injector:
            store.save(_record("r0"))
        assert len(injector.injected) == 2
        assert store.load("r0").run_id == "r0"
        assert store.resilience_metrics()["retries_total"] == 2.0

    # -- the same contract on a read: a payload read, and the scrub ------
    def _armed(self, tmp_path, op, policy=None):
        """A store opened under *policy* (default ``POLICY``) and the
        operation whose first ``op`` call meets the strike: a save of
        ``r1`` for ``write``, a cold load of the stored ``r0`` (its
        payload read) for ``read``.  Either returns the run id."""
        root = tmp_path / "runs"
        if op == "read":
            ExperimentStore(root, resilience=False).save(_record("r0"))
        store = ExperimentStore(root, resilience=policy or self.POLICY)
        if op == "write":
            return store, lambda: store.save(_record("r1"))
        return store, lambda: store.load("r0").run_id

    @staticmethod
    def _strike(op: str, times: int = 10**6) -> IOFaultPlan:
        return IOFaultPlan(faults=(
            IOFault(op=op, at=0, kind="eio", times=times),))

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_strike_that_clears_is_retried_to_success(self, tmp_path, op):
        store, call = self._armed(tmp_path, op)
        with io_faults.injected(self._strike(op, times=2)) as injector:
            run_id = call()
        assert len(injector.injected) == 2
        assert run_id == {"write": "r1", "read": "r0"}[op]
        metrics = store.resilience_metrics()
        assert metrics["retries_total"] == 2.0
        assert metrics["unavailable_total"] == 0.0

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_exhaustion_is_store_unavailable(self, tmp_path, op):
        store, call = self._armed(tmp_path, op)
        with io_faults.injected(self._strike(op)) as injector:
            with pytest.raises(StoreUnavailable) as exc_info:
                call()
        assert injector.counters[op] == 3
        assert isinstance(exc_info.value.__cause__, OSError)
        assert store.resilience_metrics()["unavailable_total"] == 1.0

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_open_breaker_fails_fast(self, tmp_path, op):
        # threshold 1: a load's record_token succeeds between two failed
        # payload reads and would reset a longer streak
        policy = dataclasses.replace(self.POLICY, breaker_threshold=1)
        store, call = self._armed(tmp_path, op, policy)
        with io_faults.injected(self._strike(op)) as injector:
            with pytest.raises(StoreUnavailable):
                call()
            before = dict(injector.counters)
            with pytest.raises(StoreUnavailable, match="circuit breaker"):
                call()
            assert injector.counters == before
        assert store.resilience_metrics()["breaker_state"] == 1.0

    def test_domain_error_passes_on_the_first_strike(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", resilience=self.POLICY)
        with pytest.raises(StoreError, match="no stored run"):
            store.load("ghost")
        metrics = store.resilience_metrics()
        assert metrics["retries_total"] == 0.0
        # the store answered: no breaker damage
        assert metrics["breaker_consecutive_failures"] == 0.0

    @staticmethod
    def _scrubbed(root, resilience):
        """A store over *root* whose index and record cache are warm, so
        the scrub's first read is the payload's, from disk."""
        store = ExperimentStore(root, resilience=resilience)
        store.summaries()
        store.load("r0")
        return store

    def test_scrub_retries_a_transient_payload_read(self, tmp_path):
        root = tmp_path / "runs"
        ExperimentStore(root, resilience=False).save(_record("r0"))
        plan = IOFaultPlan(faults=(IOFault(
            op="read", at=0, kind="eio", times=1, path_part="r0"),))
        armed = self._scrubbed(root, self.POLICY)
        with io_faults.injected(plan) as injector:
            report = armed.verify()
        assert len(injector.injected) == 1
        assert report.clean and report.ok == 1
        assert armed.resilience_metrics()["retries_total"] == 1.0
        raw = self._scrubbed(root, False)
        with io_faults.injected(plan):
            with pytest.raises(OSError, match="injected EIO"):
                raw.verify()

    def test_scrub_of_an_unreachable_store_raises(self, tmp_path):
        """Exhausted retries say nothing about the run: the scrub raises
        StoreUnavailable instead of reporting the payload missing."""
        root = tmp_path / "runs"
        ExperimentStore(root, resilience=False).save(_record("r0"))
        armed = self._scrubbed(root, self.POLICY)
        with io_faults.injected(IOFaultPlan(faults=(IOFault(
                op="read", at=0, kind="eio", times=10**6, path_part="r0"),))):
            with pytest.raises(StoreUnavailable):
                armed.verify()


class TestStoreIntegration:
    def test_store_wraps_by_default_and_exposes_metrics(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(_record("r0"))
        metrics = store.resilience_metrics()
        assert metrics["ops_total"] >= 1.0
        assert metrics["breaker_state"] == 0.0

    def test_resilience_false_gives_raw_backend(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", resilience=False)
        assert store.resilience_metrics() == {}

    def test_backend_property_stays_inner(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        assert type(store.backend) is FileBackend
        assert store.backend.name == "file"
