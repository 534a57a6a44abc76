"""The resilience layer: retry policy, circuit breaker, and the guarded
backend wrapper — the store's one retry layer, including the sqlite
busy -> retry -> StoreUnavailable escalation it was built for."""

import errno
import sqlite3

import pytest

from repro.resilience import (
    CircuitBreaker,
    CircuitOpen,
    ResiliencePolicy,
    ResilientBackend,
    RetryExhausted,
    RetryPolicy,
    is_transient,
)
from repro.storage import (
    ExperimentStore,
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
    def test_sqlite_locked_is_transient(self):
        assert is_transient(sqlite3.OperationalError("database is locked"))
        assert is_transient(sqlite3.OperationalError("database table is locked"))
        assert not is_transient(sqlite3.OperationalError("no such table: runs"))

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


class _FlakyBackend:
    """Minimal StorageBackend-shaped stub with scriptable failures."""

    name = "flaky"

    def __init__(self, fail_times: int = 0,
                 exc_factory=lambda: OSError(errno.EIO, "injected")) -> None:
        self.fail_times = fail_times
        self.exc_factory = exc_factory
        self.calls = 0
        self.stored = {}

    def put(self, run_id, payload, meta, *, overwrite=False):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.exc_factory()
        self.stored[run_id] = payload
        return (len(self.stored), None)

    def get(self, run_id):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.exc_factory()
        if run_id not in self.stored:
            raise StoreError(f"no stored run {run_id!r}")
        return self.stored[run_id]


def _wrap(inner, **overrides) -> ResilientBackend:
    clock = FakeClock()
    policy = ResiliencePolicy(
        attempts=overrides.pop("attempts", 3),
        base_delay=1e-4, max_delay=1e-3, deadline_s=60.0,
        sleep=clock.sleep, clock=clock, **overrides,
    )
    return ResilientBackend(inner, policy)


class TestResilientBackend:
    def test_transient_failure_retried_to_success(self):
        inner = _FlakyBackend(fail_times=2)
        wrapped = _wrap(inner)
        wrapped.put("r0", {"x": 1}, {})
        assert inner.stored == {"r0": {"x": 1}}
        metrics = wrapped.metrics()
        assert metrics["retries_total"] == 2.0
        assert metrics["unavailable_total"] == 0.0

    def test_exhaustion_becomes_store_unavailable(self):
        inner = _FlakyBackend(fail_times=99)
        wrapped = _wrap(inner)
        with pytest.raises(StoreUnavailable) as exc_info:
            wrapped.get("r0")
        assert isinstance(exc_info.value.__cause__, OSError)
        assert wrapped.metrics()["unavailable_total"] == 1.0

    def test_domain_error_passes_through_untouched(self):
        inner = _FlakyBackend()
        wrapped = _wrap(inner)
        with pytest.raises(StoreError, match="no stored run"):
            wrapped.get("ghost")
        # the store answered: no breaker damage
        assert wrapped.metrics()["breaker_consecutive_failures"] == 0.0

    def test_breaker_opens_and_fails_fast(self):
        inner = _FlakyBackend(fail_times=10**6)
        wrapped = _wrap(inner, breaker_threshold=2)
        for _ in range(2):
            with pytest.raises(StoreUnavailable):
                wrapped.get("r0")
        calls_before = inner.calls
        with pytest.raises(StoreUnavailable, match="circuit breaker"):
            wrapped.get("r0")
        assert inner.calls == calls_before  # rejected without touching disk
        assert wrapped.metrics()["breaker_state"] == 1.0

    def test_inner_attribute_fallthrough(self):
        inner = _FlakyBackend()
        wrapped = _wrap(inner)
        assert wrapped.inner is inner
        assert wrapped.name == "flaky"
        assert wrapped.exc_factory is inner.exc_factory


class TestSqliteBusyEscalation:
    """sqlite 'database is locked' reaches the store's one retry layer
    raw: ResilientBackend retries the whole operation, counts every
    retry, trips the breaker, and types exhaustion as StoreUnavailable;
    with resilience off the raw OperationalError surfaces."""

    POLICY = ResiliencePolicy(attempts=3, breaker_threshold=2,
                              base_delay=1e-4, max_delay=1e-3,
                              deadline_s=60.0, sleep=lambda s: None)

    def _locked(self, store):
        """Make every sqlite statement of *store* fail as locked;
        returns the statement counter."""
        calls = {"n": 0}

        def locked(sql, params=()):
            calls["n"] += 1
            raise sqlite3.OperationalError("database is locked")

        store.backend._execute = locked
        return calls

    def test_busy_retried_then_typed(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite",
                                resilience=self.POLICY)
        calls = self._locked(store)
        for op in (1, 2):
            with pytest.raises(StoreUnavailable) as exc_info:
                "r0" in store
            assert calls["n"] == 3 * op  # attempts, not one strike or 4
            assert isinstance(exc_info.value.__cause__,
                              sqlite3.OperationalError)
        metrics = store.resilience_metrics()
        assert metrics["retries_total"] == 4.0
        assert metrics["unavailable_total"] == 2.0
        assert metrics["breaker_state"] == 1.0
        store.close()

    def test_open_breaker_rejects_without_touching_sqlite(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite",
                                resilience=self.POLICY)
        calls = self._locked(store)
        for _ in range(2):
            with pytest.raises(StoreUnavailable):
                store.load("r0")
        before = calls["n"]
        with pytest.raises(StoreUnavailable, match="circuit breaker"):
            store.load("r0")
        assert calls["n"] == before
        assert store.resilience_metrics()["unavailable_total"] == 3.0
        store.close()

    def test_resilience_off_surfaces_the_raw_error(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs", backend="sqlite",
                                resilience=False)
        calls = self._locked(store)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            "r0" in store
        assert calls["n"] == 1
        store.close()

    def test_busy_that_clears_recovers(self, tmp_path):
        store = ExperimentStore(
            tmp_path / "runs", backend="sqlite",
            resilience=ResiliencePolicy(attempts=4, base_delay=1e-4,
                                        max_delay=1e-3, deadline_s=60.0,
                                        sleep=lambda s: None))
        store.save(_record("r0"))
        backend = store.backend
        calls = {"n": 0}
        real = backend._execute

        def flaky(sql, params=()):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise sqlite3.OperationalError("database is locked")
            return real(sql, params)

        backend._execute = flaky
        try:
            assert store.load("r0").run_id == "r0"
        finally:
            backend._execute = real
        assert calls["n"] >= 3
        assert store.resilience_metrics()["retries_total"] == 2.0


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
        assert not isinstance(store.backend, ResilientBackend)
        assert store.backend.name == "file"
