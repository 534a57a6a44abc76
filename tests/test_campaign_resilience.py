"""Campaign robustness: backoff, timeouts, salvage, resume from the
campaign store, and resume-after-SIGKILL."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.apps.poisson import PoissonConfig, build_poisson
from repro.apps.synthetic import make_pingpong
from repro.campaign import (
    Campaign,
    CampaignError,
    PoolExecutor,
    RunSpec,
    RunTimeout,
    SerialExecutor,
)
from repro.campaign.executors import _timed_call
from repro.core import SearchConfig
from repro.faults import FaultPlan
from repro.storage import ExperimentStore

FAST = SearchConfig(min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0)

# A plan that kills one Poisson process mid-run: its peers wedge on their
# recvs, the watchdog fires, and an undirected session raises SimTimeout.
CRASH_PLAN = FaultPlan(seed=3, crash_at={"Poisson:2": 12.0}, max_virtual_time=60.0)


def _spec(**kwargs):
    kwargs.setdefault("config", FAST)
    return RunSpec(make_pingpong, builder_kwargs={"iterations": 60}, **kwargs)


def _poisson_spec(faults=None):
    return RunSpec(
        build_poisson, ("C", PoissonConfig(iterations=40)),
        config=FAST, faults=faults,
    )


def _always_fails(iterations=0):
    raise RuntimeError("boom")


def _slow_builder(iterations=60):
    time.sleep(5.0)
    return make_pingpong(iterations=iterations)


class TestBackoff:
    def test_exponential_backoff_between_retry_rounds(self):
        events = []
        start = time.perf_counter()
        result = Campaign(
            specs=[RunSpec(_always_fails)], name="b",
            retries=2, backoff=0.05, backoff_factor=2.0,
        ).run(progress=events.append)
        elapsed = time.perf_counter() - start
        assert result.failures == {"b-runs-000": "boom"}
        retries = [e for e in events if e["event"] == "run-retried"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert [e["backoff"] for e in retries] == [0.05, 0.1]
        assert elapsed >= 0.15  # both sleeps actually happened

    def test_zero_retries_never_retries(self):
        events = []
        result = Campaign(
            specs=[RunSpec(_always_fails)], name="b", retries=0,
        ).run(progress=events.append)
        assert result.stage("runs").retried == []
        assert "run-retried" not in [e["event"] for e in events]
        assert result.failures

    def test_invalid_retry_config_rejected(self):
        with pytest.raises(CampaignError):
            Campaign(specs=[_spec()], retries=-1)
        with pytest.raises(CampaignError):
            Campaign(specs=[_spec()], backoff=-0.1)
        with pytest.raises(CampaignError):
            Campaign(specs=[_spec()], backoff_factor=0.5)


class TestRunTimeout:
    def test_timed_call_passes_results_and_errors_through(self):
        assert _timed_call(lambda x: x + 1, 1, timeout=5.0) == 2
        with pytest.raises(ValueError):
            _timed_call(lambda x: (_ for _ in ()).throw(ValueError("v")), 0, 5.0)

    def test_serial_run_timeout(self):
        result = Campaign(
            specs=[RunSpec(_slow_builder)], name="t", retries=0,
        ).run(SerialExecutor(), run_timeout=0.2)
        [(run_id, error)] = result.failures.items()
        assert "wall clock" in error

    def test_pool_run_timeout(self):
        result = Campaign(
            specs=[RunSpec(_slow_builder), _spec()], name="t", retries=0,
        ).run(PoolExecutor(2), run_timeout=2.0)
        assert "wall clock" in result.failures["t-runs-000"]
        assert len(result.records) == 1  # the healthy run still landed

    def test_timeout_is_not_salvaged(self):
        """RunTimeout is an infrastructure failure, not a simulator fault —
        no degraded re-execution should be attempted."""
        events = []
        Campaign(specs=[RunSpec(_slow_builder)], name="t", retries=0).run(
            run_timeout=0.2, progress=events.append,
        )
        assert "run-salvaged" not in [e["event"] for e in events]


class TestSalvage:
    def test_simulator_failure_salvaged_as_degraded(self):
        events = []
        result = Campaign(
            specs=[_poisson_spec(faults=CRASH_PLAN), _poisson_spec()],
            name="s", retries=0,
        ).run(progress=events.append)
        assert not result.failures
        assert result.stage("runs").degraded == ["s-runs-000"]
        assert "run-salvaged" in [e["event"] for e in events]
        salvaged = result.stage("runs").records[0]
        assert salvaged.status == "degraded"
        assert "SimTimeout" in salvaged.failure
        healthy = result.stage("runs").records[1]
        assert healthy.status == "complete"

    def test_builder_failure_not_salvaged(self):
        events = []
        result = Campaign(specs=[RunSpec(_always_fails)], name="s", retries=0).run(
            progress=events.append,
        )
        assert result.failures == {"s-runs-000": "boom"}
        assert "run-salvaged" not in [e["event"] for e in events]


class TestResumeFromStore:
    """The store is the campaign's one durable record of finished runs:
    resume restores what its index holds and executes everything else."""

    @staticmethod
    def _spied_store(root, monkeypatch):
        """A store whose saves log their ``overwrite`` flag."""
        store = ExperimentStore(root)
        real_save = store.save
        store.overwrites = []

        def save(record, overwrite=False):
            store.overwrites.append(overwrite)
            return real_save(record, overwrite=overwrite)

        monkeypatch.setattr(store, "save", save)
        return store

    def test_resume_requires_store(self):
        with pytest.raises(CampaignError, match="needs a store"):
            Campaign(specs=[_spec()], name="j").run(resume=True)

    def test_resume_skips_stored_runs(self, tmp_path):
        campaign = Campaign(specs=[_spec(), _spec()], name="j")
        first = campaign.run(store=tmp_path / "runs")
        events = []
        second = campaign.run(
            store=tmp_path / "runs", resume=True, progress=events.append,
        )
        kinds = [e["event"] for e in events]
        assert kinds.count("run-skipped") == 2
        assert "run-finished" not in kinds
        assert {e["status"] for e in events
                if e["event"] == "run-skipped"} == {"complete"}
        assert second.stage("runs").resumed == ["j-runs-000", "j-runs-001"]
        # restored records equal the originals
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]

    def test_resumed_degraded_record_counts_as_degraded(self, tmp_path):
        campaign = Campaign(
            specs=[_poisson_spec(faults=CRASH_PLAN)], name="j", retries=0,
        )
        assert campaign.run(store=tmp_path / "runs").degraded == ["j-runs-000"]
        events = []
        result = campaign.run(
            store=tmp_path / "runs", resume=True, progress=events.append,
        )
        assert [(e["event"], e.get("status")) for e in events
                if e["event"].startswith("run-")] == [("run-skipped", "degraded")]
        assert result.stage("runs").resumed == ["j-runs-000"]
        assert result.degraded == ["j-runs-000"]

    def test_resume_reruns_failures(self, tmp_path):
        flag = tmp_path / "fixed.flag"

        Campaign(
            specs=[RunSpec(_fail_until_flag, (str(flag),))], name="j", retries=0,
        ).run(store=tmp_path / "runs")
        assert ExperimentStore(tmp_path / "runs").list() == []

        flag.write_text("")  # the transient condition clears
        result = Campaign(
            specs=[RunSpec(_fail_until_flag, (str(flag),))], name="j", retries=0,
        ).run(store=tmp_path / "runs", resume=True)
        assert not result.failures
        assert result.stage("runs").resumed == []
        assert ExperimentStore(tmp_path / "runs").list() == ["j-runs-000"]

    def test_other_campaign_on_the_same_store_runs_everything(self, tmp_path):
        Campaign(specs=[_spec(), _spec()], name="j").run(store=tmp_path / "runs")
        events = []
        result = Campaign(specs=[_spec(), _spec()], name="k").run(
            store=tmp_path / "runs", resume=True, progress=events.append,
        )
        kinds = [e["event"] for e in events]
        assert kinds.count("run-finished") == 2
        assert "run-skipped" not in kinds
        assert ExperimentStore(tmp_path / "runs").list() == [
            "j-runs-000", "j-runs-001", "k-runs-000", "k-runs-001",
        ]

    def test_unindexed_orphan_payload_is_rerun(self, tmp_path, monkeypatch):
        """A kill between a save's record rename and its segment seal
        leaves a payload file no index entry names.  ``list()``, ``in``,
        harvest and ``save`` all say the run is absent, so resume
        re-executes it and a plain save reclaims the file."""
        specs = [_spec(), _spec()]
        Campaign(specs=specs, name="o").run(store=tmp_path / "donor")
        store = ExperimentStore(tmp_path / "runs")
        store.save(ExperimentStore(tmp_path / "donor").load("o-runs-000"))
        (tmp_path / "runs" / "o-runs-001.json").write_bytes(
            (tmp_path / "donor" / "o-runs-001.json").read_bytes())
        assert store.list() == ["o-runs-000"] and "o-runs-001" not in store

        store = self._spied_store(tmp_path / "runs", monkeypatch)
        events = []
        result = Campaign(specs=specs, name="o").run(
            store=store, resume=True, progress=events.append,
        )
        assert [(e["event"], e["run_id"]) for e in events
                if e["event"].startswith("run-")] == [
            ("run-skipped", "o-runs-000"), ("run-finished", "o-runs-001"),
        ]
        assert result.stage("runs").resumed == ["o-runs-000"]
        assert store.overwrites == [False]
        reopened = ExperimentStore(tmp_path / "runs", cache_size=0)
        assert reopened.list() == ["o-runs-000", "o-runs-001"]
        report = reopened.verify()
        assert report.clean and report.ok == 2 and report.orphans == []


def _fail_until_flag(flag_path, iterations=60):
    if not os.path.exists(flag_path):
        raise RuntimeError("still broken")
    return make_pingpong(iterations=iterations)


class TestStoreDegrade:
    """on_store_failure="degrade": a sick archive costs durability, not
    the compute already spent on the runs."""

    @staticmethod
    def _broken_store(tmp_path, monkeypatch, fail_ids):
        from repro.storage import StoreError

        store = ExperimentStore(tmp_path / "runs")
        real_save = store.save

        def save(record, **kwargs):
            if record.run_id in fail_ids:
                raise StoreError("archive on fire")
            return real_save(record, **kwargs)

        monkeypatch.setattr(store, "save", save)
        return store

    def test_default_raise_aborts_campaign(self, tmp_path, monkeypatch):
        store = self._broken_store(tmp_path, monkeypatch, {"d-runs-000"})
        with pytest.raises(Exception, match="archive on fire"):
            Campaign(specs=[_spec()], name="d").run(store=store)

    def test_degrade_keeps_record_and_continues(self, tmp_path, monkeypatch):
        store = self._broken_store(tmp_path, monkeypatch, {"d-runs-000"})
        events = []
        result = Campaign(specs=[_spec(), _spec()], name="d").run(
            store=store, on_store_failure="degrade", progress=events.append,
        )
        assert not result.failures
        assert len(result.records) == 2  # both runs survive in memory
        assert result.stage("runs").store_failures == {
            "d-runs-000": "archive on fire",
        }
        assert result.store_failures == {"d-runs-000": "archive on fire"}
        degraded = [e for e in events if e["event"] == "store-degraded"]
        assert [e["run_id"] for e in degraded] == ["d-runs-000"]
        assert "archive on fire" in degraded[0]["error"]
        # the healthy run still landed on disk
        assert ExperimentStore(tmp_path / "runs").list() == ["d-runs-001"]
        assert "1 unsaved" in result.summary()

    def test_resume_reruns_the_run_the_store_never_got(self, tmp_path, monkeypatch):
        store = self._broken_store(tmp_path, monkeypatch, {"d-runs-000"})
        campaign = Campaign(specs=[_spec(), _spec()], name="d")
        campaign.run(store=store, on_store_failure="degrade")
        events = []
        result = campaign.run(
            store=tmp_path / "runs", resume=True, progress=events.append,
        )
        assert [(e["event"], e["run_id"]) for e in events
                if e["event"].startswith("run-")] == [
            ("run-skipped", "d-runs-001"), ("run-finished", "d-runs-000"),
        ]
        assert not result.store_failures
        assert sorted(ExperimentStore(tmp_path / "runs").list()) == [
            "d-runs-000", "d-runs-001",
        ]

    def test_invalid_mode_rejected(self):
        with pytest.raises(CampaignError, match="on_store_failure"):
            Campaign(specs=[_spec()], name="d").run(on_store_failure="ignore")


# ---------------------------------------------------------------------------
# resume after SIGKILL
# ---------------------------------------------------------------------------
N_KILL_RUNS = 8


def _kill_specs():
    return [
        RunSpec(
            make_pingpong, builder_kwargs={"iterations": 60},
            config=FAST, pre_delay=0.15,
        )
        for _ in range(N_KILL_RUNS)
    ]


def _killable_campaign(root):
    Campaign(specs=_kill_specs(), name="kill", retries=0).run(
        store=os.path.join(root, "store"),
    )


def _stored(root):
    """Run ids the store's index holds (none before the store exists)."""
    if not os.path.exists(os.path.join(root, "segments", "_state.json")):
        return []
    return ExperimentStore(root, cache_size=0).list()


class TestResumeAfterKill:
    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        root = tmp_path / "store"
        ctx = multiprocessing.get_context()
        child = ctx.Process(target=_killable_campaign, args=(str(tmp_path),))
        child.start()
        # wait until some (but not all) runs are stored, then kill -9
        deadline = time.monotonic() + 60.0
        while len(_stored(root)) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        held = _stored(root)
        assert len(held) >= 2, "store should hold the completed runs"
        assert len(held) < N_KILL_RUNS, "kill landed after completion"

        events = []
        result = Campaign(specs=_kill_specs(), name="kill", retries=0).run(
            resume=True, store=root, progress=events.append,
        )
        # only the runs the index did not hold were re-executed
        kinds = [e["event"] for e in events]
        assert sorted(e["run_id"] for e in events
                      if e["event"] == "run-skipped") == sorted(held)
        assert kinds.count("run-finished") == N_KILL_RUNS - len(held)
        assert not result.failures
        assert len(result.records) == N_KILL_RUNS
        # every record is in the store exactly once, and verifies
        store = ExperimentStore(root, cache_size=0)
        assert sorted(store.list()) == [
            f"kill-runs-{i:03d}" for i in range(N_KILL_RUNS)
        ]
        assert store.verify().ok == N_KILL_RUNS


# ---------------------------------------------------------------------------
# the acceptance scenario: faults + retries + salvage, end to end
# ---------------------------------------------------------------------------
class TestFaultyCampaignEndToEnd:
    def test_eight_runs_two_crashing(self, tmp_path):
        specs = [
            _poisson_spec(faults=CRASH_PLAN if i in (2, 5) else None)
            for i in range(8)
        ]
        events = []
        result = Campaign(
            specs=specs, name="e2e", retries=1, backoff=0.01,
        ).run(workers=4, store=tmp_path / "runs", progress=events.append)

        # the campaign completed: crashing runs degraded, none fatal
        assert not result.failures
        assert len(result.records) == 8
        assert sorted(result.stage("runs").degraded) == ["e2e-runs-002", "e2e-runs-005"]
        for run_id in ("e2e-runs-002", "e2e-runs-005"):
            record = next(r for r in result.records if r.run_id == run_id)
            assert record.status == "degraded"
            assert record.failure
        # the crashing runs were retried (with backoff) before salvage
        retried = result.stage("runs").retried
        assert sorted(set(retried)) == ["e2e-runs-002", "e2e-runs-005"]
        assert [e["event"] for e in events].count("run-salvaged") == 2
        healthy = [r for r in result.records if not r.degraded]
        assert len(healthy) == 6
        assert all(r.coverage == 1.0 for r in healthy)
