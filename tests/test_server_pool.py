"""Tests for the StorePool: hot handles, harvest caching, eviction.

Every facade call takes its stores from a pool, ``pool=None`` included
(a pool of one for the call), so a pool is never compared with itself
here: the oracle is :func:`cold_harvest`, the route ``pool=None`` took
before it became a pool of one, written out.
"""

import pytest

from repro import diagnose, harvest
from repro.apps.synthetic import make_pingpong
from repro.facade import default_pool
from repro.server import StorePool
from repro.storage import ExperimentStore, RunRecord

FAST = dict(min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0)


def _seed(path, run_id="seed-0001"):
    return diagnose(make_pingpong(iterations=40), store=path,
                    run_id=run_id, pool=None, **FAST)


def cold_harvest(path, app=None, **options):
    """Open the store and finalize its evidence, no pool in between."""
    return ExperimentStore(path).harvest_evidence(app).finalize(**options)


class TestStorePool:
    def test_same_path_reuses_store(self, tmp_path):
        _seed(tmp_path / "runs")
        pool = StorePool()
        a = pool.get(tmp_path / "runs")
        b = pool.get(str(tmp_path / "runs"))
        assert a is b
        assert pool.stats()["store_hits"] == 1
        assert pool.stats()["store_misses"] == 1

    def test_passthrough_store_not_owned(self, tmp_path):
        _seed(tmp_path / "runs")
        store = ExperimentStore(tmp_path / "runs")
        pool = StorePool()
        assert pool.get(store) is store
        pool.close()
        # Pass-through stores stay usable after the pool closes.
        assert store.list()

    def test_eviction_closes_lru(self, tmp_path):
        pool = StorePool(max_stores=2)
        stores = []
        for i in range(3):
            _seed(tmp_path / f"runs{i}")
            stores.append(pool.get(tmp_path / f"runs{i}"))
        assert len(pool) == 2
        assert pool.stats()["store_evictions"] == 1
        # The evicted (oldest) store re-opens as a fresh instance.
        again = pool.get(tmp_path / "runs0")
        assert again is not stores[0]

    def test_harvest_cached_until_write(self, tmp_path):
        _seed(tmp_path / "runs")
        pool = StorePool()
        first = pool.harvest(tmp_path / "runs")
        second = pool.harvest(tmp_path / "runs")
        assert second is first
        assert pool.stats()["harvest_hits"] == 1
        # Any write changes the index state token: the next harvest is a
        # miss, and a new true pair means new directives.
        record = RunRecord.from_dict(
            pool.get(tmp_path / "runs").load("seed-0001").to_dict())
        record.run_id = "seed-0002"
        node = next(n for n in record.shg_nodes if n["state"] == "false")
        node["state"] = "true"
        pool.get(tmp_path / "runs").save(record)
        third = pool.harvest(tmp_path / "runs")
        assert third is not first
        assert third.to_text() == cold_harvest(tmp_path / "runs").to_text()
        assert third.to_text() != first.to_text()
        assert pool.stats()["harvest_misses"] == 2
        assert pool.stats()["harvest_reuses"] == 0

    def test_save_with_no_new_evidence_reuses_the_harvest(self, tmp_path):
        # Priorities, prunes and thresholds are unions and maxima: the
        # same run again teaches the history nothing, so the miss after
        # the write hands back the very same directive set.
        _seed(tmp_path / "runs")
        pool = StorePool()
        store = pool.get(tmp_path / "runs")
        first = pool.harvest(tmp_path / "runs")
        record = RunRecord.from_dict(store.load("seed-0001").to_dict())
        record.run_id = "seed-0002"
        store.save(record)
        again = pool.harvest(tmp_path / "runs")
        assert again is first
        assert again.to_text() == cold_harvest(tmp_path / "runs").to_text()
        stats = pool.stats()
        assert stats["harvest_misses"] == 2
        assert stats["harvest_reuses"] == 1
        assert stats["harvest_entries"] == 1
        # re-keyed to the new token: the next ask is a plain hit
        assert pool.harvest(tmp_path / "runs") is first
        assert pool.stats()["harvest_hits"] == 1

    def test_harvest_matches_facade(self, tmp_path):
        _seed(tmp_path / "runs")
        pool = StorePool()
        pooled = pool.harvest(tmp_path / "runs", include_thresholds=True)
        one_shot = harvest(tmp_path / "runs", include_thresholds=True, pool=None)
        cold = cold_harvest(tmp_path / "runs", include_thresholds=True)
        assert pooled.to_text() == one_shot.to_text() == cold.to_text()

    def test_harvest_key_includes_options_and_app(self, tmp_path):
        _seed(tmp_path / "runs")
        pool = StorePool()
        base = pool.harvest(tmp_path / "runs")
        with_thresholds = pool.harvest(tmp_path / "runs", include_thresholds=True)
        other_app = pool.harvest(tmp_path / "runs", app="nosuch")
        assert with_thresholds is not base
        # Different app filter → different cache entry (here: only the
        # history-independent general prunes survive).
        assert other_app is not base
        assert len(other_app) < len(base)

    def test_writes_leave_no_dead_harvest_entries(self, tmp_path):
        # A write-through server harvests after every save.  An index
        # token never recurs, so an entry for an older token can never be
        # asked for again: the newer one must replace it, not join it.
        record = _seed(tmp_path / "runs")
        pool = StorePool()
        store = pool.get(tmp_path / "runs")
        for round_ in range(40):
            record.run_id = f"round-{round_:04d}"
            store.save(record)
            latest = pool.harvest(tmp_path / "runs")
        assert pool.stats()["harvest_entries"] == 1
        assert pool.stats()["harvest_misses"] == 40
        # every save rolled the sidecar over its segment, so each miss
        # was one aggregate read
        info = store.info()
        assert info.aggregated_segments == info.segments
        assert pool.harvest(tmp_path / "runs") is latest  # same token: a hit
        assert pool.stats()["harvest_hits"] == 1
        # two option sets are two askers, each with its own entry
        with_thresholds = pool.harvest(tmp_path / "runs", include_thresholds=True)
        assert pool.stats()["harvest_entries"] == 2
        assert pool.harvest(tmp_path / "runs") is latest
        assert pool.harvest(tmp_path / "runs", include_thresholds=True) is with_thresholds

    def test_closed_pool_rejects(self, tmp_path):
        pool = StorePool()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.get(tmp_path / "runs")

    def test_closed_pool_refuses_to_harvest(self, tmp_path):
        # A pass-through store is not the pool's to close, but a closed
        # pool must neither harvest it nor cache an entry for it.
        _seed(tmp_path / "runs")
        store = ExperimentStore(tmp_path / "runs")
        pool = StorePool()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.harvest(store)
        with pytest.raises(RuntimeError):
            pool.harvest(tmp_path / "runs")
        assert pool.stats()["harvest_entries"] == 0
        assert pool.stats()["harvest_misses"] == 0

    def test_context_manager(self, tmp_path):
        _seed(tmp_path / "runs")
        with StorePool() as pool:
            assert pool.get(tmp_path / "runs").list()


class TestFacadePoolRouting:
    def test_default_pool_reuses_handles(self, tmp_path):
        _seed(tmp_path / "runs")
        pool = default_pool()
        before = pool.stats()
        harvest(tmp_path / "runs")
        harvest(tmp_path / "runs")
        after = pool.stats()
        assert after["harvest_hits"] >= before["harvest_hits"] + 1

    def test_explicit_pool(self, tmp_path):
        _seed(tmp_path / "runs")
        pool = StorePool()
        app = make_pingpong(iterations=40)
        harvest(tmp_path / "runs", app=app, pool=pool)
        record = diagnose(app,
                          history=tmp_path / "runs",
                          store=tmp_path / "runs", run_id="directed",
                          pool=pool, **FAST)
        stats = pool.stats()
        assert stats["harvest_hits"] >= 1       # diagnose reused the harvest
        assert stats["store_hits"] >= 1         # and the open store
        assert record.run_id == "directed"
        pool.close()

    def test_pool_none_preserves_cold_path(self, tmp_path):
        _seed(tmp_path / "runs")
        warm = harvest(tmp_path / "runs")
        before = default_pool().stats()
        one_shot = harvest(tmp_path / "runs", pool=None)
        # The pool of one is the call's own: the shared pool is untouched.
        assert default_pool().stats() == before
        assert one_shot.to_text() == warm.to_text() \
            == cold_harvest(tmp_path / "runs").to_text()

    def test_pool_none_leaves_no_store_open(self, tmp_path, monkeypatch):
        """``history=`` and ``store=`` on one path share the call's one
        store, and it is closed before the call returns."""
        _seed(tmp_path / "runs")
        opened, closed = [], []
        init, close = ExperimentStore.__init__, ExperimentStore.close

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            opened.append(self)

        def tracked_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(ExperimentStore, "__init__", tracked_init)
        monkeypatch.setattr(ExperimentStore, "close", tracked_close)
        before = default_pool().stats()
        record = diagnose(make_pingpong(iterations=40),
                          history=tmp_path / "runs", store=tmp_path / "runs",
                          run_id="directed", pool=None, **FAST)
        assert len(opened) == 1
        assert closed == opened
        assert default_pool().stats() == before
        monkeypatch.undo()
        assert record.run_id in ExperimentStore(tmp_path / "runs").list()

    def test_diagnose_pool_produces_identical_record(self, tmp_path):
        _seed(tmp_path / "runs")
        from repro.obs import deterministic_metrics

        pooled = diagnose(make_pingpong(iterations=40),
                          history=tmp_path / "runs", run_id="x", **FAST)
        cold = diagnose(make_pingpong(iterations=40),
                        history=tmp_path / "runs", run_id="x",
                        pool=None, **FAST)
        a, b = pooled.to_dict(), cold.to_dict()
        a["metrics"] = deterministic_metrics(a["metrics"])
        b["metrics"] = deterministic_metrics(b["metrics"])
        assert a == b
