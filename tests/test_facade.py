"""Tests for the stable top-level facade (repro.diagnose / repro.harvest)."""

import pytest

from repro import diagnose, harvest
from repro.apps.synthetic import make_pingpong
from repro.core import DirectiveSet, SearchConfig, run_diagnosis
from repro.metrics import CostModel
from repro.obs import deterministic_metrics
from repro.storage import ExperimentStore, StoreError

FAST = dict(min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0)


def _app():
    return make_pingpong(iterations=60)


@pytest.fixture(scope="module")
def base_record():
    return diagnose(_app(), run_id="facade-base", **FAST)


class TestDiagnose:
    def test_matches_run_diagnosis(self, base_record):
        legacy = run_diagnosis(_app(), config=SearchConfig(**FAST), run_id="facade-base")
        a, b = legacy.to_dict(), base_record.to_dict()
        # Separate executions: only wall-clock metrics may differ.
        a["metrics"] = deterministic_metrics(a["metrics"])
        b["metrics"] = deterministic_metrics(b["metrics"])
        assert a == b

    def test_search_kwargs_reach_config(self, base_record):
        assert base_record.config["min_interval"] == 5.0
        assert base_record.config["cost_limit"] == 50.0

    def test_session_kwargs_pass_through(self):
        record = diagnose(_app(), cost_model=CostModel(perturb_per_unit=0.0), **FAST)
        assert record.pairs_tested > 0

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="wibble"):
            diagnose(_app(), wibble=3)

    def test_engine_loop_is_an_unknown_kwarg(self):
        # the engine has one loop; the retired selector gets no shim
        from repro.core import DiagnosisSession

        with pytest.raises(TypeError, match="engine_loop"):
            diagnose(_app(), engine_loop="legacy")
        with pytest.raises(TypeError, match="engine_loop"):
            DiagnosisSession(app=_app(), engine_loop="legacy")

    def test_config_and_fields_conflict(self):
        with pytest.raises(TypeError):
            diagnose(_app(), config=SearchConfig(), min_interval=5.0)

    def test_store_path_saves(self, tmp_path):
        record = diagnose(_app(), store=tmp_path / "runs", run_id="saved", **FAST)
        assert ExperimentStore(tmp_path / "runs").load("saved").to_dict() == record.to_dict()

    def test_history_record(self, base_record):
        directed = diagnose(_app(), history=base_record, run_id="directed", **FAST)
        assert directed.pairs_tested > 0

    def test_history_directive_file(self, tmp_path, base_record):
        path = tmp_path / "base.directives"
        path.write_text(harvest(base_record).to_text())
        directed = diagnose(_app(), history=path, **FAST)
        assert directed.pairs_tested > 0

    def test_history_store_path(self, tmp_path, base_record):
        ExperimentStore(tmp_path / "runs").save(base_record)
        directed = diagnose(_app(), history=tmp_path / "runs", **FAST)
        assert directed.pairs_tested > 0

    def test_history_missing_path(self, tmp_path):
        with pytest.raises(StoreError):
            diagnose(_app(), history=tmp_path / "nope.directives", **FAST)

    @pytest.mark.parametrize("pool", [None, "default"])
    def test_history_directory_without_a_store_is_left_untouched(
            self, tmp_path, pool):
        """An existing directory that holds no store is not history: it
        fails the diagnosis, and no store appears in it."""
        (tmp_path / "notes.txt").write_text("not a store")
        with pytest.raises(StoreError, match="holds no store"):
            diagnose(_app(), history=tmp_path, pool=pool, **FAST)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]

    def test_store_target_still_creates_its_store(self, tmp_path, base_record):
        record = diagnose(_app(), store=tmp_path / "new", **FAST)
        assert ExperimentStore(tmp_path / "new").list() == [record.run_id]


class TestHarvest:
    def test_single_record(self, base_record):
        directives = harvest(base_record)
        assert isinstance(directives, DirectiveSet)
        assert len(directives) > 0

    def test_record_list(self, base_record):
        assert len(harvest([base_record, base_record])) > 0

    def test_options_forward(self, base_record):
        with_thresholds = harvest(base_record, include_thresholds=True)
        without = harvest(base_record, include_thresholds=False)
        assert len(with_thresholds.thresholds) >= len(without.thresholds)
        assert not without.thresholds

    def test_store_and_app_filter(self, tmp_path, base_record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(base_record)
        assert len(harvest(store, app="pingpong")) > 0
        assert len(harvest(store, app="ghost").priorities) == 0

    def test_app_object_filter(self, tmp_path, base_record):
        store = ExperimentStore(tmp_path / "runs")
        store.save(base_record)
        assert len(harvest(store, app=_app())) > 0

    def test_rejects_non_records(self):
        with pytest.raises(TypeError):
            harvest([42])

    @pytest.mark.parametrize("pool", [None, "default"])
    def test_missing_store_path_raises_and_creates_nothing(
        self, tmp_path, monkeypatch, pool
    ):
        # A single source always raises: a typo must not come back as the
        # two general prunes of an empty store it just created.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a-file").write_text("priority ...")
        before = sorted(tmp_path.iterdir())
        for source in ("typo-runs", tmp_path / "typo-runs", tmp_path / "a-file"):
            with pytest.raises(StoreError, match="does not exist"):
                harvest(source, pool=pool)
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("pool", [None, "default"])
    def test_directory_without_a_store_raises_and_is_left_untouched(
            self, tmp_path, pool):
        from repro.facade import resolve_history

        empty = tmp_path / "empty"
        empty.mkdir()
        for read in (lambda: harvest(empty, pool=pool),
                     lambda: harvest(str(empty), pool=pool),
                     lambda: resolve_history(empty, pool=pool)):
            with pytest.raises(StoreError, match="holds no store"):
                read()
        assert list(empty.iterdir()) == []

    def test_list_of_strings_is_federated(self, tmp_path):
        # Strings in a list are member store *paths* now; a path that is
        # not a store on disk is a failed member, not record history.
        with pytest.raises(StoreError, match="every member store failed"):
            with pytest.warns(Warning, match="does not exist"):
                harvest([str(tmp_path / "no-such-store")])


def test_facade_names_importable():
    import repro

    for name in ("diagnose", "harvest", "Campaign", "RunSpec", "Stage"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    # legacy names stay exported for compatibility
    for name in ("run_diagnosis", "extract_directives", "DiagnosisSession"):
        assert name in repro.__all__
