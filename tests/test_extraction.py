"""Tests for directive extraction from stored run records."""

import pytest

from repro.apps.synthetic import make_io_app, make_pingpong
from repro.core import (
    SearchConfig,
    extract_directives,
    extract_general_prunes,
    extract_priorities,
    extract_thresholds,
    run_diagnosis,
    suggest_threshold,
)
from repro.core.extraction import extract_historic_prunes, extract_pair_prunes
from repro.core.shg import Priority
from repro.metrics import CostModel
from repro.resources import whole_program

SYNC = "ExcessiveSyncWaitingTime"
CPU = "CPUbound"
IO = "ExcessiveIOBlockingTime"

FAST = SearchConfig(
    min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0,
    noise_band=0.0,
)


@pytest.fixture(scope="module")
def pingpong_record():
    app = make_pingpong(iterations=100, slow=1.0, fast=0.2)
    return run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))


class TestPriorities:
    def test_true_pairs_high(self, pingpong_record):
        prios = extract_priorities([pingpong_record])
        levels = {(p.hypothesis, str(p.focus)): p.level for p in prios}
        assert levels[(SYNC, str(whole_program()))] is Priority.HIGH

    def test_false_pairs_low(self, pingpong_record):
        prios = extract_priorities([pingpong_record])
        levels = {(p.hypothesis, str(p.focus)): p.level for p in prios}
        assert levels[(CPU, str(whole_program()))] is Priority.LOW

    def test_true_in_any_run_wins(self, pingpong_record):
        # same record twice: intersection of true sets is unchanged
        prios1 = extract_priorities([pingpong_record])
        prios2 = extract_priorities([pingpong_record, pingpong_record])
        assert {p.as_line() for p in prios1} == {p.as_line() for p in prios2}


class TestGeneralPrunes:
    def test_syncobject_pruned_from_non_sync(self, pingpong_record):
        prunes = extract_general_prunes(pingpong_record)
        hyps = {p.hypothesis for p in prunes if p.resource == "/SyncObject"}
        assert hyps == {CPU, IO}

    def test_machine_pruned_on_bijection(self, pingpong_record):
        prunes = extract_general_prunes(pingpong_record)
        assert any(p.resource == "/Machine" for p in prunes)

    def test_no_machine_prune_without_record(self):
        prunes = extract_general_prunes(None)
        assert not any(p.resource == "/Machine" for p in prunes)


class TestHistoricPrunes:
    def test_tiny_function_pruned(self, pingpong_record):
        # pp.c has only busy functions; build an app with a dead one
        app = make_io_app(iterations=60, compute=0.5, io=0.5)
        rec = run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))
        # wr.c/main holds ~0 exclusive time in this app
        prunes = extract_historic_prunes([rec], min_exec_fraction=0.005)
        assert any(p.resource == "/Code/wr.c/main" for p in prunes)

    def test_busy_function_kept(self, pingpong_record):
        prunes = extract_historic_prunes([pingpong_record], min_exec_fraction=0.005)
        assert not any("work" in p.resource for p in prunes)

    def test_whole_module_folded(self):
        app = make_io_app(iterations=60, compute=0.5, io=0.5)
        rec = run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))
        # with a huge cutoff every wr.c function is tiny -> module-level prune
        prunes = extract_historic_prunes([rec], min_exec_fraction=2.0)
        assert any(p.resource == "/Code/wr.c" for p in prunes)

    def test_empty_records(self):
        assert extract_historic_prunes([]) == []


class TestPairPrunes:
    def test_false_pairs_become_pair_prunes(self, pingpong_record):
        pair_prunes = extract_pair_prunes([pingpong_record])
        keys = {(p.hypothesis, str(p.focus)) for p in pair_prunes}
        assert (CPU, str(whole_program())) in keys
        # true pairs are never pair-pruned
        assert (SYNC, str(whole_program())) not in keys


class TestSuggestThreshold:
    def test_finds_largest_gap(self):
        values = [0.45, 0.40, 0.38, 0.36, 0.08, 0.06, 0.05]
        t = suggest_threshold(values, noise_floor=0.03)
        assert 0.08 < t < 0.36

    def test_few_values_returns_default(self):
        assert suggest_threshold([0.5], default=0.2) == 0.2
        assert suggest_threshold([], default=0.3) == 0.3

    def test_ceiling_excludes_high_gaps(self):
        # the large gap between 0.25 and 0.9 sits above the ceiling; the
        # suggestion must come from the low gap instead
        values = [0.9, 0.25, 0.22, 0.21, 0.05]
        t = suggest_threshold(values)
        assert t < 0.21

    def test_extract_thresholds_from_record(self, pingpong_record):
        ts = extract_thresholds([pingpong_record])
        hyps = {t.hypothesis for t in ts}
        assert SYNC in hyps
        sync_t = next(t for t in ts if t.hypothesis == SYNC)
        assert 0.0 < sync_t.value < 0.6


class TestExtractDirectives:
    def test_full_extraction_kinds(self, pingpong_record):
        ds = extract_directives(pingpong_record, include_thresholds=True)
        assert ds.priorities and ds.prunes and ds.pair_prunes and ds.thresholds

    def test_flags_disable_kinds(self, pingpong_record):
        ds = extract_directives(
            pingpong_record,
            include_priorities=False,
            include_general_prunes=False,
            include_historic_prunes=False,
            include_pair_prunes=False,
        )
        assert ds.is_empty()

    def test_single_record_accepted(self, pingpong_record):
        ds1 = extract_directives(pingpong_record)
        ds2 = extract_directives([pingpong_record])
        assert ds1.to_text() == ds2.to_text()


class TestSummaryEquivalence:
    """Extraction must match the naive reference directive-for-directive
    on real diagnosed runs, whether it is handed the records or the
    summaries a store would hold for them."""

    @pytest.fixture(scope="class")
    def records(self, pingpong_record):
        io_record = run_diagnosis(
            make_io_app(iterations=100),
            config=FAST,
            cost_model=CostModel(perturb_per_unit=0.0),
        )
        return [pingpong_record, io_record]

    def test_extract_directives_matches(self, records):
        from repro.core.extraction import HarvestAggregate
        from repro.storage.store import summarize_record
        from tests.reference_extraction import (
            facts_of_record,
            reference_directives,
        )

        expected = reference_directives(
            [facts_of_record(r) for r in records], include_thresholds=True
        )
        from_records = extract_directives(records, include_thresholds=True)
        from_summaries = HarvestAggregate.of_summaries(
            summarize_record(r) for r in records
        ).finalize(include_thresholds=True)
        assert from_records.to_text() == expected.to_text()
        assert from_summaries.to_text() == expected.to_text()

    def test_harvest_store_matches_harvest_records(self, records, tmp_path):
        from repro.facade import harvest
        from repro.storage import ExperimentStore

        store = ExperimentStore(tmp_path / "runs")
        for record in records:
            store.save(record)
        via_store = harvest(store, include_thresholds=True)
        via_records = harvest(records, include_thresholds=True)
        assert via_store.to_text() == via_records.to_text()

    def test_harvest_store_parses_no_records(self, records, tmp_path):
        from repro.facade import harvest
        from repro.storage import ExperimentStore

        root = tmp_path / "runs"
        store = ExperimentStore(root)
        for record in records:
            store.save(record)
        fresh = ExperimentStore(root)
        fresh.load = lambda run_id: pytest.fail(
            f"harvest deserialized record {run_id!r}"
        )
        fresh.load_many = lambda *a, **k: pytest.fail("harvest used load_many")
        assert len(harvest(fresh)) > 0
