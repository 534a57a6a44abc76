"""Tests for postmortem hypothesis evaluation and directive extraction."""

import itertools

import pytest

from repro.apps.catalog import build_catalog_app
from repro.apps.synthetic import make_io_app, make_pingpong
from repro.core import (
    SearchConfig,
    evaluate_postmortem,
    extended_tree,
    extract_directives,
    extract_directives_postmortem,
    run_diagnosis,
)
from repro.core.postmortem import postmortem_summary
from repro.core.shg import Priority
from repro.metrics import CostModel
from repro.metrics.profile import FlatProfile
from repro.resources import ResourceSpace, whole_program
from tests import reference_extraction as ref

SYNC = "ExcessiveSyncWaitingTime"
CPU = "CPUbound"
IO = "ExcessiveIOBlockingTime"

FAST = SearchConfig(
    min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0,
    noise_band=0.0,
)


INCLUDES = ("include_priorities", "include_general_prunes",
            "include_historic_prunes", "include_pair_prunes",
            "include_thresholds")

#: Which activity classes each standard hypothesis's metric counts, and
#: its default threshold, written out here rather than read off the tree.
ACTIVITIES = {CPU: ("compute",), SYNC: ("sync",), IO: ("io",)}
THRESHOLDS = {CPU: 0.90, SYNC: 0.20, IO: 0.15}


@pytest.fixture(scope="module")
def pingpong_record():
    app = make_pingpong(iterations=120, slow=1.0, fast=0.2)
    return run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))


@pytest.fixture(scope="module")
def poisson_record():
    return run_diagnosis(build_catalog_app("poisson", "A", 150),
                         config=SearchConfig(stop_engine_when_done=True))


def _conclusions(conclusions):
    return [(c.hypothesis, str(c.focus), c.value, c.is_true) for c in conclusions]


class TestEvaluatePostmortem:
    def test_top_level_conclusions(self, pingpong_record):
        rec = pingpong_record
        conclusions = evaluate_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        by_key = {(c.hypothesis, str(c.focus)): c for c in conclusions}
        wp = str(whole_program(rec.space()))
        assert by_key[(SYNC, wp)].is_true
        assert not by_key[(CPU, wp)].is_true
        assert not by_key[(IO, wp)].is_true

    def test_false_nodes_not_refined(self, pingpong_record):
        rec = pingpong_record
        conclusions = evaluate_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        # no CPU conclusions below the whole program (CPU tested false there)
        cpu = [c for c in conclusions if c.hypothesis == CPU]
        assert len(cpu) == 1

    def test_values_match_ground_truth(self, pingpong_record):
        rec = pingpong_record
        conclusions = evaluate_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        wp = str(whole_program(rec.space()))
        sync_wp = next(c for c in conclusions if c.hypothesis == SYNC and str(c.focus) == wp)
        profile = rec.flat_profile()
        expected = profile.focus_fraction(
            whole_program(rec.space()), ("sync",), rec.placement
        )
        assert sync_wp.value == pytest.approx(expected)

    @pytest.mark.parametrize("app", ["pingpong", "poisson"])
    def test_every_value_is_its_metrics_share(self, request, app):
        """Each conclusion's value is the profile's share of the activity
        classes its hypothesis's metric counts, judged against the
        hypothesis's threshold."""
        rec = request.getfixturevalue(f"{app}_record")
        profile = rec.flat_profile()
        conclusions = evaluate_postmortem(profile, rec.space(), rec.placement)
        assert {c.hypothesis for c in conclusions} == set(ACTIVITIES)
        for c in conclusions:
            expected = profile.focus_fraction(c.focus, ACTIVITIES[c.hypothesis],
                                              rec.placement)
            assert c.value == expected, (c.hypothesis, str(c.focus))
            assert c.is_true == (c.value > THRESHOLDS[c.hypothesis])

    @pytest.mark.parametrize("app", ["pingpong", "poisson"])
    def test_count_hypotheses_are_not_judged(self, request, app):
        """A flat profile holds no operation counts: with the extended
        tree the offline search concludes exactly what it does with the
        standard one."""
        rec = request.getfixturevalue(f"{app}_record")
        args = (rec.flat_profile(), rec.space(), rec.placement)
        standard = evaluate_postmortem(*args)
        assert any(c.is_true for c in standard if c.hypothesis == SYNC)
        assert _conclusions(evaluate_postmortem(*args, hypotheses=extended_tree())) \
            == _conclusions(standard)

    def test_threshold_override(self, pingpong_record):
        rec = pingpong_record
        high = evaluate_postmortem(
            rec.flat_profile(), rec.space(), rec.placement, thresholds={SYNC: 0.99}
        )
        assert not any(c.is_true for c in high if c.hypothesis == SYNC)

    def test_deterministic(self, pingpong_record):
        rec = pingpong_record
        a = evaluate_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        b = evaluate_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        assert [(c.hypothesis, str(c.focus), c.is_true) for c in a] == [
            (c.hypothesis, str(c.focus), c.is_true) for c in b
        ]


class TestExtractPostmortem:
    def test_priorities_produced(self, pingpong_record):
        rec = pingpong_record
        ds = extract_directives_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        levels = {(p.hypothesis, str(p.focus)): p.level for p in ds.priorities}
        wp = str(whole_program(rec.space()))
        assert levels[(SYNC, wp)] is Priority.HIGH
        assert levels[(CPU, wp)] is Priority.LOW

    def test_agrees_with_online_extraction(self, pingpong_record):
        """The postmortem high-priority set matches the online one for a
        stable workload (the future-work claim: directives can come from
        raw data gathered by any tool)."""
        rec = pingpong_record
        online = extract_directives(rec, include_general_prunes=False,
                                    include_historic_prunes=False,
                                    include_pair_prunes=False)
        post = extract_directives_postmortem(
            rec.flat_profile(), rec.space(), rec.placement,
            include_pair_prunes=False, include_historic_prunes=False,
        )
        online_high = {
            (p.hypothesis, str(p.focus))
            for p in online.priorities if p.level is Priority.HIGH
        }
        post_high = {
            (p.hypothesis, str(p.focus))
            for p in post.priorities if p.level is Priority.HIGH
        }
        # near-total agreement (online search may miss cost-limited detail)
        assert len(online_high & post_high) >= 0.8 * len(online_high)

    def test_tiny_function_pruned(self):
        app = make_io_app(iterations=60, compute=0.5, io=0.5)
        rec = run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))
        ds = extract_directives_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        assert any(p.resource == "/Code/wr.c/main" for p in ds.prunes)

    def test_thresholds_flag(self, pingpong_record):
        rec = pingpong_record
        ds = extract_directives_postmortem(
            rec.flat_profile(), rec.space(), rec.placement, include_thresholds=True
        )
        assert any(t.hypothesis == SYNC for t in ds.thresholds)

    def test_directed_run_with_postmortem_directives(self, pingpong_record):
        rec = pingpong_record
        ds = extract_directives_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        directed = run_diagnosis(
            make_pingpong(iterations=120, slow=1.0, fast=0.2),
            directives=ds,
            config=FAST,
            cost_model=CostModel(perturb_per_unit=0.0),
        )
        # the known bottleneck is found immediately via the high priorities
        wp = str(whole_program(rec.space()))
        assert directed.found_times()[(SYNC, wp)] <= rec.found_times()[(SYNC, wp)]


class TestPostmortemOracle:
    """Postmortem extraction against ``tests/reference_extraction.py``,
    fed facts read off ``evaluate_postmortem`` and the profile directly
    (not through ``postmortem_summary``, which stays checked)."""

    @pytest.mark.parametrize("app", ["pingpong", "poisson"])
    def test_every_option_combination_matches_the_reference(self, request, app):
        rec = request.getfixturevalue(f"{app}_record")
        args = (rec.flat_profile(), rec.space(), rec.placement)
        for hypotheses in (None, extended_tree()):
            facts = [ref.facts_of_postmortem(
                evaluate_postmortem(*args, hypotheses=hypotheses), *args)]
            for flags in itertools.product((True, False), repeat=len(INCLUDES)):
                for fraction in (0.005, 0.05):
                    options = dict(zip(INCLUDES, flags), min_exec_fraction=fraction,
                                   hypotheses=hypotheses)
                    assert extract_directives_postmortem(*args, **options).to_text() \
                        == ref.reference_directives(facts, **options).to_text(), options

    @pytest.mark.parametrize("app", ["pingpong", "poisson"])
    def test_summary_keeps_the_bucket_maxima(self, request, app):
        """``postmortem_summary`` stores of each hypothesis's values the
        per-bucket maxima the reference computes from every value."""
        rec = request.getfixturevalue(f"{app}_record")
        args = (rec.flat_profile(), rec.space(), rec.placement)
        facts = ref.facts_of_postmortem(evaluate_postmortem(*args), *args)
        assert postmortem_summary(*args)["hyp_values"] == {
            h: ref.reference_bucket_maxima(values)
            for h, values in facts["hyp_values"].items()}

    def test_two_floats_in_one_bucket_keep_the_larger(self):
        """A hand-made profile whose offline search puts three distinct
        CPU values in the 0.1234 bucket: the whole program (0.123425),
        then one process at 0.12344 and the other at 0.12341.  Neither
        the first nor the last value of the bucket is its maximum, so
        only the per-bucket maximum survives the comparison."""
        space = ResourceSpace(("Code", "Machine", "Process", "SyncObject"))
        for name in ("/Code/m.c/f", "/Machine/n0", "/Machine/n1",
                     "/Process/p0", "/Process/p1"):
            space.add(name)
        placement = {"p0": "n0", "p1": "n1"}
        profile = FlatProfile()
        for proc, node, seconds in (("p0", "n0", 0.12344), ("p1", "n1", 0.12341)):
            combo = ("/Code/m.c/f", f"/Process/{proc}", f"/Machine/{node}", "")
            profile.by_combo[combo]["compute"] = seconds
            profile.by_code["/Code/m.c/f"]["compute"] += seconds
            profile.totals["compute"] += seconds
        profile.elapsed = 1.0
        args = (profile, space, placement)
        thresholds = {CPU: 0.1}
        facts = ref.facts_of_postmortem(
            evaluate_postmortem(*args, thresholds=thresholds), *args)
        bucket = [v for v in facts["hyp_values"][CPU] if round(v, 4) == 0.1234]
        assert max(bucket) not in (bucket[0], bucket[-1])
        assert postmortem_summary(*args, thresholds=thresholds)["hyp_values"] == {
            h: ref.reference_bucket_maxima(values)
            for h, values in facts["hyp_values"].items()}

    def test_negligible_module_folds_to_one_prune(self, poisson_record):
        """Section 3's historic prune: a module whose every function is
        negligible is pruned as a unit, as on the SHG route."""
        rec = poisson_record
        ds = extract_directives_postmortem(rec.flat_profile(), rec.space(), rec.placement)
        resources = {p.resource for p in ds.prunes}
        assert {"/Code/io.f", "/Code/timing.f"} <= resources
        assert not any(r.startswith(("/Code/io.f/", "/Code/timing.f/"))
                       for r in resources)
