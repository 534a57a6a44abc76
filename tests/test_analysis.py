"""Tests for bottleneck-set analysis, efficiency, similarity, and tables."""

import math

import pytest

from repro.analysis import (
    Table,
    base_bottleneck_set,
    canonical_pairs,
    canonicalize_focus,
    format_reduction,
    format_seconds,
    membership_partition,
    optimal_threshold,
    priority_similarity,
    reduction,
    significant_areas,
    areas_reported,
    threshold_point,
    time_to_fraction,
)
from repro.apps.synthetic import make_pingpong
from repro.core import (
    DirectiveSet,
    PriorityDirective,
    SearchConfig,
    run_diagnosis,
)
from repro.core.shg import Priority
from repro.metrics import CostModel
from repro.resources import parse_focus, whole_program

SYNC = "ExcessiveSyncWaitingTime"
FAST = SearchConfig(
    min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0, noise_band=0.0
)

PLACEMENT = {"pp:1": "n0", "pp:2": "n1"}


@pytest.fixture(scope="module")
def record():
    app = make_pingpong(iterations=100, slow=1.0, fast=0.2)
    return run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))


class TestCanonicalization:
    def test_machine_collapsed_into_process(self):
        f = "< /Code, /Machine/n1, /Process, /SyncObject >"
        out = canonicalize_focus(f, PLACEMENT)
        assert out == "< /Code, /Machine, /Process/pp:2, /SyncObject >"

    def test_machine_dropped_when_process_constrained(self):
        f = "< /Code, /Machine/n1, /Process/pp:2, /SyncObject >"
        out = canonicalize_focus(f, PLACEMENT)
        assert out == "< /Code, /Machine, /Process/pp:2, /SyncObject >"

    def test_unconstrained_unchanged(self):
        f = str(whole_program())
        assert canonicalize_focus(f, PLACEMENT) == f

    def test_non_bijection_untouched(self):
        f = "< /Code, /Machine/n0, /Process, /SyncObject >"
        shared = {"a": "n0", "b": "n0"}
        assert canonicalize_focus(f, shared) == f

    def test_canonical_pairs_dedup(self):
        pairs = [
            (SYNC, "< /Code, /Machine/n1, /Process, /SyncObject >"),
            (SYNC, "< /Code, /Machine, /Process/pp:2, /SyncObject >"),
        ]
        assert len(canonical_pairs(pairs, PLACEMENT)) == 1


class TestBaseSetAndTimes:
    def test_margin_zero_keeps_all_true(self, record):
        base = base_bottleneck_set(record, margin=0.0)
        assert len(base) == len(canonical_pairs(record.true_pairs(), record.placement))

    def test_margin_filters(self, record):
        loose = base_bottleneck_set(record, margin=0.0)
        tight = base_bottleneck_set(record, margin=0.2)
        assert tight <= loose

    def test_solid_pairs_clear_the_margin_on_their_own_activity(self, record):
        """A solid pair's ground truth is the share of the activity class
        its hypothesis counts, and it clears the threshold by the margin."""
        classes = {"CPUbound": ("compute",), SYNC: ("sync",),
                   "ExcessiveIOBlockingTime": ("io",)}
        profile = record.flat_profile()
        assert base_bottleneck_set(record, margin=0.1)
        for margin in (0.1, 0.3):
            for hyp, text in base_bottleneck_set(record, margin=margin):
                value = profile.focus_fraction(parse_focus(text), classes[hyp],
                                               record.placement)
                assert value >= record.thresholds[hyp] + margin, (margin, hyp, text)

    def test_time_to_fraction_monotone(self, record):
        base = base_bottleneck_set(record, margin=0.05)
        t = time_to_fraction(record, base)
        assert t[0.25] <= t[0.5] <= t[0.75] <= t[1.0]

    def test_time_to_fraction_inf_for_missing(self, record):
        fake = {(SYNC, "< /Code/ghost.c, /Machine, /Process, /SyncObject >")}
        t = time_to_fraction(record, fake)
        assert math.isinf(t[1.0])

    def test_empty_base_set(self, record):
        t = time_to_fraction(record, set())
        assert all(math.isinf(v) for v in t.values())

    def test_reduction(self):
        assert reduction(100.0, 20.0) == pytest.approx(-80.0)
        assert math.isnan(reduction(100.0, math.inf))


class TestSignificantAreas:
    def test_areas_from_profile(self, record):
        prof = record.flat_profile()
        areas = significant_areas(prof, record.placement, min_fraction=0.05, per_process_min=0.3)
        names = {a.label for a in areas}
        assert any("pp.c" in n or "Process" in n or "Message" in n for n in names)
        # combinations appear alongside singles
        assert any(len(a.resources) == 2 for a in areas)

    def test_areas_reported_counts(self, record):
        prof = record.flat_profile()
        areas = significant_areas(prof, record.placement, min_fraction=0.05, per_process_min=0.3)
        hits = areas_reported(record, areas)
        assert all(v >= 0 for v in hits.values())
        # the dominant wait areas must be reported by the search
        assert sum(1 for v in hits.values() if v > 0) >= 1


class TestEfficiency:
    def test_threshold_point(self, record):
        p = threshold_point(record, 0.2)
        assert p.pairs_tested == record.pairs_tested
        assert p.efficiency == pytest.approx(record.efficiency())

    def test_optimal_threshold_largest_complete(self):
        pts = [
            threshold_point_like(0.30, 10),
            threshold_point_like(0.20, 26),
            threshold_point_like(0.12, 26),
            threshold_point_like(0.05, 26),
        ]
        assert optimal_threshold(pts, full_count=26) == 0.20

    def test_optimal_threshold_fallback(self):
        pts = [threshold_point_like(0.30, 10), threshold_point_like(0.12, 20)]
        assert optimal_threshold(pts, full_count=26) == 0.12


def threshold_point_like(threshold, found):
    from repro.analysis import ThresholdPoint

    return ThresholdPoint(threshold=threshold, bottlenecks=found, pairs_tested=100,
                          efficiency=found / 100)


class TestSimilarity:
    def test_membership_partition(self):
        sets = {"A": {1, 2, 3}, "B": {2, 3, 4}, "C": {3}}
        part = membership_partition(sets)
        assert part[("A",)] == 1
        assert part[("B",)] == 1
        assert part[("A", "B")] == 1
        assert part[("A", "B", "C")] == 1
        assert part[("C",)] == 0
        assert sum(part.values()) == 4  # distinct elements

    def test_priority_similarity_rows(self):
        def ds(highs, lows):
            prios = [
                PriorityDirective(SYNC, whole_program().with_selection("Code", c), Priority.HIGH)
                for c in highs
            ] + [
                PriorityDirective(SYNC, whole_program().with_selection("Code", c), Priority.LOW)
                for c in lows
            ]
            return DirectiveSet(priorities=prios)

        table = priority_similarity({
            "A": ds(["/Code/x.c"], ["/Code/c.c"]),
            "B": ds(["/Code/x.c", "/Code/y.c"], []),
        })
        assert table["High"][("A", "B")] == 1
        assert table["High"][("B",)] == 1
        assert table["Low"][("A",)] == 1
        assert table["Both"][("A", "B")] == 1


class TestTableRenderer:
    def test_render_alignment(self):
        t = Table("Demo", ["col", "value"])
        t.add_row(["a", 1])
        t.add_row(["longer", 2.5])
        text = t.render()
        assert "Demo" in text and "longer" in text
        lines = text.splitlines()
        assert lines[1] == "=" * len("Demo")

    def test_row_width_check(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(["only-one"])

    def test_footnotes(self):
        t = Table("Demo", ["a"])
        t.add_row(["x"])
        t.add_footnote("note")
        assert "* note" in t.render()

    def test_format_helpers(self):
        assert format_seconds(math.inf) == "--"
        assert format_seconds(12.34) == "12.3"
        assert format_reduction(-93.5) == "(-93.5%)"
        assert format_reduction(float("nan")) == ""
