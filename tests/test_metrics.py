"""Tests for metric definitions, the cost model, and the cost gate."""

import pytest

from repro.metrics import CostGate, CostModel, METRICS
from repro.simulator import Activity


class TestMetrics:
    def test_registry_complete(self):
        assert set(METRICS) == {
            "exec_time", "cpu_time", "sync_wait_time", "io_wait_time",
            "sync_op_count", "io_op_count",
        }

    def test_metric_kinds(self):
        assert METRICS["sync_wait_time"].kind == "time"
        assert METRICS["sync_op_count"].kind == "count"

    def test_cpu_counts_compute_only(self):
        m = METRICS["cpu_time"]
        assert m.counts(Activity.COMPUTE)
        assert not m.counts(Activity.SYNC)
        assert not m.counts(Activity.IO)

    def test_sync_counts_sync_only(self):
        m = METRICS["sync_wait_time"]
        assert m.counts(Activity.SYNC)
        assert not m.counts(Activity.COMPUTE)

    def test_exec_counts_everything(self):
        m = METRICS["exec_time"]
        assert all(m.counts(a) for a in Activity)

    def test_activity_keys_are_the_sorted_activity_values(self):
        assert METRICS["cpu_time"].activity_keys == ("compute",)
        assert METRICS["exec_time"].activity_keys == ("compute", "io", "sync")
        assert METRICS["sync_op_count"].activity_keys == ("sync",)
        for m in METRICS.values():
            assert m.activity_keys == tuple(sorted(a.value for a in m.activities))


class TestCostModel:
    def test_pair_cost_scales_with_processes(self):
        cm = CostModel(base=0.05, per_process=0.15)
        assert cm.pair_cost(1) == pytest.approx(0.20)
        assert cm.pair_cost(4) == pytest.approx(0.65)

    def test_persistent_factor(self):
        cm = CostModel(base=0.0, per_process=0.1, persistent_cost_factor=0.5)
        assert cm.pair_cost(2, persistent=True) == pytest.approx(0.1)

    def test_overhead_capped(self):
        cm = CostModel(perturb_per_unit=0.01, max_overhead=0.35)
        assert cm.overhead_fraction(10.0) == pytest.approx(0.10)
        assert cm.overhead_fraction(1000.0) == pytest.approx(0.35)


class TestCostGate:
    def test_admits_under_limit(self):
        g = CostGate(10.0)
        assert g.can_admit(5.0)
        g.add(5.0)
        assert g.can_admit(4.0)
        assert not g.can_admit(6.0)

    def test_halts_at_limit_with_hysteresis(self):
        g = CostGate(10.0)
        g.add(10.0)
        assert g.halted
        g.remove(0.5)  # 9.5 > resume level 9.0
        assert g.halted
        assert not g.can_admit(0.1)
        g.remove(1.0)  # 8.5 <= 9.0 -> resume
        assert not g.halted
        assert g.can_admit(1.0)

    def test_peak_tracked(self):
        g = CostGate(10.0)
        g.add(4.0)
        g.add(3.0)
        g.remove(5.0)
        assert g.peak == pytest.approx(7.0)

    def test_remove_never_negative(self):
        g = CostGate(10.0)
        g.add(1.0)
        g.remove(5.0)
        assert g.total == 0.0

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            CostGate(0.0)
