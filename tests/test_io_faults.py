"""Seeded I/O fault injection: plan validation, determinism, the
process-global arming point, and the injector's strike log."""

import errno

import pytest

from repro.faults import FaultPlanError, IOFault, IOFaultPlan, SimulatedCrash
from repro.faults import io as io_faults


class TestPlanValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown I/O op"):
            IOFault(op="mmap", at=0, kind="eio")

    def test_kind_must_match_op(self):
        with pytest.raises(FaultPlanError, match="does not apply"):
            IOFault(op="read", at=0, kind="enospc")

    def test_negative_index_rejected(self):
        with pytest.raises(FaultPlanError, match=">= 0"):
            IOFault(op="write", at=-1, kind="eio")

    def test_times_floor(self):
        with pytest.raises(FaultPlanError, match="times"):
            IOFault(op="write", at=0, kind="eio", times=0)

    def test_arg_range(self):
        with pytest.raises(FaultPlanError, match="arg"):
            IOFault(op="write", at=0, kind="short", arg=1.5)

    def test_plan_coerces_dict_faults(self):
        plan = IOFaultPlan(seed=1, faults=(
            {"op": "fsync", "at": 2, "kind": "lost"},
        ))
        assert plan.faults[0] == IOFault(op="fsync", at=2, kind="lost")

    def test_round_trip(self):
        plan = IOFaultPlan.random(7)
        again = IOFaultPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown"):
            IOFaultPlan.from_dict({"seed": 0, "chaos": True})

    def test_random_is_deterministic(self):
        assert IOFaultPlan.random(42) == IOFaultPlan.random(42)
        assert IOFaultPlan.random(42) != IOFaultPlan.random(43)

    def test_random_respects_menu(self):
        for seed in range(40):
            for fault in IOFaultPlan.random(seed, horizon=8).faults:
                assert fault.kind in io_faults.KINDS_FOR_OP[fault.op]
                assert 0 <= fault.at < 8

    def test_describe_names_every_fault(self):
        plan = IOFaultPlan(faults=(
            IOFault(op="write", at=3, kind="eio", times=2),
        ))
        assert "eio@write[3+2]" in plan.describe()


class TestInjector:
    def test_strikes_at_the_scheduled_index(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="write", at=2, kind="eio"),
        )))
        assert inj.on("write") is None
        assert inj.on("write") is None
        with pytest.raises(OSError) as exc_info:
            inj.on("write", "/tmp/x")
        assert exc_info.value.errno == errno.EIO
        assert inj.on("write") is None  # transient: cleared after `times`
        assert inj.injected == [("write", 2, "eio", "/tmp/x")]

    def test_times_covers_consecutive_calls(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="fsync", at=0, kind="eio", times=2),
        )))
        for _ in range(2):
            with pytest.raises(OSError):
                inj.on("fsync")
        assert inj.on("fsync") is None

    def test_counters_are_per_op(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="read", at=0, kind="eio"),
        )))
        assert inj.on("write") is None  # write counter, not read's
        with pytest.raises(OSError):
            inj.on("read")

    def test_path_part_filter(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="replace", at=0, kind="eio", times=99,
                    path_part="index"),
        )))
        assert inj.on("replace", "/store/r0.json") is None
        with pytest.raises(OSError):
            inj.on("replace", "/store/index.json")

    def test_enospc_kind(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="write", at=0, kind="enospc"),
        )))
        with pytest.raises(OSError) as exc_info:
            inj.on("write")
        assert exc_info.value.errno == errno.ENOSPC

    def test_crash_is_not_an_exception_subclass(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="replace", at=0, kind="crash"),
        )))
        with pytest.raises(SimulatedCrash):
            inj.on("replace")
        assert not issubclass(SimulatedCrash, Exception)

    def test_mediated_kinds_return_action(self):
        inj = io_faults.IOFaultInjector(IOFaultPlan(faults=(
            IOFault(op="write", at=0, kind="short", arg=0.25),
            IOFault(op="fsync", at=0, kind="lost"),
        )))
        assert inj.on("write") == ("short", 0.25)
        assert inj.on("fsync") == ("lost", 0.5)


class TestArming:
    def test_disarmed_check_is_none(self):
        assert io_faults.active() is None
        assert io_faults.check("write", "/anything") is None

    def test_injected_context_arms_and_disarms(self):
        plan = IOFaultPlan(faults=(IOFault(op="read", at=0, kind="eio"),))
        with io_faults.injected(plan) as inj:
            assert io_faults.active() is inj
            with pytest.raises(OSError):
                io_faults.check("read", "x")
        assert io_faults.active() is None
        assert inj.injected == [("read", 0, "eio", "x")]

    def test_double_arm_rejected(self):
        plan = IOFaultPlan()
        with io_faults.injected(plan):
            with pytest.raises(FaultPlanError, match="already armed"):
                io_faults.arm(plan)

    def test_disarm_returns_injector(self):
        inj = io_faults.arm(IOFaultPlan())
        assert io_faults.disarm() is inj
        assert io_faults.disarm() is None
