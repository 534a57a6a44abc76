"""Tests for the flat postmortem profiler and ground-truth focus values."""

import pytest

from repro.metrics import FlatProfile
from repro.metrics.profile import ProfileCollector
from repro.resources import ResourceSpace, whole_program
from repro.simulator import Activity, TimeSegment
from tests.reference_delivery import feed


def seg(start, dur, activity, proc="p:1", node="n0", module="m.c", fn="f", tag=None):
    return TimeSegment.make(
        start=start, duration=dur, activity=activity,
        process=proc, node=node, module=module, function=fn, tag=tag,
    )


@pytest.fixture
def profile():
    p = FlatProfile()
    p.add(seg(0, 4.0, Activity.COMPUTE, fn="f"))
    p.add(seg(4, 2.0, Activity.SYNC, fn="g", tag="3/0"))
    p.add(seg(0, 3.0, Activity.COMPUTE, proc="p:2", node="n1", fn="f"))
    p.add(seg(3, 3.0, Activity.SYNC, proc="p:2", node="n1", fn="g", tag="3/1"))
    p.add(seg(6, 1.0, Activity.IO, proc="p:2", node="n1", fn="h"))
    return p


@pytest.fixture
def space():
    s = ResourceSpace()
    for name in (
        "/Code/m.c/f", "/Code/m.c/g", "/Code/m.c/h",
        "/Machine/n0", "/Machine/n1",
        "/Process/p:1", "/Process/p:2",
        "/SyncObject/Message/3/0", "/SyncObject/Message/3/1",
    ):
        s.add(name)
    return s


PLACEMENT = {"p:1": "n0", "p:2": "n1"}


class TestAccumulation:
    def test_totals(self, profile):
        assert profile.totals["compute"] == pytest.approx(7.0)
        assert profile.totals["sync"] == pytest.approx(5.0)
        assert profile.totals["io"] == pytest.approx(1.0)
        assert profile.total_time() == pytest.approx(13.0)

    def test_by_code(self, profile):
        assert profile.by_code["/Code/m.c/f"]["compute"] == pytest.approx(7.0)
        assert profile.by_code["/Code/m.c/g"]["sync"] == pytest.approx(5.0)

    def test_by_tag(self, profile):
        assert profile.by_tag["/SyncObject/Message/3/0"]["sync"] == pytest.approx(2.0)
        assert profile.by_tag["/SyncObject/Message/3/1"]["sync"] == pytest.approx(3.0)

    def test_elapsed_max_end(self, profile):
        assert profile.elapsed == pytest.approx(7.0)

    def test_code_exec_fraction(self, profile):
        assert profile.code_exec_fraction("/Code/m.c/h") == pytest.approx(1.0 / 13.0)
        assert profile.code_exec_fraction("/Code/none") == 0.0

    def test_sync_fraction_by_process(self, profile):
        assert profile.sync_fraction_by_process("/Process/p:1") == pytest.approx(2.0 / 6.0)
        assert profile.sync_fraction_by_process("/Process/none") == 0.0


class TestFocusTruth:
    def test_whole_program_sync_fraction(self, profile, space):
        wp = whole_program(space)
        # 5s sync / (7s elapsed x 2 procs)
        assert profile.focus_fraction(wp, ("sync",), PLACEMENT) == pytest.approx(5.0 / 14.0)

    def test_process_constrained(self, profile, space):
        f = whole_program(space).with_selection("Process", "/Process/p:2")
        assert profile.focus_fraction(f, ("sync",), PLACEMENT) == pytest.approx(3.0 / 7.0)

    def test_tag_constrained(self, profile, space):
        f = whole_program(space).with_selection("SyncObject", "/SyncObject/Message/3/0")
        assert profile.focus_value(f, ("sync",)) == pytest.approx(2.0)

    def test_tag_family(self, profile, space):
        f = whole_program(space).with_selection("SyncObject", "/SyncObject/Message/3")
        assert profile.focus_value(f, ("sync",)) == pytest.approx(5.0)

    def test_conjunction(self, profile, space):
        f = (
            whole_program(space)
            .with_selection("Code", "/Code/m.c/g")
            .with_selection("Process", "/Process/p:1")
        )
        assert profile.focus_value(f, ("sync",)) == pytest.approx(2.0)

    def test_conflicting_focus_zero(self, profile, space):
        f = (
            whole_program(space)
            .with_selection("Machine", "/Machine/n0")
            .with_selection("Process", "/Process/p:2")
        )
        assert profile.focus_fraction(f, ("sync",), PLACEMENT) == 0.0


class TestSerialization:
    def test_roundtrip(self, profile, space):
        clone = FlatProfile.from_dict(profile.to_dict())
        assert clone.totals == profile.totals
        assert clone.elapsed == profile.elapsed
        wp = whole_program(space)
        assert clone.focus_fraction(wp, ("sync",), PLACEMENT) == pytest.approx(
            profile.focus_fraction(wp, ("sync",), PLACEMENT)
        )

    def test_collector_wraps_profile(self):
        pc = ProfileCollector()
        feed(pc, seg(0, 1.0, Activity.COMPUTE))
        assert pc.profile.totals["compute"] == pytest.approx(1.0)
