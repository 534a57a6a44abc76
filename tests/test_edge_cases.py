"""Edge-case tests across modules: the awkward inputs and corners."""

import json

import pytest

from repro.apps.synthetic import make_compute_app, make_pingpong
from repro.core import (
    DirectiveSet,
    PruneDirective,
    SearchConfig,
    run_diagnosis,
)
from repro.metrics import CostModel
from repro.resources import whole_program
from repro.simulator import (
    ANY_SOURCE,
    Activity,
    Compute,
    Engine,
    LatencyModel,
    Machine,
    Mailbox,
    Message,
    Recv,
    Send,
)
from repro.storage import ExperimentStore, RunRecord

LAT = LatencyModel(alpha=0.0, beta=0.0, send_overhead=0.0, recv_overhead=0.0)
FAST = SearchConfig(min_interval=5.0, check_period=0.5, insertion_latency=0.2, cost_limit=50.0)


class TestMailboxCorners:
    def msg(self, src="a", tag="t/0", arrival=1.0):
        return Message(src=src, dest="b", tag=tag, size=0, send_time=0.0,
                       arrival_time=arrival)

    def test_wildcard_prefers_earliest_arrival(self):
        box = Mailbox()
        box.deliver(self.msg(src="x", arrival=5.0))
        box.deliver(self.msg(src="y", arrival=2.0))
        first = box.match(ANY_SOURCE, "t/0")
        assert first.src == "y"

    def test_specific_source_skips_others(self):
        box = Mailbox()
        box.deliver(self.msg(src="x"))
        assert box.match("y", "t/0") is None
        assert box.match("x", "t/0") is not None

    def test_peek_does_not_consume(self):
        box = Mailbox()
        box.deliver(self.msg())
        assert box.peek("a", "t/0")
        assert len(box) == 1

    def test_pending_snapshot(self):
        box = Mailbox()
        box.deliver(self.msg())
        snap = box.pending()
        box.match("a", "t/0")
        assert len(snap) == 1 and len(box.pending()) == 0


class TestEngineCorners:
    def test_zero_compute_allowed(self):
        eng = Engine(Machine.named("n", 1), latency=LAT)

        def prog(proc):
            with proc.function("m", "f"):
                yield Compute(0.0)
                yield Compute(1.0)

        eng.add_process("p", "n0", prog)
        assert eng.run() == pytest.approx(1.0)

    def test_empty_program(self):
        eng = Engine(Machine.named("n", 1), latency=LAT)

        def prog(proc):
            return
            yield  # pragma: no cover

        eng.add_process("p", "n0", prog)
        assert eng.run() == pytest.approx(0.0)

    def test_no_function_frame_attribution(self):
        from repro.simulator import TraceCollector

        eng = Engine(Machine.named("n", 1), latency=LAT)
        tc = TraceCollector()
        eng.add_sink(tc)

        def prog(proc):
            yield Compute(1.0)  # outside any function frame

        eng.add_process("p", "n0", prog)
        eng.run()
        assert tc.segments[0].function == "<toplevel>"

    def test_self_send_receive(self):
        eng = Engine(Machine.named("n", 1), latency=LAT)

        def prog(proc):
            with proc.function("m", "f"):
                yield Send("p", "t/0", 0)
                yield Recv("p", "t/0")

        eng.add_process("p", "n0", prog)
        assert eng.run() >= 0.0

    def test_placement_unknown_node(self):
        eng = Engine(Machine.named("n", 1), latency=LAT)

        def prog(proc):
            yield Compute(1.0)

        with pytest.raises(ValueError):
            eng.add_process("p", "ghost-node", prog)


class TestSearchCorners:
    def test_single_process_single_function_app(self):
        app = make_compute_app({("only.c", "work"): 1.0}, iterations=30)
        rec = run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))
        assert rec.bottleneck_count() > 0

    def test_everything_pruned_still_terminates(self):
        app = make_pingpong(iterations=40)
        ds = DirectiveSet(prunes=[
            PruneDirective("*", "/Code"),
            PruneDirective("*", "/Machine"),
            PruneDirective("*", "/Process"),
            PruneDirective("*", "/SyncObject"),
        ])
        rec = run_diagnosis(app, directives=ds, config=FAST,
                            cost_model=CostModel(perturb_per_unit=0.0))
        # only the whole-program tests could run
        assert rec.pairs_tested <= 3
        assert rec.search_done_time is not None

    def test_zero_iteration_app(self):
        app = make_compute_app({("m.c", "f"): 0.5}, iterations=0)
        rec = run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))
        # instantly-finished program: nothing concluded, nothing crashes
        assert rec.bottleneck_count() == 0
        assert rec.finish_time == pytest.approx(0.0)

    def test_duplicate_directives_harmless(self):
        app = make_pingpong(iterations=40)
        prune = PruneDirective("*", "/Machine")
        ds = DirectiveSet(prunes=[prune, prune, prune])
        rec = run_diagnosis(app, directives=ds, config=FAST,
                            cost_model=CostModel(perturb_per_unit=0.0))
        assert rec.pairs_tested > 0


class TestStorageCorners:
    def test_unicode_run_id(self, tmp_path):
        app = make_pingpong(iterations=20)
        rec = run_diagnosis(app, config=FAST, run_id="run-ü-1",
                            cost_model=CostModel(perturb_per_unit=0.0))
        store = ExperimentStore(tmp_path)
        store.save(rec)
        assert store.load("run-ü-1").run_id == "run-ü-1"

    def test_index_survives_manual_record_deletion(self, tmp_path):
        app = make_pingpong(iterations=20)
        rec = run_diagnosis(app, config=FAST, run_id="r1",
                            cost_model=CostModel(perturb_per_unit=0.0))
        store = ExperimentStore(tmp_path)
        store.save(rec)
        (tmp_path / "r1.json").unlink()  # file gone, index stale
        # ``in`` answers from the index, as list() does, until a rebuild
        assert "r1" in store and store.list() == ["r1"]
        from repro.storage import StoreError

        with pytest.raises(StoreError):
            store.load("r1")
        store.rebuild_index()
        assert "r1" not in store and store.list() == []

    def test_record_json_is_plain(self, tmp_path):
        app = make_pingpong(iterations=20)
        rec = run_diagnosis(app, config=FAST, cost_model=CostModel(perturb_per_unit=0.0))
        # every value in the record dict must be JSON-serialisable
        text = json.dumps(rec.to_dict())
        assert RunRecord.from_dict(json.loads(text)).pairs_tested == rec.pairs_tested


class TestFocusCornerCases:
    def test_matches_parts_empty_segment(self):
        wp = whole_program()
        assert wp.matches_parts({})

    def test_deep_focus_against_shallow_segment(self):
        f = whole_program().with_selection("Code", "/Code/a.c/f")
        assert not f.matches_parts({"Code": ("Code", "a.c")})
