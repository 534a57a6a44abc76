"""Regression tests for search-state correctness fixes.

Covers four historical bugs:

* persistent pairs concluded TRUE could never flip back to FALSE when
  the bottleneck disappeared (the flip logic was one-directional);
* a lost instrumentation sample on an already-concluded pair wiped the
  conclusion to UNKNOWN, silently dropping a confirmed bottleneck from
  extraction;
* ``storage.query._fraction`` resolved resource names by scanning the
  profile tables in a fixed order, so a name shared between hierarchies
  could silently read the wrong table (see ``test_query_dispatch``);
* a High-priority directive on the virtual root hypothesis was started
  as a persistent test and crashed the first tick, which looked up the
  metric the root does not have.
"""

import json

import pytest

import repro
from repro.apps.catalog import build_catalog_app
from repro.core import SearchConfig
from repro.core.search import PerformanceConsultantSearch
from repro.core.shg import NodeState
from repro.metrics import CostModel, InstrumentationManager
from repro.obs import Tracer, deterministic_metrics
from repro.resources import ResourceSpace, whole_program
from repro.simulator import Compute, Engine, LatencyModel, Machine

SYNC = "ExcessiveSyncWaitingTime"
LAT = LatencyModel(alpha=0.0, beta=0.0, send_overhead=0.0, recv_overhead=0.0)
NOISE = 0.04


def build_search():
    eng = Engine(Machine.named("n", 1), latency=LAT)
    space = ResourceSpace()
    space.add("/Code/a.c/f")
    space.add("/Process/p:1")
    space.add("/Machine/n0")

    def prog(proc):
        with proc.function("a.c", "f"):
            for _ in range(40):
                yield Compute(1.0)

    eng.add_process("p:1", "n0", prog)
    config = SearchConfig(
        min_interval=5.0, check_period=0.5, insertion_latency=0.2,
        cost_limit=50.0, noise_band=NOISE,
    )
    instr = InstrumentationManager(
        eng, space, cost_model=CostModel(perturb_per_unit=0.0),
        cost_limit=config.cost_limit, insertion_latency=0.2,
    )
    search = PerformanceConsultantSearch(
        eng, instr, space, config=config, tracer=Tracer(),
    )
    search.start()
    return eng, search


def live_handle(search, node, persistent=False):
    """A real probe for *node*'s pair, the way _expand would request it."""
    metric = search.hypotheses.get(node.hypothesis).metric
    return search.instr.request(metric, node.focus, persistent=persistent)


def persistent_node(search, state):
    node = search.shg.find(SYNC, whole_program(search.space))
    node.persistent = True
    node.state = state
    node.t_concluded = 1.0
    node.value = 0.5
    node.handle = live_handle(search, node, persistent=True)
    # Hand-forced transition: register with the incrementally maintained
    # watch set the way _expand would have.
    search._watch(node)
    return node


def stub_read(search, read):
    """Stub the manager at the seam the evaluation pass reads through:
    ``elapsed`` is asked of every pair a pass evaluates,
    ``normalized_read`` only once a conclusion is due.  *read* maps a
    handle to (fraction, elapsed)."""
    search.instr.normalized_read = read
    search.instr.elapsed = lambda handle: read(handle)[1]


class TestPersistentFlip:
    def test_true_flips_back_to_false(self):
        eng, search = build_search()
        node = persistent_node(search, NodeState.TRUE)
        threshold = search.threshold(SYNC)
        stub_read(search, lambda h: (threshold - NOISE - 0.05, 100.0))
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.FALSE
        assert node.t_concluded == eng.now
        flips = search.tracer.events("node-flip")
        assert len(flips) == 1
        assert flips[0].data["from"] == "true"
        assert flips[0].data["to"] == "false"

    def test_false_flips_to_true(self):
        _, search = build_search()
        node = persistent_node(search, NodeState.FALSE)
        threshold = search.threshold(SYNC)
        stub_read(search, lambda h: (threshold + NOISE + 0.05, 100.0))
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.TRUE

    def test_flip_down_needs_to_clear_noise_band(self):
        """A value hovering just inside the hysteresis band never flips."""
        _, search = build_search()
        node = persistent_node(search, NodeState.TRUE)
        threshold = search.threshold(SYNC)
        stub_read(search, lambda h: (threshold - NOISE / 2, 100.0))
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.TRUE
        assert not search.tracer.events("node-flip")

    def test_flip_up_needs_to_clear_noise_band(self):
        _, search = build_search()
        node = persistent_node(search, NodeState.FALSE)
        threshold = search.threshold(SYNC)
        stub_read(search, lambda h: (threshold + NOISE / 2, 100.0))
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.FALSE

    def test_flip_to_true_refines(self):
        """A re-appearing bottleneck re-enters the refinement frontier."""
        _, search = build_search()
        node = persistent_node(search, NodeState.FALSE)
        threshold = search.threshold(SYNC)
        before = len(list(search.shg))
        stub_read(search, lambda h: (threshold + NOISE + 0.05, 100.0))
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.TRUE
        assert len(list(search.shg)) > before  # children queued


class TestLostSample:
    def raising_read(self, handle):
        raise KeyError(handle)

    def test_concluded_pair_keeps_conclusion(self):
        _, search = build_search()
        node = persistent_node(search, NodeState.TRUE)
        stub_read(search, self.raising_read)
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.TRUE  # conclusion survives
        assert node.quality == "lost instrumentation sample"
        assert node.handle is None  # the watch is gone, though
        lost = search.tracer.events("node-sample-lost")
        assert [e.data["node"] for e in lost] == [node.node_id]
        assert not search.tracer.events("node-unknown")

    def test_concluded_false_pair_also_kept(self):
        _, search = build_search()
        node = persistent_node(search, NodeState.FALSE)
        stub_read(search, self.raising_read)
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.FALSE

    def test_undecided_pair_goes_unknown(self):
        _, search = build_search()
        node = search.shg.find(SYNC, whole_program(search.space))
        node.state = NodeState.ACTIVE
        node.handle = live_handle(search, node)
        search._watch(node)
        stub_read(search, self.raising_read)
        search._evaluate_active(min_interval=5.0)
        assert node.state is NodeState.UNKNOWN
        assert node.quality == "lost instrumentation sample"
        assert search.tracer.events("node-unknown")

    def test_lost_sample_survives_replay(self):
        """The trace round-trips the kept conclusion, not UNKNOWN."""
        from repro.obs import replay_conclusions

        _, search = build_search()
        node = persistent_node(search, NodeState.TRUE)
        # Replay needs the lifecycle prefix the live search would have
        # emitted before our hand-forced conclusion.
        search.tracer.emit(
            "node-concluded", node=node.node_id, state="true",
            value=0.5, threshold=search.threshold(SYNC),
        )
        stub_read(search, self.raising_read)
        search._evaluate_active(min_interval=5.0)
        states = replay_conclusions(search.tracer.events())
        assert states[(SYNC, str(whole_program(search.space)))] == "true"


class TestHighPriorityOnUntestableHypothesis:
    BASE = ("priority high ExcessiveSyncWaitingTime"
            " < /Code/oned.f, /Machine, /Process, /SyncObject >\n")

    def record(self, tmp_path, text):
        path = tmp_path / f"history-{len(list(tmp_path.iterdir()))}.d"
        path.write_text(text)
        record = repro.diagnose(build_catalog_app("poisson", "A", 60),
                                history=str(path), run_id="regression", pool=None)
        data = record.to_dict()
        data["metrics"] = deterministic_metrics(data["metrics"])
        return json.dumps(data, sort_keys=True)

    @pytest.mark.parametrize("hypothesis", ["TopLevelHypothesis", "NoSuchHypothesis"])
    def test_is_skipped(self, tmp_path, hypothesis):
        extra = (f"priority high {hypothesis}"
                 " < /Code/oned.f, /Machine, /Process, /SyncObject >\n")
        assert self.record(tmp_path, self.BASE + extra) \
            == self.record(tmp_path, self.BASE)
