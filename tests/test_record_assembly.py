"""``ActiveDiagnosis.result()`` against the record assembly it replaced.

``result()`` reads the Search History Graph in one walk
(``SearchHistoryGraph.tally``); ``tests/reference_record.py`` is the
assembly as it stood before, one walk per figure.  Both assemble the
record of the same finished session here, and the two records must be
the same bytes apart from the wall-clock metrics — over the catalog
apps, undirected and directed by their own harvest, and over crash,
hang, message and slow-node fault plans, degraded, whose graphs carry
``unknown`` and ``never-run`` pairs.  The tally itself is held to the
oracle's walks field by field, the order of the state counts included,
also for a graph loaded from dicts out of node-id order.
"""

import itertools
import json
import random

import pytest

from repro.apps.catalog import CATALOG_APPS, build_catalog_app
from repro.core import DiagnosisSession, SearchConfig, extract_directives
from repro.core.shg import NodeState, SearchHistoryGraph
from repro.faults import FaultPlan
from repro.obs import deterministic_metrics
from repro.resources.focus import whole_program

from tests import reference_record as ref

CONFIGS = {
    "stop": SearchConfig(stop_engine_when_done=True),
    "no-stop": SearchConfig(),
}
FAULTS = {
    "crash": FaultPlan(crash_at={"Poisson:2": 90.0}, max_virtual_time=400.0),
    "hang": FaultPlan(hang_at={"Poisson:3": 120.0}, max_virtual_time=400.0),
    "messages": FaultPlan(seed=3, drop=0.02, duplicate=0.05, delay=0.1,
                          delay_seconds=2.5, max_virtual_time=600.0),
    "slow-node": FaultPlan(slow_nodes={"node09": 3.0}, max_virtual_time=900.0),
}


def canonical(record):
    data = json.loads(json.dumps(record.to_dict()))
    data["metrics"] = deterministic_metrics(data["metrics"])
    return json.dumps(data)


def assert_tally(shg):
    tally = shg.tally()
    times = ref.true_times(shg)
    assert list(tally.states.items()) == list(ref.state_counts(shg).items())
    assert tally.tested == ref.tested_count(shg)
    assert tally.concluded == sum(
        1 for n in shg if n.concluded and n.hypothesis != "TopLevelHypothesis")
    assert tally.coverage == ref.coverage(shg)
    assert tally.first_true == (min(times) if times else None)
    assert tally.last_true == (max(times) if times else None)
    assert tally.nodes == [ref.node_dict(shg.nodes[i]) for i in sorted(shg.nodes)]
    return tally


def assemble(**kwargs):
    """Run one session; both assemblies of its record must agree.
    Returns the record."""
    active = DiagnosisSession(run_id="assembly", **kwargs).begin()
    active.step()
    record = active.result()
    assert canonical(record) == canonical(ref.reference_result(active))
    assert_tally(active.search.shg)
    return record


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("app", CATALOG_APPS)
def test_catalog_records(app, config):
    base = assemble(app=build_catalog_app(app, None, 120), config=CONFIGS[config])
    directed = assemble(app=build_catalog_app(app, None, 120), config=CONFIGS[config],
                        directives=extract_directives(base))
    assert directed.metrics["pairs_concluded"] > 0
    assert directed.metrics["time_to_first_true"] is not None


def test_fault_plans_degraded_records():
    history = extract_directives(DiagnosisSession(
        app=build_catalog_app("poisson", None, 150), config=SearchConfig()).run())
    states, failures = set(), []
    for fault in sorted(FAULTS):
        for config in sorted(CONFIGS):
            for directives in (None, history):
                record = assemble(app=build_catalog_app("poisson", None, 150),
                                  directives=directives, config=CONFIGS[config],
                                  faults=FAULTS[fault], on_failure="degrade")
                states.update(node["state"] for node in record.shg_nodes)
                if record.status == "degraded":
                    failures.append(record.failure)
    # the graphs these records came from are not all clean ones
    assert {"unknown", "never-run", "pruned", "true", "false"} <= states
    assert any(f.startswith("crashed processes") for f in failures)
    assert any(not f.startswith("crashed processes") for f in failures)


def test_graph_loaded_out_of_order():
    record = DiagnosisSession(app=build_catalog_app("poisson", None, 120),
                              config=SearchConfig()).run()
    items = list(record.shg_nodes)
    random.Random(7).shuffle(items)
    shg = SearchHistoryGraph.from_dicts(items)
    assert list(shg.nodes) != sorted(shg.nodes)
    tally = assert_tally(shg)
    assert tally.nodes == record.shg_nodes


def test_hand_built_graph():
    """Every state, with and without a request time: a concluded pair
    the search never instrumented counts as concluded, not as tested."""
    shg = SearchHistoryGraph()
    root, _ = shg.add("TopLevelHypothesis", whole_program())
    root.state, root.t_requested, root.t_concluded = NodeState.TRUE, 0.0, 0.0
    for i, (state, requested) in enumerate(itertools.product(NodeState, (None, 5.0))):
        focus = whole_program().with_selection("Code", f"/Code/m{i}.c")
        node, _ = shg.add("CPUbound", focus, parent=root)
        node.state, node.t_requested, node.t_concluded = state, requested, 50.0 - i
    tally = assert_tally(shg)
    assert tally.concluded == 4 and tally.tested == len(NodeState)


def test_empty_graph():
    tally = assert_tally(SearchHistoryGraph())
    assert (tally.tested, tally.coverage, tally.first_true) == (0, 1.0, None)
