"""A harvested directive set is its text-keyed tables; its lists are views.

``HarvestAggregate.finalize`` hands ``DirectiveSet.from_tables`` the
sorted ``(hypothesis, focus text)`` pairs and builds no directive object
for a pair.  What the search reads — ``len``, ``is_empty``,
``resource_names``, ``high_priority_pairs``, ``screen`` — comes from the
tables alone, and the ``priorities``/``pair_prunes`` lists are built on
first read.  The oracle is the eager set: ``tests/reference_extraction.py``
builds every directive object of the same history up front through the
ordinary constructor.  Every answer must be equal, for random histories
under every option combination, and no answer of the search's may build
a list.  Threads that race on a fresh set's first read get equal lists.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.core.directives import DirectiveSet, PairPruneDirective, PriorityDirective
from repro.core.extraction import HarvestAggregate
from repro.core.shg import Priority
from repro.resources.focus import Focus, parse_focus
from tests.reference_extraction import reference_directives
from tests.test_names_focus_oracle import HIERARCHIES, UNIVERSE, oracle_resource_names

HYPS = ("CPUbound", "ExcessiveSyncWaitingTime", "ExcessiveIOBlockingTime")
INCLUDES = ("include_priorities", "include_general_prunes",
            "include_historic_prunes", "include_pair_prunes",
            "include_thresholds")
FUNCTIONS = [n for n in UNIVERSE if n.startswith("/Code/") and n.count("/") == 3]


def _names_in(hierarchy):
    return st.sampled_from([n for n in UNIVERSE if n.split("/")[1] == hierarchy])


@st.composite
def printed_foci(draw):
    """A focus as history holds it: the printed form of a real focus,
    over some or all of the hierarchies."""
    chosen = draw(st.lists(st.sampled_from(HIERARCHIES), min_size=1,
                           max_size=4, unique=True))
    return str(Focus({h: draw(_names_in(h)) for h in chosen}))


pairs = st.lists(st.tuples(st.sampled_from(HYPS), printed_foci()), max_size=8)


@st.composite
def summaries(draw):
    """One run's summary with every key the harvest reads; true and
    false pairs drawn from one small universe, so they overlap."""
    leaves = draw(st.lists(st.sampled_from(FUNCTIONS), unique=True))
    return {
        "machine_nodes": draw(st.sampled_from([2, 4])),
        "n_processes": draw(st.sampled_from([2, 4])),
        "true_pairs": draw(pairs),
        "false_pairs": draw(pairs),
        "code_leaves": leaves,
        "code_exec_fractions": {
            name: draw(st.sampled_from([0.0, 0.001, 0.2])) for name in leaves},
        "hyp_values": draw(st.dictionaries(
            st.sampled_from(HYPS), st.lists(st.floats(0.0, 1.0), min_size=1,
                                            max_size=4))),
    }


options = st.builds(
    lambda flags, fraction: {**dict(zip(INCLUDES, flags)),
                             "min_exec_fraction": fraction},
    st.tuples(*[st.booleans()] * len(INCLUDES)),
    st.sampled_from([0.005, 0.05]),
)


def _high(directives):
    return [p for p in directives.priorities if p.level is Priority.HIGH]


@settings(max_examples=300, deadline=None)
@given(st.lists(summaries(), max_size=4), options,
       st.lists(st.tuples(st.sampled_from(HYPS), printed_foci()), max_size=6))
def test_tables_answer_as_the_eager_set(runs, opts, strangers):
    lazy = HarvestAggregate.of_summaries(runs).finalize(**opts)
    eager = reference_directives(runs, **opts)
    # what the search and mapping read, before any list exists
    assert len(lazy) == len(eager)
    assert lazy.is_empty() == eager.is_empty()
    assert lazy.resource_names == oracle_resource_names(eager)
    assert lazy.high_priority_pairs() == _high(eager)
    asked = {tuple(p) for run in runs for p in run["true_pairs"] + run["false_pairs"]}
    for hyp, text in sorted(asked | set(strangers)):
        focus = parse_focus(text)
        assert lazy.screen((hyp, text), focus) == eager.screen((hyp, text), focus)
        assert lazy.priority_of(hyp, focus) == eager.priority_of(hyp, focus)
    assert lazy._priorities is None and lazy._pair_prunes is None
    # the lists, built on first read: equal objects in equal order
    assert lazy.priorities == eager.priorities
    assert lazy.pair_prunes == eager.pair_prunes
    assert all(type(p) is PriorityDirective for p in lazy.priorities)
    assert all(type(p) is PairPruneDirective for p in lazy.pair_prunes)
    assert lazy.priorities is lazy.priorities
    assert (lazy.prunes, lazy.thresholds, lazy.maps) \
        == (eager.prunes, eager.thresholds, eager.maps)
    assert lazy.to_text() == eager.to_text()
    # the High pairs are kept on the set, and still agree with its list
    assert lazy.high_priority_pairs() is lazy.high_priority_pairs()
    assert lazy.high_priority_pairs() == _high(lazy)


def test_a_set_built_from_objects_keeps_them():
    """Duplicates and a pair both High and Low stay in the lists as
    given; the tables keep the last level, as the search always read."""
    focus = parse_focus("< /Code/a.c, /Machine >")
    high = PriorityDirective("CPUbound", focus, Priority.HIGH)
    low = PriorityDirective("CPUbound", focus, Priority.LOW)
    prune = PairPruneDirective("CPUbound", focus)
    directives = DirectiveSet(pair_prunes=[prune, prune], priorities=[high, low, high])
    assert directives.priorities == [high, low, high]
    assert directives.priorities[0] is high
    assert directives.pair_prunes == [prune, prune]
    assert len(directives) == 5
    assert directives.high_priority_pairs() == [high, high]
    assert directives.priority_of("CPUbound", focus) is Priority.HIGH
    assert directives.resource_names == ("/Code/a.c", "/Machine")


def test_racing_first_reads_get_equal_lists():
    runs = [{
        "machine_nodes": 2, "n_processes": 4,
        "true_pairs": [("CPUbound", str(Focus({"Code": f}))) for f in FUNCTIONS],
        "false_pairs": [(h, str(Focus({"Code": f, "Machine": m})))
                        for h in HYPS for f in FUNCTIONS
                        for m in ("/Machine/n0", "/Machine/n1")],
        "code_leaves": FUNCTIONS, "code_exec_fractions": {}, "hyp_values": {},
    }]
    evidence = HarvestAggregate.of_summaries(runs)
    want = reference_directives(runs).priorities
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            directives = evidence.finalize()
            barrier = threading.Barrier(6)
            got = []

            def read():
                barrier.wait()
                got.append(directives.priorities)

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(got) == 6
            assert all(view == want for view in got)
            assert directives.priorities == want
    finally:
        sys.setswitchinterval(interval)
