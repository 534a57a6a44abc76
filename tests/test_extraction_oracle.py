"""The one extraction route against the naive reference, on diagnosed runs.

``tests/reference_extraction.py`` restates the Section 3 rules as plain
scans over per-run facts read straight off each record.  Here the
production pipeline (record -> ``summarize_record`` ->
``HarvestAggregate`` -> ``finalize()``) is held to it over real record
groups — one app twice, two program versions mixed, other apps, no runs
at all — under all 32 ``include_*`` combinations and two
``min_exec_fraction`` values, and mechanism by mechanism through the
record-taking ``extract_*`` names.  (``test_harvest_aggregate.py`` feeds
the same reference synthetic summaries, where the awkward values live.)
"""

import itertools

import pytest

from repro.apps.catalog import build_catalog_app
from repro.core import (
    SearchConfig,
    extended_tree,
    extract_directives,
    extract_general_prunes,
    extract_historic_prunes,
    extract_pair_prunes,
    extract_priorities,
    extract_thresholds,
    run_diagnosis,
)
from repro.storage.summary import summarize_record
from tests import reference_extraction as ref

INCLUDES = ("include_priorities", "include_general_prunes",
            "include_historic_prunes", "include_pair_prunes",
            "include_thresholds")
GROUPS = ("poisson_a_twice", "poisson_a_a_b", "ocean", "tester", "empty")


def _run(name, version=None, iterations=150, **config):
    return run_diagnosis(
        build_catalog_app(name, version, iterations),
        config=SearchConfig(stop_engine_when_done=True, **config),
    )


@pytest.fixture(scope="module")
def groups():
    a1 = _run("poisson", "A")
    a2 = _run("poisson", "A", iterations=220, noise_band=0.0)
    out = {
        "poisson_a_twice": [a1, a2],
        "poisson_a_a_b": [a1, a2, _run("poisson", "B")],
        "ocean": [_run("ocean", iterations=60)],
        "tester": [_run("tester", iterations=40)],
        "empty": [],
    }
    assert a1.true_pairs() and a1.false_pairs()
    return out


def _facts(records):
    return [ref.facts_of_record(r) for r in records]


@pytest.mark.parametrize("group", GROUPS)
def test_every_option_combination_matches_the_reference(groups, group):
    records = groups[group]
    facts = _facts(records)
    for flags in itertools.product((True, False), repeat=len(INCLUDES)):
        for fraction in (0.005, 0.05):
            options = dict(zip(INCLUDES, flags), min_exec_fraction=fraction)
            assert extract_directives(records, **options).to_text() == \
                ref.reference_directives(facts, **options).to_text(), options


@pytest.mark.parametrize("group", GROUPS)
def test_each_mechanism_matches_the_reference(groups, group):
    records = groups[group]
    facts = _facts(records)
    tree = extended_tree()
    assert extract_priorities(records) == ref.reference_priorities(facts)
    assert extract_pair_prunes(records) == ref.reference_pair_prunes(facts)
    for fraction in (0.0, 0.005, 0.05, 2.0):
        assert extract_historic_prunes(records, fraction) == \
            ref.reference_historic_prunes(facts, fraction), fraction
    for hypotheses in (None, tree):
        assert extract_thresholds(records, hypotheses) == \
            ref.reference_thresholds(facts, hypotheses)
        first = records[0] if records else None
        assert extract_general_prunes(first, hypotheses) == \
            ref.reference_general_prunes(facts[:1], hypotheses)


@pytest.mark.parametrize("group", GROUPS)
def test_summary_step_keeps_the_facts(groups, group):
    """What ``summarize_record`` stores is what the record says: the
    facts the reference reads itself, key by key (fractions only for the
    functions that ran; a missing one reads as zero on both sides)."""
    for record in groups[group]:
        summary, facts = summarize_record(record), ref.facts_of_record(record)
        for key, value in facts.items():
            got = summary[key]
            if key.endswith("_pairs"):
                got = [tuple(pair) for pair in got]
            assert got == value, (record.run_id, key)


def test_record_order_only_moves_the_environment(groups):
    """The aggregate is a fold over an *ordered* run sequence; the only
    rule that reads the order is the general prune (first run's
    environment), and these runs share one."""
    records = groups["poisson_a_a_b"]
    forward = extract_directives(records, include_thresholds=True)
    backward = extract_directives(records[::-1], include_thresholds=True)
    assert forward.to_text() == backward.to_text()
