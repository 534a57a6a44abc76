"""A summary's observed values are the harvest's buckets, already folded.

``summarize_record`` and ``postmortem_summary`` keep, per hypothesis,
the run's largest value in each ``round(v, 4)`` bucket in first-seen
bucket order — the rule ``HarvestAggregate.fold_summary`` applies.  So
folding those maxima must give exactly the aggregate that folding every
raw value gives (same buckets, same maxima, same insertion order, same
thresholds, same serialized bytes), and a store whose older entries
still hold every value harvests to the same directives as one that
does not.  Values are fractions of time, never negative, and so are the
values drawn here.
"""

import math

from hypothesis import given, settings, strategies as st

import repro
from repro.apps.catalog import build_catalog_app
from repro.core.extraction import HarvestAggregate
from repro.storage import ExperimentStore
from repro.storage import summary as summary_module
from repro.storage.summary import bucket_maxima, summarize_record
from tests.reference_extraction import (
    facts_of_record,
    reference_bucket_maxima,
    reference_directives,
)

HYPS = ("CPUbound", "ExcessiveSyncWaitingTime", "ExcessiveIOBlockingTime")

# -- strategies ---------------------------------------------------------------
#: ``(k + 0.5) / 10**4``: a value on a 4-decimal half-way point, and its
#: neighbours one ulp either side.
half_way = st.integers(0, 9999).map(lambda k: (k + 0.5) / 10**4).flatmap(
    lambda v: st.sampled_from([v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]))
value = st.one_of(
    st.just(0.0),
    half_way,
    st.floats(0.0, 1.0, allow_nan=False),
    # a few buckets, many values each: ties and near-ties at the maximum
    st.integers(0, 40).map(lambda k: 0.3 + k * 1e-6),
)
# a small drawn pool reused within a run makes exact ties likely
run_values = st.lists(value, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30))
runs = st.lists(
    st.dictionaries(st.sampled_from(HYPS), run_values, max_size=len(HYPS)),
    min_size=1, max_size=5,
)


def _summary(hyp_values):
    return {
        "machine_nodes": 2, "n_processes": 2,
        "true_pairs": [], "false_pairs": [],
        "code_leaves": [], "code_exec_fractions": {},
        "hyp_values": hyp_values,
    }


def _bucket_order(agg):
    return {h: list(buckets.items()) for h, buckets in agg.hyp_values.items()}


@settings(max_examples=300, deadline=None)
@given(runs)
def test_folding_bucket_maxima_equals_folding_every_value(raw_runs):
    raw = HarvestAggregate.of_summaries(_summary(r) for r in raw_runs)
    bucketed_runs = [bucket_maxima(r) for r in raw_runs]
    bucketed = HarvestAggregate.of_summaries(_summary(r) for r in bucketed_runs)
    assert bucketed == raw
    assert bucketed.same_evidence(raw)
    assert _bucket_order(bucketed) == _bucket_order(raw)
    assert bucketed.thresholds() == raw.thresholds()
    assert bucketed.to_json() == raw.to_json()
    for run, kept in zip(raw_runs, bucketed_runs):
        assert kept == {h: reference_bucket_maxima(v) for h, v in run.items()}


@given(runs, runs)
def test_old_and_new_entries_fold_alike_in_any_mix(first, second):
    """Raw lists and bucketed lists interleave in one fold: an older
    store's entries need no conversion."""
    mixed = [_summary(r) for r in first] + [_summary(bucket_maxima(r)) for r in second]
    raw = [_summary(r) for r in first + second]
    assert HarvestAggregate.of_summaries(mixed).to_json() \
        == HarvestAggregate.of_summaries(raw).to_json()


def _diagnose(version):
    return repro.diagnose(build_catalog_app("poisson", version, 120))


def test_store_with_raw_entries_and_new_saves_harvests_as_the_reference(
        tmp_path, monkeypatch):
    """Two runs saved as older code saved them (every concluded value),
    a harvest that persists their aggregate, then two saved as now: the
    harvest over all four is the reference's over the records."""
    records = [_diagnose(v) for v in "ABCD"]
    store = ExperimentStore(tmp_path / "runs")
    with monkeypatch.context() as old_code:
        old_code.setattr(summary_module, "bucket_maxima", lambda values: values)
        for record in records[:2]:
            store.save(record)
    options = {"include_thresholds": True}
    early = repro.harvest(tmp_path / "runs", pool=None, **options)
    assert early.to_text() == reference_directives(
        [facts_of_record(r) for r in records[:2]], **options).to_text()
    for record in records[2:]:
        store.save(record)

    metas = ExperimentStore(tmp_path / "runs").summaries().values()
    stored = [meta["summary"] for meta in metas]
    raw_lengths = [len(s["hyp_values"]["ExcessiveSyncWaitingTime"]) for s in stored]
    new_lengths = [len(summarize_record(r)["hyp_values"]["ExcessiveSyncWaitingTime"])
                   for r in records]
    assert all(old > new for old, new in zip(raw_lengths[:2], new_lengths))
    assert raw_lengths[2:] == new_lengths[2:]

    want = reference_directives([facts_of_record(r) for r in records], **options)
    assert repro.harvest(tmp_path / "runs", pool=None, **options).to_text() \
        == want.to_text()
    assert HarvestAggregate.of_summaries(stored) \
        == HarvestAggregate.of_summaries(summarize_record(r) for r in records)


def test_scrub_finds_a_store_with_raw_entries_clean(tmp_path, monkeypatch):
    """Entries saved as older code saved them hold every value; a
    recompute holds the bucket maxima.  Both fold alike, so ``store
    verify`` reports neither as divergent, and a stale entry still is."""
    records = [_diagnose(v) for v in "AB"]
    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    with monkeypatch.context() as old_code:
        old_code.setattr(summary_module, "bucket_maxima", lambda values: values)
        store.save(records[0])
    store.save(records[1])
    raw = store.summary(records[0].run_id)["hyp_values"]
    assert raw != summarize_record(records[0])["hyp_values"]

    report = ExperimentStore(tmp_path / "runs", cache_size=0).verify()
    assert report.clean and report.ok == 2, str(report)

    store.compact()
    merged = store.backend.read_merged()
    stale = dict(merged[records[0].run_id])
    stale["summary"] = dict(stale["summary"], hyp_values=summarize_record(
        records[1])["hyp_values"])
    store.backend._write_base(dict(merged, **{records[0].run_id: stale}))
    report = ExperimentStore(tmp_path / "runs", cache_size=0).verify()
    assert report.summary_divergent == [records[0].run_id]
