"""Hierarchy-prefix dispatch in cross-execution resource queries.

Regression coverage for the old ``_fraction`` behaviour of scanning the
profile tables in a fixed order: a process that shared its name with a
node (or tag) silently read whichever table happened to come first.
The queries answer from index summaries (``_summary_fraction``); the
record-route ``_fraction`` below is the oracle they are held to.
"""

import pytest

from repro.storage.query import (
    AmbiguousResourceError,
    _lookup,
    _summary_fraction,
    best_run,
    bottleneck_persistence,
    resource_history,
)
from repro.storage.records import RunRecord
from repro.storage.store import ExperimentStore, summarize_record


def _fraction(record: RunRecord, resource: str, activity: str) -> float:
    """Fraction of total execution time *resource* spent in *activity*,
    read off the record's full profile."""
    profile = record.flat_profile()
    total = profile.total_time()
    if total <= 0:
        return 0.0
    tables = {
        "Code": profile.by_code,
        "Process": profile.by_process,
        "Machine": profile.by_node,
        "SyncObject": profile.by_tag,
    }
    entry = _lookup(tables, resource)
    return (entry or {}).get(activity, 0.0) / total


def make_record(run_id="r1", by_code=None, by_process=None, by_node=None,
                by_tag=None, total=10.0):
    return RunRecord(
        run_id=run_id, app_name="app", version="1", n_processes=1,
        nodes=["n0"], placement={},
        hierarchies={"Code": [], "Process": [], "Machine": [], "SyncObject": []},
        shg_nodes=[],
        profile={
            "by_code": by_code or {},
            "by_process": by_process or {},
            "by_node": by_node or {},
            "by_tag": by_tag or {},
            "totals": {"compute": total},
            "elapsed": total,
        },
        finish_time=total, search_done_time=None,
        pairs_tested=0, total_requests=0, peak_cost=0.0,
    )


# A name collision: "alpha" is both a process and a machine node, with
# different sync costs.  A fixed-order scan always returns the process
# figure, whichever hierarchy was asked about.
COLLIDING = make_record(
    by_process={"/Process/alpha": {"sync": 5.0}},
    by_node={"/Machine/alpha": {"sync": 1.0}},
)


class TestPathDispatch:
    def test_prefix_selects_the_right_table(self):
        assert _fraction(COLLIDING, "/Process/alpha", "sync") == pytest.approx(0.5)
        assert _fraction(COLLIDING, "/Machine/alpha", "sync") == pytest.approx(0.1)

    def test_unknown_hierarchy_is_zero(self):
        assert _fraction(COLLIDING, "/Widget/alpha", "sync") == 0.0

    def test_missing_resource_is_zero(self):
        assert _fraction(COLLIDING, "/Process/beta", "sync") == 0.0

    def test_foreign_profile_bare_key_fallback(self):
        # Foreign profiles sometimes key tables by bare names; the path's
        # last component still resolves inside the dispatched table only.
        record = make_record(
            by_process={"alpha": {"sync": 5.0}},
            by_node={"alpha": {"sync": 1.0}},
        )
        assert _fraction(record, "/Machine/alpha", "sync") == pytest.approx(0.1)
        assert _fraction(record, "/Process/alpha", "sync") == pytest.approx(0.5)

    def test_qualified_miss_never_matches_unrelated_bare_key(self):
        # Regression: the table is path-keyed (a native profile), so a
        # fully-qualified path that misses must NOT silently resolve
        # against a bare-keyed entry for a *different* resource.
        record = make_record(
            by_node={"/Machine/node0": {"sync": 1.0}, "alpha": {"sync": 5.0}},
        )
        assert _fraction(record, "/Machine/alpha", "sync") == 0.0
        # the path-keyed entry itself still resolves
        assert _fraction(record, "/Machine/node0", "sync") == pytest.approx(0.1)


class TestBareNames:
    def test_unambiguous_bare_name_resolves(self):
        record = make_record(by_code={"main": {"compute": 2.0}})
        assert _fraction(record, "main", "compute") == pytest.approx(0.2)

    def test_ambiguous_bare_name_raises(self):
        record = make_record(
            by_process={"alpha": {"sync": 5.0}},
            by_node={"alpha": {"sync": 1.0}},
        )
        with pytest.raises(AmbiguousResourceError, match="alpha"):
            _fraction(record, "alpha", "sync")

    def test_unknown_bare_name_is_zero(self):
        assert _fraction(COLLIDING, "nonesuch", "sync") == 0.0

    def test_zero_total_short_circuits(self):
        record = make_record(total=0.0)
        assert _fraction(record, "anything", "sync") == 0.0


class TestResourceHistory:
    def test_history_uses_dispatch(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(COLLIDING)
        history = resource_history(store, "/Machine/alpha", activity="sync")
        assert history.values() == [pytest.approx(0.1)]


TRUE_NODE = {
    "id": 0, "hypothesis": "CPUbound",
    "focus": "< /Code/a.c/f, /Machine, /Process, /SyncObject >",
    "state": "true", "priority": "medium", "persistent": False,
    "value": 0.4, "t_requested": 0.0, "t_concluded": 1.0,
    "quality": None, "parents": [], "children": [],
}


class TestSummaryFraction:
    def test_matches_record_fraction(self):
        summary = summarize_record(COLLIDING)
        for resource in (
            "/Process/alpha", "/Machine/alpha", "/Process/beta",
            "/Widget/alpha", "nonesuch",
        ):
            assert _summary_fraction(summary, resource, "sync") == (
                pytest.approx(_fraction(COLLIDING, resource, "sync"))
            )

    def test_ambiguous_bare_name_raises_from_summary(self):
        record = make_record(
            by_process={"alpha": {"sync": 5.0}},
            by_node={"alpha": {"sync": 1.0}},
        )
        with pytest.raises(AmbiguousResourceError, match="alpha"):
            _summary_fraction(summarize_record(record), "alpha", "sync")


class TestIndexAnsweredQueries:
    """The cross-run queries answer from the index, parsing no records."""

    @pytest.fixture()
    def store(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record(run_id="q1", by_code={"/Code/a.c/f": {"compute": 4.0}}))
        rec = make_record(run_id="q2", by_code={"/Code/a.c/f": {"compute": 6.0}})
        rec.shg_nodes = [TRUE_NODE]
        rec.finish_time = 5.0
        store.save(rec)
        # a fresh instance with record loading forbidden: every query
        # below must be served by the index summaries alone
        fresh = ExperimentStore(tmp_path / "runs")
        fresh.load = lambda run_id: pytest.fail(
            f"query deserialized record {run_id!r}"
        )
        return fresh

    def test_bottleneck_persistence_from_index(self, store):
        counts = bottleneck_persistence(store)
        assert counts == {
            ("CPUbound", "< /Code/a.c/f, /Machine, /Process, /SyncObject >"): 1
        }

    def test_resource_history_from_index(self, store):
        history = resource_history(store, "/Code/a.c/f", activity="compute")
        assert history.points == (
            ("q1", pytest.approx(0.4)), ("q2", pytest.approx(0.6)),
        )


class TestBestRunStringKey:
    def test_string_key_loads_only_the_winner(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record(run_id="slow", total=20.0))
        store.save(make_record(run_id="fast", total=2.0))
        fresh = ExperimentStore(tmp_path / "runs")
        loaded = []
        original = ExperimentStore.load
        fresh.load = lambda run_id: loaded.append(run_id) or original(fresh, run_id)
        assert best_run(fresh, "duration").run_id == "fast"
        assert loaded == ["fast"]

    def test_string_key_matches_callable(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(make_record(run_id="slow", total=20.0))
        store.save(make_record(run_id="fast", total=2.0))
        by_name = best_run(store, "duration", minimize=True)
        by_call = best_run(store, lambda r: r.finish_time, minimize=True)
        assert by_name.run_id == by_call.run_id == "fast"

    def test_unknown_string_key_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        with pytest.raises(ValueError, match="unknown summary metric"):
            best_run(store, "vibes")
