"""Federated harvest: directives merged deterministically across stores.

A list of stores (or store paths) harvests each store independently and
unions the directive sets; the result must not depend on store order or
backend, so pooled team archives behave like one big store.
"""

import pytest

from repro import diagnose, harvest
from repro.apps.synthetic import make_pingpong
from repro.core import union_directives
from repro.facade import resolve_history
from repro.storage import ExperimentStore, StoreError

FAST = dict(min_interval=5.0, check_period=0.5, insertion_latency=0.2,
            cost_limit=50.0)


@pytest.fixture(scope="module")
def records():
    return [
        diagnose(make_pingpong(iterations=60), run_id=f"fed-{i}", **FAST)
        for i in range(2)
    ]


@pytest.fixture()
def two_stores(tmp_path, records):
    a = ExperimentStore(tmp_path / "site-a")
    b = ExperimentStore(tmp_path / "site-b")
    a.save(records[0])
    b.save(records[1])
    return a, b


class TestFederatedHarvest:
    def test_union_of_member_harvests(self, two_stores):
        a, b = two_stores
        federated = harvest([a, b], include_thresholds=True)
        expected = union_directives(
            harvest(a, include_thresholds=True),
            harvest(b, include_thresholds=True),
        )
        assert federated.to_text() == expected.to_text()
        assert len(federated) > 0

    def test_store_order_is_irrelevant(self, two_stores):
        a, b = two_stores
        assert harvest([a, b]).to_text() == harvest([b, a]).to_text()

    def test_paths_and_stores_mix(self, two_stores):
        a, b = two_stores
        by_path = harvest([str(a.root), b])
        assert by_path.to_text() == harvest([a, b]).to_text()

    def test_single_member_equals_plain_harvest(self, two_stores):
        a, _b = two_stores
        assert harvest([a]).to_text() == harvest(a).to_text()

    def test_deterministic_across_repeat_calls(self, two_stores):
        a, b = two_stores
        first = harvest([a, b], include_thresholds=True).to_text()
        again = harvest([a, b], include_thresholds=True).to_text()
        assert first == again

    def test_app_filter_applies_per_store(self, two_stores):
        a, b = two_stores
        # no matching history anywhere: only the environment-rule prunes
        # remain, exactly as a single-store harvest would produce
        federated = harvest([a, b], app="ghost")
        assert federated.to_text() == harvest(a, app="ghost").to_text()
        assert federated.priorities == []
        assert federated.thresholds == []

    def test_non_records_still_rejected(self):
        with pytest.raises(TypeError):
            harvest([3.14])

    def test_string_members_are_store_paths(self):
        # A list of strings is a federated harvest; a member path that is
        # not a store on disk fails soft (warned, skipped) and a list
        # whose members all fail raises StoreError.
        with pytest.raises(StoreError, match="every member store failed"):
            with pytest.warns(Warning, match="does not exist"):
                harvest(["not a store, not a record"])


class TestFailSoftFederation:
    """History improves a diagnosis but must never abort one: a sick
    member is skipped with a structured HarvestWarning unless the caller
    opted into strict=True."""

    def test_failed_member_skipped_with_warning(self, tmp_path, two_stores):
        from repro.facade import HarvestWarning

        a, b = two_stores
        dead = tmp_path / "site-dead"
        with pytest.warns(HarvestWarning) as caught:
            federated = harvest([a, str(dead), b], include_thresholds=True)
        expected = harvest([a, b], include_thresholds=True)
        assert federated.to_text() == expected.to_text()
        warning = caught[0].message
        assert warning.member == str(dead)
        assert "does not exist" in str(warning.reason)

    def test_strict_raises_on_any_member_failure(self, tmp_path, two_stores):
        a, b = two_stores
        with pytest.raises(StoreError):
            harvest([a, str(tmp_path / "site-dead"), b], strict=True)

    def test_all_members_failed_raises(self, tmp_path):
        with pytest.raises(StoreError, match="every member store failed"):
            with pytest.warns(Warning):
                harvest([str(tmp_path / "gone-a"), str(tmp_path / "gone-b")])

    def test_resolve_history_skips_failed_sources(self, tmp_path, two_stores):
        a, b = two_stores
        with pytest.warns(Warning):
            merged = resolve_history([a, str(tmp_path / "gone"), b])
        expected = resolve_history([a, b])
        assert merged.to_text() == expected.to_text()

    def test_resolve_history_strict_raises(self, tmp_path, two_stores):
        a, _b = two_stores
        with pytest.raises((StoreError, OSError)):
            resolve_history([a, str(tmp_path / "gone")], strict=True)


class TestResolveHistoryLists:
    def test_store_plus_directive_file(self, tmp_path, two_stores):
        a, b = two_stores
        path = tmp_path / "extra.directives"
        path.write_text(harvest(b).to_text())
        merged = resolve_history([a, path])
        expected = union_directives(harvest(a), harvest(b))
        assert merged.to_text() == expected.to_text()

    def test_empty_list_is_undirected(self):
        assert resolve_history([]) is None

    def test_record_lists_still_extract_directly(self, records):
        merged = resolve_history(list(records))
        assert merged is not None
        assert len(merged) > 0


class TestFederatedCLI:
    def test_repeatable_directives_flag(self, tmp_path, two_stores, capsys):
        from repro.cli import main

        a, b = two_stores
        f1 = tmp_path / "a.directives"
        f2 = tmp_path / "b.directives"
        f1.write_text(harvest(a).to_text())
        f2.write_text(harvest(b).to_text())
        assert main([
            "diagnose", "tester", "--iterations", "5",
            "--directives", str(f1), "--directives", str(f2),
        ]) == 0
        assert "run id" in capsys.readouterr().out

    def test_directives_flag_accepts_store_dirs(self, two_stores, capsys):
        from repro.cli import main

        a, b = two_stores
        assert main([
            "diagnose", "tester", "--iterations", "5",
            "--directives", str(a.root), "--directives", str(b.root),
        ]) == 0
        assert "run id" in capsys.readouterr().out
