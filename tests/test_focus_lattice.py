"""One search lattice per process.

``Focus.refine``/``Focus.children`` hand out a parent's children from a
process-wide table keyed by value — the parent's text, the hierarchy and
the resource node's child labels in order — so every session of an app
walks the same child objects.  ``DirectiveSet.screen`` keeps its verdict
per ``(hypothesis, focus text)`` on the set.  The oracle for both is the
uncached derivation: :func:`tests.reference_search.derive_children`
(the validating ``Focus(dict)`` constructor over the space's own
children) and the scan :func:`tests.reference_search.is_pruned` plus the
priority lookup.
"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: the ``tests`` package sits at the repo root
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.apps.catalog import build_catalog_app
from repro.core import DiagnosisSession, DirectiveSet, SearchConfig, extract_directives
from repro.core import directives as directives_mod
from repro.core.directives import ANY_HYPOTHESIS
from repro.core.hypotheses import standard_tree
from repro.core.shg import Priority
from repro.obs import deterministic_metrics
from repro.resources import ResourceSpace, whole_program
from repro.resources import focus as focus_mod
from repro.resources.focus import Focus, parse_focus

from tests.reference_search import derive_children, is_pruned  # noqa: E402


@pytest.fixture
def fresh_table(monkeypatch):
    """The child and parse tables empty at their default caps."""
    monkeypatch.setattr(focus_mod, "_CHILD_TABLE", {})
    monkeypatch.setattr(focus_mod, "_FOCUS_TABLE", {})


def lattice(space, depth=2):
    """The foci within *depth* refinement steps of the whole program,
    in breadth-first order, each once."""
    seen = {}
    frontier = [whole_program(space)]
    for _ in range(depth + 1):
        nxt = []
        for focus in frontier:
            if focus not in seen:
                seen[focus] = None
                nxt.extend(derive_children(focus, space))
        frontier = nxt
    return list(seen)


def space_of(code):
    """A space whose Code hierarchy is *code*: module -> functions, in
    insertion order."""
    space = ResourceSpace()
    for module, functions in code.items():
        for fn in functions:
            space.add(f"/Code/{module}/{fn}")
    space.add("/Machine/n0")
    return space


def canonical(record):
    data = json.loads(json.dumps(record.to_dict()))
    data["metrics"] = deterministic_metrics(data["metrics"])
    del data["metrics"]["emit_batches"]  # slicing-dependent, not output
    return json.dumps(data)


def session(name, version=None, iterations=120, directives=None):
    return DiagnosisSession(
        app=build_catalog_app(name, version, iterations), directives=directives,
        config=SearchConfig(stop_engine_when_done=True), run_id="lattice",
    ).run()


class TestChildTable:
    def test_two_spaces_of_one_app_share_the_children(self):
        app = build_catalog_app("poisson", "C", 40)
        one, two = app.make_space(), app.make_space()
        for focus in lattice(one):
            mine, theirs = focus.children(one), focus.children(two)
            assert mine == derive_children(focus, one)
            assert [str(f) for f in mine] == [str(f) for f in derive_children(focus, one)]
            assert all(a is b for a, b in zip(mine, theirs))
            assert len(mine) == len(theirs)
            for h in focus.hierarchies:
                assert all(a is b for a, b in zip(focus.refine(one, h),
                                                  focus.refine(two, h)))

    def test_a_child_is_the_parsed_focus_of_its_text(self, fresh_table):
        space = build_catalog_app("ocean", None, 40).make_space()
        for focus in lattice(space, depth=1):
            for child in focus.children(space):
                assert parse_focus(str(child)) is child

    def test_refine_hands_out_a_list_of_its_own(self):
        space = build_catalog_app("poisson", "C", 40).make_space()
        wp = whole_program(space)
        got = wp.refine(space, "Code")
        got.clear()
        assert wp.refine(space, "Code") == [
            f for f in derive_children(wp, space) if f.constrains("Code")]

    def test_a_late_resource_is_a_new_child_in_order(self):
        space = space_of({"a.c": ["f", "g"]})
        parent = parse_focus("< /Code/a.c, /Machine, /Process, /SyncObject >")
        before = parent.children(space)
        assert [f.selection("Code") for f in before[:2]] == ["/Code/a.c/f", "/Code/a.c/g"]
        space.add("/Code/a.c/h")  # as DiscoverySink and _rescan_if_grown see it
        after = parent.children(space)
        assert after == derive_children(parent, space)
        assert [f.selection("Code") for f in after[:3]] == [
            "/Code/a.c/f", "/Code/a.c/g", "/Code/a.c/h"]
        # the old tree still answers as it did
        assert parent.children(space_of({"a.c": ["f", "g"]})) == before

    def test_one_text_with_other_children_is_another_entry(self):
        parent = parse_focus("< /Code/a.c, /Machine, /Process, /SyncObject >")
        spaces = [space_of({"a.c": ["f", "g"]}), space_of({"a.c": ["g", "f"]}),
                  space_of({"a.c": ["f", "k"]}), space_of({"a.c": []})]
        for space in spaces:
            assert [str(f) for f in parent.children(space)] \
                == [str(f) for f in derive_children(parent, space)]
        poisson = build_catalog_app("poisson", "C", 40).make_space()
        ocean = build_catalog_app("ocean", None, 40).make_space()
        wp = whole_program(poisson)
        assert str(wp) == str(whole_program(ocean))
        assert wp.children(poisson) == derive_children(wp, poisson)
        assert wp.children(ocean) == derive_children(wp, ocean)
        assert wp.children(poisson) != wp.children(ocean)

    def test_correct_across_wholesale_clears(self, monkeypatch):
        monkeypatch.setattr(focus_mod, "_CHILD_TABLE", {})
        monkeypatch.setattr(focus_mod, "_CHILD_TABLE_MAX", 3)
        for name, version in (("poisson", "C"), ("ocean", None), ("poisson", "C")):
            space = build_catalog_app(name, version, 40).make_space()
            for focus in lattice(space):
                assert [str(f) for f in focus.children(space)] \
                    == [str(f) for f in derive_children(focus, space)]
                assert len(focus_mod._CHILD_TABLE) <= 3

    def test_threads_agree_with_the_oracle_while_the_caps_trip(self, monkeypatch):
        """No lock: racing threads may derive a key twice or clear the
        tables under each other, and still every answer is the oracle's."""
        monkeypatch.setattr(focus_mod, "_CHILD_TABLE", {})
        monkeypatch.setattr(focus_mod, "_CHILD_TABLE_MAX", 4)
        monkeypatch.setattr(focus_mod, "_FOCUS_TABLE", {})
        monkeypatch.setattr(focus_mod, "_FOCUS_TABLE_MAX", 16)
        monkeypatch.setattr(directives_mod, "_VERDICTS_MAX", 8)
        space = build_catalog_app("poisson", "C", 40).make_space()
        foci = lattice(space, depth=1)
        want = {f: [str(c) for c in derive_children(f, space)] for f in foci}
        ds = DirectiveSet.from_text(
            "prune * /Code/oned.f\nprune CPUbound /SyncObject\n")
        pairs = [("CPUbound", f) for f in foci] + [("ExcessiveSyncWaitingTime", f)
                                                   for f in foci]
        verdict = {(h, str(f)): unmemoized(ds, h, f) for h, f in pairs}
        wrong, stop = [], threading.Event()

        def hammer():
            while not stop.is_set():
                for focus in foci:
                    if [str(c) for c in focus.children(space)] != want[focus]:
                        wrong.append(("children", str(focus)))
                for h, f in pairs:
                    if ds.screen((h, str(f)), f) is not verdict[(h, str(f))]:
                        wrong.append(("screen", h, str(f)))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert len(focus_mod._CHILD_TABLE) <= 4 + len(threads)
        assert len(ds._verdicts) <= 8 + len(threads)

    def test_holds_foci_only_and_does_not_grow_with_sessions(self, fresh_table):
        session("poisson", "C")
        size = len(focus_mod._CHILD_TABLE)
        assert size > 0
        for _ in range(3):
            session("poisson", "C")
        assert len(focus_mod._CHILD_TABLE) == size
        for (text, hierarchy, labels), kids in focus_mod._CHILD_TABLE.items():
            assert type(text) is str and type(hierarchy) is str
            assert all(type(label) is str for label in labels)
            assert type(kids) is tuple and all(type(f) is Focus for f in kids)
            assert len(kids) == len(labels)

    def test_a_session_is_the_same_bytes_after_other_apps(self, fresh_table):
        history = extract_directives(session("poisson", "A"))
        first = canonical(session("poisson", "A", directives=history))
        session("poisson", "C")
        session("ocean", None, 150)
        assert canonical(session("poisson", "A", directives=history)) == first


def screened_pairs(directives, space):
    """Every ``(hypothesis, focus)`` the test compares: each hypothesis
    over the lattice, plus every pair the set names itself."""
    hypotheses = [h.name for h in standard_tree().testable()]
    pairs = [(h, f) for f in lattice(space) for h in hypotheses]
    pairs += [(d.hypothesis, d.focus)
              for d in (*directives.pair_prunes, *directives.priorities)]
    return pairs


def unmemoized(directives, hypothesis, focus):
    if is_pruned(directives, hypothesis, focus):
        return None
    return directives.priority_of(hypothesis, focus)


class TestScreenMemo:
    @pytest.fixture(scope="class")
    def harvested(self):
        return extract_directives(session("poisson", "A", iterations=300))

    def test_memo_equals_the_unmemoized_test(self, harvested):
        ds = DirectiveSet.from_text(harvested.to_text())
        assert ds.pair_prunes and ds.high_priority_pairs()
        assert any(p.hypothesis == ANY_HYPOTHESIS for p in ds.prunes)
        space = build_catalog_app("poisson", "A", 300).make_space()
        pairs = screened_pairs(ds, space)
        verdicts = {None: 0, Priority.HIGH: 0}
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for hypothesis, focus in pairs:
                want = unmemoized(ds, hypothesis, focus)
                assert ds.screen((hypothesis, str(focus)), focus) is want
                assert ds.is_pruned(hypothesis, focus) is (want is None)
                if want in verdicts:
                    verdicts[want] += 1
        assert all(verdicts.values())
        pair_pruned = [(p.hypothesis, p.focus) for p in ds.pair_prunes]
        assert all(ds.screen((h, str(f)), f) is None for h, f in pair_pruned)

    def test_a_verdict_stays_with_its_set(self, harvested):
        space = build_catalog_app("poisson", "A", 300).make_space()
        pairs = screened_pairs(harvested, space)
        bare = DirectiveSet(thresholds=harvested.thresholds)
        for hypothesis, focus in pairs:
            harvested.screen((hypothesis, str(focus)), focus)
        for hypothesis, focus in pairs:
            assert bare.screen((hypothesis, str(focus)), focus) is Priority.MEDIUM

    def test_not_part_of_the_value(self, harvested):
        ds = DirectiveSet.from_text(harvested.to_text())
        text = ds.to_text()
        space = build_catalog_app("poisson", "A", 300).make_space()
        for hypothesis, focus in screened_pairs(ds, space):
            ds.screen((hypothesis, str(focus)), focus)
        assert ds.to_text() == text
        assert len(ds) == len(harvested)

    def test_bounded(self, harvested, monkeypatch):
        monkeypatch.setattr(directives_mod, "_VERDICTS_MAX", 5)
        ds = DirectiveSet.from_text(harvested.to_text())
        space = build_catalog_app("poisson", "A", 300).make_space()
        for hypothesis, focus in screened_pairs(ds, space):
            assert ds.screen((hypothesis, str(focus)), focus) \
                is unmemoized(ds, hypothesis, focus)
            assert len(ds._verdicts) <= 5
        assert all(v is None or type(v) is Priority for v in ds._verdicts.values())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
