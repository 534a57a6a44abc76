"""Name splitting, foci and directive mapping against the code they replaced.

``split_path`` remembers the names it has split, ``parse_focus`` hands
out one object per distinct text, ``Focus.with_selection`` / ``refine``
derive a child from the parent's fields, and ``apply_mappings`` decides
once per distinct name and passes untouched directives through.  The
oracles here are the functions as they stood before that — every name
parsed every time, every focus built by ``Focus(dict)``, every directive
rebuilt — and the two must agree on every result, on every exception
(type and message) and on every byte of ``DirectiveSet.to_text()``.

A second group pins what no other test would notice: that the tables
stay bounded and never hold a rejected name, that threads sharing them
agree with the oracle while the cap is being tripped, and — the count
guard — that a second ``begin()`` on a benchmark-sized directive set
parses no name and builds no focus for a directive no map rewrote.
"""

import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps.catalog import build_catalog_app
from repro.apps.poisson import version_maps
from repro.core import DiagnosisSession, SearchConfig
from repro.core.directives import (
    DirectiveSet,
    MapDirective,
    PairPruneDirective,
    PriorityDirective,
    PruneDirective,
    ThresholdDirective,
)
from repro.core.mapping import MappingReport, ResourceMapper, apply_mappings
from repro.core.shg import Priority
from repro.resources import focus as focus_mod
from repro.resources import names as names_mod
from repro.resources.focus import Focus, parse_focus, whole_program
from repro.resources.names import ResourceNameError, split_path
from repro.resources.resource import ResourceSpace


# ---------------------------------------------------------------------------
# the oracles: the parent commit's code, moved here
# ---------------------------------------------------------------------------
def oracle_split_path(path):
    if not isinstance(path, str) or not path.startswith("/"):
        raise ResourceNameError(f"resource name must start with '/': {path!r}")
    body = path[1:]
    if body == "":
        raise ResourceNameError("the bare root '/' does not name a hierarchy")
    parts = tuple(body.split("/"))
    if any(p == "" for p in parts):
        raise ResourceNameError(f"resource name has empty component: {path!r}")
    return parts


def oracle_focus(selections):
    """The fields ``Focus.__init__`` computed: selections in hierarchy
    order, their split parts, the hash and the printed form."""
    sel, parts = {}, {}
    for hierarchy, path in selections.items():
        p = oracle_split_path(path)
        if p[0] != hierarchy:
            raise ResourceNameError(
                f"selection {path!r} is not in hierarchy {hierarchy!r}"
            )
        sel[hierarchy] = path
        parts[hierarchy] = p
    sel = dict(sorted(sel.items()))
    return {
        "selections": list(sel.items()),
        "parts": {h: parts[h] for h in sel},
        "hash": hash(tuple(sel.items())),
        "text": "< " + ", ".join(sel[h] for h in sel) + " >",
    }


def oracle_with_selection(selections, hierarchy, path):
    sel = dict(sorted(selections.items()))
    if hierarchy not in sel:
        raise ResourceNameError(f"focus has no hierarchy {hierarchy!r}")
    sel[hierarchy] = path
    return oracle_focus(sel)


def oracle_parse_focus(text):
    body = text.strip()
    if body.startswith("<"):
        body = body[1:]
    if body.endswith(">"):
        body = body[:-1]
    sels = {}
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parts = oracle_split_path(piece)
        if parts[0] in sels:
            raise ResourceNameError(f"duplicate hierarchy in focus: {text!r}")
        sels[parts[0]] = piece
    if not sels:
        raise ResourceNameError(f"empty focus: {text!r}")
    return oracle_focus(sels)


def oracle_apply_mappings(directives, space=None, extra_maps=()):
    mapper = ResourceMapper([*directives.maps, *extra_maps])
    report = MappingReport()

    def keep_path(path):
        mapped = mapper.map_path(path)
        if space is not None and mapped not in space:
            report.dropped.append(mapped)
            return None
        report.mapped += 1
        return mapped

    def keep_focus(focus):
        mapped = mapper.map_focus(focus)
        if space is not None and not all(
            mapped.selection(h) in space for h in mapped.hierarchies
        ):
            report.dropped.append(str(mapped))
            return None
        report.mapped += 1
        return mapped

    prunes = []
    for p in directives.prunes:
        path = keep_path(p.resource)
        if path is not None:
            prunes.append(PruneDirective(p.hypothesis, path))
    pair_prunes = []
    for pp in directives.pair_prunes:
        focus = keep_focus(pp.focus)
        if focus is not None:
            pair_prunes.append(PairPruneDirective(pp.hypothesis, focus))
    priorities = []
    for pr in directives.priorities:
        focus = keep_focus(pr.focus)
        if focus is not None:
            priorities.append(PriorityDirective(pr.hypothesis, focus, pr.level))
    out = DirectiveSet(
        prunes=prunes,
        pair_prunes=pair_prunes,
        priorities=priorities,
        thresholds=list(directives.thresholds),
    )
    return out, report


def outcome(fn, *args, **kwargs):
    """What a call did: its value, or the exception's type and message."""
    try:
        return ("returned", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("raised", type(exc), str(exc))


def fields(focus):
    """A :class:`Focus` through its public surface, shaped like
    :func:`oracle_focus` (dict order included: it is the printed order)."""
    return {
        "selections": list(focus.selections().items()),
        "parts": {h: focus.selection_parts(h) for h in focus.hierarchies},
        "hash": hash(focus),
        "text": str(focus),
    }


def focus_outcome(fn, *args):
    got = outcome(fn, *args)
    return ("returned", fields(got[1])) if got[0] == "returned" else got


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
HIERARCHIES = ("Code", "Machine", "Process", "SyncObject")
LABELS = ("a.c", "b.c", "f", "g", "n0", "n1", "p0", "p1", "Message", "7")



def names_in(hierarchy):
    """Well-formed names at or below the root of *hierarchy*."""
    return st.lists(st.sampled_from(LABELS), max_size=3).map(
        lambda tail: "/" + "/".join([hierarchy, *tail]))


good_names = st.sampled_from(HIERARCHIES).flatmap(names_in)
#: Malformed names and arguments that are not names at all; the last four
#: are unhashable, so they cannot even be looked up in a table.
bad_names = st.one_of(
    st.sampled_from([
        "", "/", "//", "Code", "Code/a.c", "/Code/", "/Code//f", "//Code",
        " /Code", "/ ",
    ]),
    st.sampled_from([None, 0, 3.5, b"/Code", ("/Code",), frozenset()]),
    st.builds(list, st.just(["/Code"])),
    st.builds(dict, st.just({"/Code": 1})),
    st.builds(set, st.just({"/Code"})),
    st.builds(bytearray, st.just(b"/Code")),
)
names = st.one_of(good_names, good_names, bad_names)


@st.composite
def selection_maps(draw):
    """A ``Focus(...)`` argument: mostly one well-placed selection per
    hierarchy, in any key order, now and then a selection filed under the
    wrong hierarchy or a malformed one."""
    chosen = draw(st.lists(st.sampled_from(HIERARCHIES), min_size=1,
                           max_size=4, unique=True))
    out = {}
    for h in chosen:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            out[h] = draw(bad_names)
        elif kind == 1:
            out[h] = draw(good_names)  # maybe another hierarchy's
        else:
            out[h] = draw(names_in(h))
    return out


@st.composite
def good_foci(draw):
    chosen = draw(st.lists(st.sampled_from(HIERARCHIES), min_size=1,
                           max_size=4, unique=True))
    return Focus({h: draw(names_in(h)) for h in chosen})


@st.composite
def focus_texts(draw):
    """Printed foci in whitespace variants, with the occasional duplicate
    hierarchy, empty piece, malformed piece or nothing at all."""
    pieces = draw(st.lists(st.one_of(good_names, good_names, st.just(""),
                                     st.sampled_from(["Code", "/", "/a//b"])),
                           max_size=5))
    sep = draw(st.sampled_from([", ", ",", " , ", ",\t"]))
    left = draw(st.sampled_from(["< ", "<", "", "  <  "]))
    right = draw(st.sampled_from([" >", ">", "", " >  \n"]))
    return left + sep.join(pieces) + right


#: A small universe of names for spaces, directives and maps, so that
#: directives hit known and unknown resources and maps overlap by prefix.
UNIVERSE = (
    "/Code", "/Code/a.c", "/Code/a.c/f", "/Code/a.c/g", "/Code/b.c",
    "/Code/b.c/f", "/Code/c.c", "/Code/c.c/h",
    "/Machine", "/Machine/n0", "/Machine/n1", "/Machine/n2",
    "/Process", "/Process/p0", "/Process/p1", "/Process/p2",
    "/SyncObject", "/SyncObject/Message", "/SyncObject/Message/7",
    "/SyncObject/Message/9",
)
universe = st.sampled_from(UNIVERSE)
hypotheses = st.sampled_from(["CPUbound", "ExcessiveSyncWaitingTime", "*"])


def universe_in(hierarchy):
    return st.sampled_from(
        [n for n in UNIVERSE if n.split("/")[1] == hierarchy])


universe_foci = st.fixed_dictionaries(
    {h: universe_in(h) for h in HIERARCHIES}).map(Focus)


@st.composite
def spaces(draw):
    space = ResourceSpace(draw(st.sampled_from([
        HIERARCHIES, HIERARCHIES, ("Code", "Machine", "Process"),
    ])))
    for name in draw(st.lists(universe, max_size=12)):
        if name.split("/")[1] in space.hierarchies:
            space.add(name)
    return space


#: Same-hierarchy maps mostly; one in five goes wherever it likes, which
#: is how a map comes to cross hierarchies.
map_directives = st.one_of(
    *[st.builds(MapDirective, universe_in(h), universe_in(h))
      for h in HIERARCHIES],
    st.builds(MapDirective, universe, universe),
)


@st.composite
def directive_sets(draw):
    return DirectiveSet(
        prunes=draw(st.lists(st.builds(PruneDirective, hypotheses, universe),
                             max_size=5)),
        pair_prunes=draw(st.lists(
            st.builds(PairPruneDirective, hypotheses, universe_foci),
            max_size=6)),
        priorities=draw(st.lists(
            st.builds(PriorityDirective, hypotheses, universe_foci,
                      st.sampled_from(list(Priority))),
            max_size=6)),
        thresholds=draw(st.lists(
            st.builds(ThresholdDirective, hypotheses, st.floats(0.01, 0.9)),
            max_size=2)),
        maps=draw(st.lists(map_directives, max_size=4)),
    )


# ---------------------------------------------------------------------------
# equal results, equal exceptions
# ---------------------------------------------------------------------------
relaxed = settings(deadline=None)


class TestAgainstOracle:
    @relaxed
    @given(names)
    def test_split_path(self, name):
        want = outcome(oracle_split_path, name)
        assert outcome(split_path, name) == want
        assert outcome(split_path, name) == want  # and again, from the table

    @relaxed
    @given(selection_maps())
    def test_focus_constructor(self, selections):
        assert focus_outcome(Focus, selections) \
            == outcome(oracle_focus, selections)

    @relaxed
    @given(good_foci(), st.sampled_from(HIERARCHIES), names)
    def test_with_selection(self, focus, hierarchy, path):
        want = outcome(oracle_with_selection, focus.selections(), hierarchy, path)
        assert focus_outcome(focus.with_selection, hierarchy, path) == want
        if want[0] == "returned":
            child = focus.with_selection(hierarchy, path)
            built = Focus({**focus.selections(), hierarchy: path})
            assert child == built and hash(child) == hash(built)
            assert str(child) == str(built) and repr(child) == repr(built)

    @relaxed
    @given(focus_texts())
    def test_parse_focus(self, text):
        want = outcome(oracle_parse_focus, text)
        assert focus_outcome(parse_focus, text) == want
        assert focus_outcome(parse_focus, text) == want
        if want[0] == "returned":
            assert parse_focus(text) is parse_focus(text)

    @pytest.mark.parametrize("text", [None, 7, b"< /Code >", ["< /Code >"]])
    def test_parse_focus_rejects_non_text_as_before(self, text):
        assert outcome(parse_focus, text) == outcome(oracle_parse_focus, text)
        assert outcome(parse_focus, text)[0] == "raised"

    def test_whitespace_variants_are_one_focus(self):
        variants = ["< /Code/a.c, /Machine >", "</Code/a.c,/Machine>",
                    "  /Machine ,  /Code/a.c  ", "< /Code/a.c, , /Machine >\n"]
        parsed = [parse_focus(v) for v in variants]
        assert len(set(parsed)) == 1
        assert {str(f) for f in parsed} == {"< /Code/a.c, /Machine >"}

    @settings(max_examples=300, deadline=None)
    @given(directive_sets(), st.one_of(st.none(), spaces()),
           st.lists(map_directives, max_size=2))
    def test_apply_mappings(self, directives, space, extra_maps):
        def run(fn):
            got = outcome(fn, directives, space, extra_maps)
            if got[0] == "raised":
                return got
            mapped, report = got[1]
            return ("returned", mapped.to_text(), report.mapped, report.dropped)

        assert run(apply_mappings) == run(oracle_apply_mappings)

    @settings(max_examples=100, deadline=None)
    @given(directive_sets(), st.one_of(st.none(), spaces()))
    def test_untouched_directives_pass_through(self, directives, space):
        directives = directives.only("prunes", "pair_prunes", "priorities")
        mapped, _report = apply_mappings(directives, space)
        given_ids = {id(d) for group in (directives.prunes, directives.pair_prunes,
                                         directives.priorities) for d in group}
        for group in (mapped.prunes, mapped.pair_prunes, mapped.priorities):
            assert all(id(d) in given_ids for d in group)

    def test_cross_hierarchy_map_still_raises(self):
        focus = Focus({"Code": "/Code/a.c/f", "Process": "/Process"})
        directives = DirectiveSet(
            pair_prunes=[PairPruneDirective("CPUbound", focus)],
            maps=[MapDirective("/Code/a.c", "/Process/p0")],
        )
        want = outcome(oracle_apply_mappings, directives)
        assert want[0] == "raised" and "is not in hierarchy" in want[2]
        assert outcome(apply_mappings, directives) == want
        # ... also when the space would have dropped the directive anyway
        assert outcome(apply_mappings, directives, ResourceSpace()) \
            == outcome(oracle_apply_mappings, directives, ResourceSpace())


class TestRefinement:
    def test_children_are_what_the_constructor_builds(self):
        space = build_catalog_app("poisson", "A", 10).make_space()
        frontier, seen = [whole_program(space)], 0
        for _depth in range(3):
            parents, frontier = frontier[:40], []
            for parent in parents:
                for child in parent.children(space):
                    built = Focus(child.selections())
                    assert fields(child) == fields(built)
                    assert fields(child) == oracle_focus(child.selections())
                    assert child == built and hash(child) == hash(built)
                    assert str(child) == str(built)
                    assert child.depth() == parent.depth() + 1
                    assert child.is_descendant_or_equal(parent)
                    frontier.append(child)
                    seen += 1
        assert seen > 100

    def test_refine_keeps_the_hierarchy_check(self):
        space = ResourceSpace()
        space.add("/Code/a.c/f")
        node = space.find("/Code/a.c")
        # A resource filed under a hierarchy it does not belong to is the
        # one way a child could carry a foreign selection.
        node.children["bad"] = space.add("/Process/p0")
        with pytest.raises(ResourceNameError, match="is not in hierarchy 'Code'"):
            Focus({"Code": "/Code/a.c"}).refine(space, "Code")

    def test_resource_knows_its_parts(self):
        space = ResourceSpace()
        leaf = space.add("/Code/a.c/f")
        assert leaf.parts == ("Code", "a.c", "f") and leaf.depth == 3
        assert leaf.parent.parts == ("Code", "a.c")
        assert space.hierarchy("Code").root.parts == ("Code",)


# ---------------------------------------------------------------------------
# the tables themselves
# ---------------------------------------------------------------------------
@pytest.fixture
def small_tables(monkeypatch):
    """Both tables empty and capped at eight entries."""
    monkeypatch.setattr(names_mod, "_SPLIT_TABLE", {})
    monkeypatch.setattr(names_mod, "_SPLIT_TABLE_MAX", 8)
    monkeypatch.setattr(focus_mod, "_FOCUS_TABLE", {})
    monkeypatch.setattr(focus_mod, "_FOCUS_TABLE_MAX", 8)


class TestTables:
    def test_bounded_and_hold_no_rejected_name(self, small_tables):
        rejected = ["", "/", "Code", "/Code//f", "/Code/", None, 3, ["/Code"]]
        rejected_texts = ["<>", "< Code >", "< /Code, /Code/a.c >",
                          "< /Code//f >", "< / >"]
        for i in range(100):
            assert split_path(f"/Code/m{i}.c/f") == ("Code", f"m{i}.c", "f")
            assert parse_focus(f"< /Code/m{i}.c, /Machine >") \
                == Focus({"Code": f"/Code/m{i}.c", "Machine": "/Machine"})
            bad = rejected[i % len(rejected)]
            with pytest.raises(ResourceNameError):
                split_path(bad)
            with pytest.raises(ResourceNameError):
                parse_focus(rejected_texts[i % len(rejected_texts)])
            assert len(names_mod._SPLIT_TABLE) <= 8
            assert len(focus_mod._FOCUS_TABLE) <= 8
        assert all(type(k) is str and split_path(k) == oracle_split_path(k)
                   for k in names_mod._SPLIT_TABLE)
        assert not [k for k in names_mod._SPLIT_TABLE
                    if k in ("", "/", "Code", "/Code//f", "/Code/")]
        assert all(fields(v) == oracle_parse_focus(k)
                   for k, v in focus_mod._FOCUS_TABLE.items())
        assert not set(focus_mod._FOCUS_TABLE) & set(rejected_texts)

    def test_a_str_subclass_is_parsed_not_looked_up(self, small_tables):
        class Odd(str):
            def __hash__(self):
                return hash("/Code")

            def __eq__(self, other):
                return True

        split_path("/Code")
        assert split_path(Odd("/Machine/n0")) == ("Machine", "n0")
        assert all(type(k) is str for k in names_mod._SPLIT_TABLE)

    def test_threads_agree_with_the_oracle_while_the_cap_trips(self, small_tables):
        inputs = [f"/Code/m{i}.c/f{i % 3}" for i in range(6)] \
            + ["", "/", "/Code//f", "Code", None]
        texts = [f"< /Code/m{i}.c, /Process/p{i % 2} >" for i in range(6)] \
            + ["<>", "< /Code, /Code/a.c >", "< Code >"]
        want_split = {repr(x): outcome(oracle_split_path, x) for x in inputs}
        want_focus = {t: outcome(oracle_parse_focus, t) for t in texts}
        wrong, stop = [], threading.Event()

        def hammer():
            while not stop.is_set():
                for x in inputs:
                    if outcome(split_path, x) != want_split[repr(x)]:
                        wrong.append(("split_path", x))
                for t in texts:
                    if focus_outcome(parse_focus, t) != want_focus[t]:
                        wrong.append(("parse_focus", t))

        def trip_the_cap():
            i = 0
            while not stop.is_set():
                i += 1
                split_path(f"/Machine/filler{i}")
                parse_focus(f"< /Machine/filler{i} >")

        threads = [threading.Thread(target=hammer) for _ in range(2)] \
            + [threading.Thread(target=trip_the_cap)]
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
        assert len(names_mod._SPLIT_TABLE) <= 8 + len(threads)
        assert len(focus_mod._FOCUS_TABLE) <= 8 + len(threads)


# ---------------------------------------------------------------------------
# the count guard
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def poisson_history():
    """The benchmark's directive set: the harvest of one undirected
    Poisson-A run at the paper-default 1000 iterations."""
    base = DiagnosisSession(
        app=build_catalog_app("poisson", "A", 1000),
        config=SearchConfig(stop_engine_when_done=True),
    ).run()
    directives = repro.harvest(base)
    assert len(directives) > 1000 and not directives.maps
    return directives


class Counted:
    """Counts the uncached name parses and the foci the validating
    constructor builds while it is installed."""

    def __init__(self, monkeypatch):
        self.names = 0
        self.foci = []
        parse_path, init = names_mod._parse_path, Focus.__init__

        def counting_parse(path):
            self.names += 1
            return parse_path(path)

        def counting_init(focus, selections):
            init(focus, selections)
            self.foci.append(focus)

        monkeypatch.setattr(names_mod, "_parse_path", counting_parse)
        monkeypatch.setattr(Focus, "__init__", counting_init)


class TestCountGuard:
    def test_second_begin_parses_nothing(self, poisson_history, monkeypatch):
        session = DiagnosisSession(
            app=build_catalog_app("poisson", "A", 1000),
            directives=poisson_history,
            config=SearchConfig(stop_engine_when_done=True),
        )
        session.begin()
        counted = Counted(monkeypatch)
        active = session.begin()
        assert counted.names == 0
        # the search builds the whole-program focus it starts from;
        # nothing is built for a directive
        assert len(counted.foci) <= 2
        assert all(f.is_whole_program() for f in counted.foci)
        mapped = active.search.directives
        assert len(mapped) > 1000
        given_ids = {id(d) for d in (*poisson_history.prunes,
                                     *poisson_history.pair_prunes,
                                     *poisson_history.priorities)}
        assert all(id(d) in given_ids for d in (
            *mapped.prunes, *mapped.pair_prunes, *mapped.priorities))

    def test_a_map_costs_only_the_directives_it_rewrites(
            self, poisson_history, monkeypatch):
        # A's history on version B with the code renames but without the
        # machine pairings: some directives rewritten, some dropped.
        directives = poisson_history.merged_with(
            DirectiveSet(maps=version_maps("A", "B")))
        space = build_catalog_app("poisson", "B", 1000).make_space()
        want, want_report = oracle_apply_mappings(directives, space)
        mapper = ResourceMapper(directives.maps)
        touched = sum(
            any(mapper.map_path(d.focus.selection(h)) != d.focus.selection(h)
                for h in d.focus.hierarchies)
            for d in (*directives.pair_prunes, *directives.priorities)
        )
        assert 0 < touched < len(directives.pair_prunes) + len(directives.priorities)
        assert want_report.dropped  # the cross-version case drops some
        apply_mappings(directives, space)  # warm the name table
        counted = Counted(monkeypatch)
        got, report = apply_mappings(directives, space)
        assert counted.names == 0
        assert len(counted.foci) == touched
        assert got.to_text() == want.to_text()
        assert (report.mapped, report.dropped) \
            == (want_report.mapped, want_report.dropped)
