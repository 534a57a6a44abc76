"""Golden records: the output of one diagnosis, frozen.

``tests/golden/poisson_a_1000.json`` pins what Poisson version A at the
paper-default 1000 iterations diagnoses to — undirected, and directed by
the harvest of that same undirected run — as a digest of the whole
:class:`RunRecord` plus a readable subset (delivery counters, pairs, the
true set, when the search was done, and the profile's table key order
and per-key sums).  Only the wall-clock metrics and ``emit_batches`` are
masked.  It was written at the parent of the change that moved delivery
to attribution cells and due-gated the evaluation pass, so it holds any
later change of the measurement path to the same bytes: when it fails,
the readable subset says what moved before the digest says that
something did.

The third kind, ``mapped``, is the paper's cross-version case and the
only one that takes the mapping step's rewriting and dropping branches:
Poisson **B** directed by that same A harvest plus the A→B code ``map``
directives.  The machine pairings are left out, as for a run placed on
other nodes, so every directive naming one of A's nodes is dropped.  The
:class:`MappingReport` is pinned beside the record the same way: how
many directives survived, how many were dropped, the first of them, and
a digest of the whole list in order.  It was written at the parent of
the change that made mapping decide once per distinct name.

``tests/golden/summary_poisson_a_1000.json`` pins the index summary
(:func:`~repro.storage.summary.summarize_record`) of each of the three
records — every field, by a digest of its JSON with key order kept, plus
a readable subset.  It was written at the parent of the change that gave
"share of total process time" its one formula in
:class:`~repro.metrics.profile.FlatProfile`, so the summary's fraction
tables stay the floats the per-consumer formulas produced.

A change that moves the output on purpose regenerates both fixtures:
``PYTHONPATH=src python tests/test_golden_records.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

import repro
from repro.apps.catalog import build_catalog_app
from repro.apps.poisson import version_maps
from repro.core import DiagnosisSession, DirectiveSet, SearchConfig, apply_mappings
from repro.obs import deterministic_metrics
from repro.storage.summary import summarize_record

GOLDEN = Path(__file__).parent / "golden" / "poisson_a_1000.json"
SUMMARY_GOLDEN = Path(__file__).parent / "golden" / "summary_poisson_a_1000.json"
KINDS = ["undirected", "directed", "mapped"]


def diagnose(directives=None, version="A"):
    return DiagnosisSession(
        app=build_catalog_app("poisson", version, 1000),
        directives=directives,
        config=SearchConfig(stop_engine_when_done=True),
        run_id="golden",
    ).run()


def view(record):
    """The pinned view of one record: digest first, then the readable
    subset a failure is diagnosed from."""
    data = json.loads(json.dumps(record.to_dict()))
    data["metrics"] = deterministic_metrics(data["metrics"])
    del data["metrics"]["emit_batches"]  # slicing-dependent, not output
    profile = data["profile"]
    return {
        # key order is part of the bytes: no sort_keys
        "sha256": hashlib.sha256(json.dumps(data).encode()).hexdigest(),
        "probes_examined": data["metrics"]["probes_examined"],
        "segments_routed": data["metrics"]["segments_routed"],
        "pairs_instrumented": data["metrics"]["pairs_instrumented"],
        "pairs_concluded": data["metrics"]["pairs_concluded"],
        "search_done_time": data["search_done_time"],
        # one string per row, so the fixture diffs line by line
        "true_pairs": [
            f"{n['hypothesis']} : {n['focus']} @ {n['t_concluded']!r}"
            for n in data["shg_nodes"]
            if n["state"] == "true" and n["id"] != 0
        ],
        "profile": {
            # fsum: the same bits whatever the interpreter's sum() does
            table: [f"{key} = {math.fsum(entry.values())!r}"
                    for key, entry in rows.items()]
            for table, rows in profile.items()
            if table not in ("totals", "elapsed")
        } | {"totals": profile["totals"], "elapsed": profile["elapsed"]},
    }


def summary_view(record):
    """The pinned view of one record's index summary: the digest of
    every field, then the sizes a failure is read from."""
    summary = summarize_record(record)
    return {
        # key order is part of the bytes: no sort_keys
        "sha256": hashlib.sha256(json.dumps(summary).encode()).hexdigest(),
        "total_time": summary["total_time"],
        "fractions": {hier: len(table)
                      for hier, table in summary["fractions"].items()},
        "code_exec_fractions": len(summary["code_exec_fractions"]),
        "true_pairs": len(summary["true_pairs"]),
        "false_pairs": len(summary["false_pairs"]),
    }


def mapping_view(report):
    return {
        "mapped": report.mapped,
        "dropped": len(report.dropped),
        "dropped_distinct": len(set(report.dropped)),
        "dropped_head": report.dropped[:12],
        "dropped_sha256": hashlib.sha256(
            "\n".join(report.dropped).encode()).hexdigest(),
    }


def runs():
    """The three golden records by kind, and the directive set (A's
    harvest plus the A→B maps) the third one ran under."""
    base = diagnose()
    history = repro.harvest(base)
    a_to_b = history.merged_with(DirectiveSet(maps=version_maps("A", "B")))
    return {
        "undirected": base,
        "directed": diagnose(history),
        "mapped": diagnose(a_to_b, version="B"),
    }, a_to_b


def views(records, a_to_b):
    _mapped, report = apply_mappings(
        a_to_b, build_catalog_app("poisson", "B", 1000).make_space())
    out = {kind: view(record) for kind, record in records.items()}
    out["mapped"]["mapping"] = mapping_view(report)
    return out


def summary_views(records):
    return {kind: summary_view(record) for kind, record in records.items()}


@pytest.fixture(scope="module")
def golden_runs():
    return runs()


@pytest.fixture(scope="module")
def got(golden_runs):
    return json.loads(json.dumps(views(*golden_runs)))


@pytest.fixture(scope="module")
def want():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", KINDS)
class TestGoldenRecord:
    def test_readable_subset(self, got, want, kind):
        for key, value in want[kind].items():
            if key != "sha256":
                assert got[kind][key] == value, key

    def test_whole_record_digest(self, got, want, kind):
        assert got[kind]["sha256"] == want[kind]["sha256"]

    def test_codec_round_trips(self, golden_runs, kind):
        """The store's and the wire's text of the record decodes to its
        ``to_dict()``, key order, float signs and all."""
        from repro.storage.codec import decode

        record = golden_runs[0][kind]
        got = decode(json.loads(record.encoded()))
        assert json.dumps(got) == json.dumps(record.to_dict())

    def test_summary_is_golden(self, golden_runs, kind):
        want = json.loads(SUMMARY_GOLDEN.read_text())[kind]
        got = json.loads(json.dumps(summary_view(golden_runs[0][kind])))
        for key, value in want.items():
            if key != "sha256":
                assert got[key] == value, key
        assert got["sha256"] == want["sha256"]


def test_golden_binds_a_real_search(want):
    """The fixture is not vacuous: history shrinks the search it pins."""
    assert want["directed"]["pairs_instrumented"] \
        < want["undirected"]["pairs_instrumented"]
    assert want["undirected"]["true_pairs"] and want["directed"]["true_pairs"]
    assert len(want["undirected"]["profile"]["by_combo"]) > 8
    # ... and the mapped kind rewrites, keeps and drops directives
    assert want["mapped"]["true_pairs"]
    assert any("/Code/onednb.f" in pair for pair in want["mapped"]["true_pairs"])
    assert want["mapped"]["mapping"]["mapped"] > 100
    assert want["mapped"]["mapping"]["dropped"] > 100


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records, a_to_b = runs()
    GOLDEN.write_text(json.dumps(views(records, a_to_b), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    SUMMARY_GOLDEN.write_text(json.dumps(summary_views(records), indent=1) + "\n")
    print(f"wrote {SUMMARY_GOLDEN}")
