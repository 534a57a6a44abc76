"""Stores from before the layout stamp: converted once on open.

Eight layouts older releases left on disk are laid down here by hand,
byte by byte, so the fixtures stay what those releases wrote whatever
the current writer does:

* ``monolithic-format3`` — checksummed records beside one format-3
  ``index.json``, no ``segments/``;
* ``bare-format2`` — the same with the bare run→meta mapping and no
  summaries;
* ``format1-records`` — checksum-less (bare dict) record files;
* ``format1-sidecar`` — a base plus sealed segments that carry an
  ``"aggregate"`` key (poisoned here), and an ``index.aggregate`` for
  the base alone (no ``through``);
* ``segments-unstamped`` — a segmented store of layout 1 whose claim
  file has no ``"format"`` stamp;
* ``segments-layout1`` — the same store stamped layout 1: a format-3
  base and format-1 segments that spell every ``[hypothesis, focus]``
  pair out as two strings, beside a format-2 sidecar;
* ``segments-layout2`` — the same store stamped layout 2: a format-4
  base and format-2 segments, each with its own pair table, and
  format-2 record envelopes whose sha256 covers the sorted JSON of the
  payload they spell out;
* ``sqlite-schema1`` — the single ``store.sqlite3`` database of the
  sqlite backend older releases offered, written through its schema
  (:data:`SQLITE_SCHEMA`, copied here), with one row that fails its
  sha256 and one row in its ``quarantine`` table.

``tests/golden/legacy_stores.json`` pins, per layout, the sha256 of the
index entries (``seq`` included), of every loaded record and of the
harvest text.  The five file layouts were written at the parent of the
change that made ``rebuild()`` the one converter, where the reader still
branched per format and ``summaries()`` backfilled the index;
``sqlite-schema1`` at the parent of the change that made the file layout
the only store, where the sqlite backend still read the database (after
the first load of each run had quarantined the corrupt row);
``segments-layout1`` at the parent of the change that gave every index
file its own pair table, where layout 1 was current and opened without
a conversion; ``segments-layout2`` at the parent of the change that
gave records their columnar codec, where layout 2 was current.  Opening
the same bytes now must give the same three answers.  Regenerate (only
when the answers are meant to move) with ``PYTHONPATH=src python
tests/test_legacy_stores.py``.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.extraction import HarvestAggregate
from repro.facade import harvest
from repro.faults import IOFault, IOFaultPlan, SimulatedCrash
from repro.faults import io as io_faults
from repro.storage import ExperimentStore, StoreCorruption
from repro.storage.summary import meta_for_record
from tests.test_harvest_aggregate import make_run

GOLDEN = Path(__file__).parent / "golden" / "legacy_stores.json"
LAYOUTS = ("monolithic-format3", "bare-format2", "format1-records",
           "format1-sidecar", "segments-unstamped", "segments-layout1",
           "sqlite-schema1", "segments-layout2")

#: Five runs, the last of a second app, so every scope is exercised.
RECORDS = [make_run(i, app="aggtest" if i < 4 else "other") for i in range(5)]
#: Monolithic layouts store them out of seq order, with delete gaps.
MONOLITHIC_SEQS = (5, 0, 2, 7, 3)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha(value) -> str:
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()


def _write(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True))


def _with_pair_table(metas) -> tuple:
    """*metas* as a layout-2 index file holds them, each summary's pairs
    as indices into the file's pair table, and that table."""
    ids = {}
    out = []
    for meta in metas:
        summary = dict(meta["summary"])
        for field in ("true_pairs", "false_pairs"):
            summary[field] = [ids.setdefault(tuple(pair), len(ids))
                              for pair in summary[field]]
        out.append(dict(meta, summary=summary))
    return out, [list(pair) for pair in ids]


def _stat_sig(path: Path) -> list:
    st = path.stat()
    return [st.st_ino, st.st_mtime_ns, st.st_size]


def _aggregates(metas) -> dict:
    """``all`` and ``by_app`` over *metas*, as the sidecar spells them."""
    by_app = {}
    for meta in metas:
        by_app.setdefault(meta["app_name"], []).append(meta["summary"])
    return {
        "all": HarvestAggregate.of_summaries(
            meta["summary"] for meta in metas).to_dict(),
        "by_app": {app: HarvestAggregate.of_summaries(s).to_dict()
                   for app, s in sorted(by_app.items())},
    }


#: The sqlite backend's schema, version 1: the only one it ever wrote.
SQLITE_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id   TEXT PRIMARY KEY,
    seq      INTEGER NOT NULL,
    app_name TEXT,
    version  TEXT,
    meta     TEXT NOT NULL,
    payload  TEXT NOT NULL,
    sha256   TEXT NOT NULL,
    rev      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_runs_seq ON runs(seq);
CREATE INDEX IF NOT EXISTS idx_runs_app ON runs(app_name, version, seq);
CREATE INDEX IF NOT EXISTS idx_runs_summary
    ON runs(app_name, seq, version, run_id, meta);
CREATE TABLE IF NOT EXISTS quarantine (
    run_id        TEXT,
    quarantined_at REAL,
    payload       TEXT,
    sha256        TEXT,
    reason        TEXT
);
CREATE TABLE IF NOT EXISTS harvest_aggregates (
    scope   TEXT PRIMARY KEY,
    max_seq INTEGER NOT NULL,
    n_runs  INTEGER NOT NULL,
    data    TEXT NOT NULL
);
"""


def lay_down_sqlite(root: Path, records, seqs, *, corrupt=False) -> None:
    """A sqlite store holding *records* at *seqs*, each row as the
    backend's ``put`` wrote it, in its WAL journal mode and with its
    aggregate table empty (as any delete or overwrite left it).
    *corrupt* adds a row whose payload fails its sha256 and a row in the
    ``quarantine`` table."""
    import sqlite3

    root.mkdir(parents=True)
    conn = sqlite3.connect(root / "store.sqlite3")
    conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(SQLITE_SCHEMA)
    conn.execute("INSERT INTO store_meta(key, value) VALUES ('schema', '1')")
    rows = [(record, seq, record.to_dict()) for record, seq in zip(records, seqs)]
    if corrupt:
        torn = make_run(5, app="other")
        rows.append((torn, 9, dict(torn.to_dict(), pairs_tested=-1)))
        conn.execute(
            "INSERT INTO quarantine(run_id, quarantined_at, payload, sha256,"
            " reason) VALUES ('run-001', 1e9, '{\"run_id\": \"run-0', ?, "
            "'payload checksum mismatch')", ("0" * 64,))
    for record, seq, payload in rows:
        conn.execute(
            "INSERT INTO runs(run_id, seq, app_name, version, meta, payload,"
            " sha256, rev) VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
            (record.run_id, seq, record.app_name, record.version,
             json.dumps(dict(meta_for_record(record), seq=seq)),
             json.dumps(payload), hashlib.sha256(
                 _canonical(record.to_dict()).encode("utf-8")).hexdigest()))
    conn.commit()
    conn.close()


def lay_down(root: Path, layout: str) -> None:
    """Write *layout* under *root* exactly as the old release left it."""
    if layout == "sqlite-schema1":
        lay_down_sqlite(root, RECORDS, MONOLITHIC_SEQS, corrupt=True)
        return
    root.mkdir(parents=True)
    layout2 = layout == "segments-layout2"
    for record in RECORDS:
        payload = record.to_dict()
        sha = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
        if layout == "format1-records":
            text = json.dumps(payload)
        elif layout2:  # the layout-2 writer's bytes
            text = '{"format": 2, "sha256": "%s", "record": %s}' % (
                sha, _canonical(payload))
        else:
            text = json.dumps({"format": 2, "record": payload, "sha256": sha})
        (root / f"{record.run_id}.json").write_text(text)
    if layout in ("monolithic-format3", "bare-format2", "format1-records"):
        runs = {}
        for record, seq in zip(RECORDS, MONOLITHIC_SEQS):
            runs[record.run_id] = dict(meta_for_record(record), seq=seq)
            if layout == "bare-format2":
                del runs[record.run_id]["summary"]
        _write(root / "index.json", runs if layout == "bare-format2"
               else {"format": 3, "runs": runs})
        return
    # segmented: two runs in generation 1's base, one sealed put each after
    metas = [dict(meta_for_record(r), seq=seq) for seq, r in enumerate(RECORDS)]
    if layout2:
        base, pairs = _with_pair_table(metas[:2])
        _write(root / "index.json", {"format": 4, "generation": 1,
                                     "pairs": pairs, "runs": {
            r.run_id: meta for r, meta in zip(RECORDS[:2], base)}})
    else:
        _write(root / "index.json", {"format": 3, "generation": 1, "runs": {
            r.run_id: meta for r, meta in zip(RECORDS[:2], metas[:2])}})
    names = []
    for counter, (record, meta) in enumerate(zip(RECORDS[2:], metas[2:])):
        if layout2:
            (put,), pairs = _with_pair_table([meta])
            segment = {"format": 2, "pairs": pairs, "ops": [
                {"op": "put", "run_id": record.run_id, "meta": put}]}
        else:
            segment = {"format": 1, "ops": [
                {"op": "put", "run_id": record.run_id, "meta": meta}]}
        if layout == "format1-sidecar":  # ignored by readers: poisoned
            segment["aggregate"] = dict(
                _aggregates(metas[:1]), min_seq=meta["seq"],
                max_seq=meta["seq"])
        names.append(f"{counter:012d}.json")
        _write(root / "segments" / names[-1], segment)
    state = {"next_seq": len(metas), "counter": len(names), "generation": 1}
    if layout in ("segments-layout1", "segments-layout2"):
        state["format"] = 1 + layout2
    _write(root / "segments" / "_state.json", state)
    if layout == "format1-sidecar":
        sidecar = dict(_aggregates(metas[:2]), format=1, max_seq=1)
    else:
        sidecar = dict(_aggregates(metas), format=2, max_seq=len(metas) - 1,
                       through=names[-1])
    sidecar["base_sig"] = _stat_sig(root / "index.json")
    _write(root / "index.aggregate", sidecar)


def digests(store: ExperimentStore) -> dict:
    """The three pinned answers.  ``"index_entries"`` keeps the name of
    the index read the golden file was written through; ``summaries()``
    is that same read.  The harvest is the store's evidence finalized
    with no pool in between, and the facade's one-shot must agree."""
    entries = list(store.summaries().items())
    text = store.harvest_evidence().finalize(include_thresholds=True).to_text()
    assert harvest(store, pool=None, include_thresholds=True).to_text() == text
    return {
        "index_entries": _sha(entries),
        "records": _sha([store.load(run_id).to_dict()
                         for run_id, _meta in entries]),
        "harvest": _sha(text),
    }


def _open(root: Path) -> ExperimentStore:
    return ExperimentStore(root, auto_compact=0)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_open_converts_to_the_pinned_answers(tmp_path, layout):
    root = tmp_path / layout
    lay_down(root, layout)
    store = _open(root)
    info = store.info()
    assert info.aggregated_runs == info.runs == len(RECORDS), layout
    assert digests(store) == json.loads(GOLDEN.read_text())[layout]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_converted_store_is_one_current_layout(tmp_path, layout):
    """After the open: a claim file stamped layout 3, a format-4 base,
    current envelopes only, no segments and a sidecar of the current
    format."""
    from repro.storage.codec import decode  # the script runs on old sources

    root = tmp_path / layout
    lay_down(root, layout)
    _open(root)
    state = json.loads((root / "segments" / "_state.json").read_text())
    assert state["format"] == 3 and state["next_seq"] > max(
        meta["seq"] for meta in json.loads(
            (root / "index.json").read_text())["runs"].values())
    assert json.loads((root / "index.json").read_text())["format"] == 4
    assert sorted(os.listdir(root / "segments")) == ["_state.json"]
    assert json.loads((root / "index.aggregate").read_text())["format"] == 2
    for record in RECORDS:
        body = json.loads((root / f"{record.run_id}.json").read_text())
        assert body["format"] == 3 \
            and decode(body["record"]) == record.to_dict()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_reads_never_write(tmp_path, layout):
    """Once open, no read moves the index token."""
    root = tmp_path / layout
    lay_down(root, layout)
    store = _open(root)
    token = store.index_token()
    reads = {
        "list": store.list,
        "summaries": store.summaries,
        "summary": lambda: store.summary("run-002"),
        "load": lambda: store.load("run-003"),
        "harvest_evidence": store.harvest_evidence,
        "info": store.info,
    }
    for name, read in reads.items():
        read()
        assert store.index_token() == token, name
    assert _open(root).index_token() == token, "a second open converted again"


def test_a_converted_store_is_opened_without_conversion(tmp_path):
    """The stamp is checked before (and again under) the lock: a second
    open of a converted store reads the claim file and nothing else, and
    leaves every file where it was."""
    for layout in ("bare-format2", "sqlite-schema1"):
        root = tmp_path / layout
        lay_down(root, layout)
        _open(root)
        before = {p: _stat_sig(p) for p in root.rglob("*") if p.is_file()}
        with io_faults.injected(IOFaultPlan()) as injector:
            store = _open(root)
        assert injector.counters == {"read": 1}, layout
        store.harvest_evidence()
        assert {p: _stat_sig(p) for p in root.rglob("*")
                if p.is_file()} == before, layout


def test_a_sqlite_store_keeps_what_it_cannot_convert(tmp_path):
    """The corrupt row and the quarantine table's row land in
    ``quarantine/``, and the database survives under a new name."""
    root = tmp_path / "old"
    lay_down(root, "sqlite-schema1")
    store = _open(root)
    assert "run-005" not in store.list() and not (root / "run-005.json").exists()
    held = {p.name: json.loads(p.read_text())
            for p in (root / "quarantine").iterdir()}
    assert sorted(held) == ["run-001.sqlite-1.json", "run-005.sqlite.json"]
    assert held["run-005.sqlite.json"]["seq"] == 9
    assert held["run-001.sqlite-1.json"]["reason"] == "payload checksum mismatch"
    assert (root / "store.sqlite3.converted").is_file()
    assert not any(p.name.startswith("store.sqlite3") and
                   not p.name.startswith("store.sqlite3.converted")
                   for p in root.iterdir())


def _converted(root: Path):
    """What a conversion left, as a reader sees it: the pinned answers,
    the file names (a torn ``*.tmp`` is invisible) and the quarantine."""
    store = _open(root)
    names = sorted(str(p.relative_to(root)) for p in root.rglob("*")
                   if p.is_file() and p.suffix != ".tmp")
    held = {p.name: p.read_text() for p in (root / "quarantine").glob("*")}
    return digests(store), store.info().aggregated_runs, names, held


def test_a_crash_anywhere_in_a_conversion_converts_again(tmp_path):
    """A kill at each I/O call of the conversion, then a reopen: the
    same store as the conversion that was never interrupted — for the
    database and for the last file layout, whose records are rewritten."""
    for layout in ("sqlite-schema1", "segments-layout2"):
        _crash_anywhere(tmp_path / layout, layout)


def _crash_anywhere(tmp_path: Path, layout: str) -> None:
    lay_down(tmp_path / "clean", layout)
    with io_faults.injected(IOFaultPlan()) as counted:
        _open(tmp_path / "clean")
    want = _converted(tmp_path / "clean")
    calls = dict(counted.counters)
    assert calls["replace"] > len(RECORDS), calls
    for op, n in sorted(calls.items()):
        for at in range(n):
            root = tmp_path / f"{op}-{at}"
            lay_down(root, layout)
            plan = IOFaultPlan(faults=(IOFault(op=op, at=at, kind="crash"),))
            with io_faults.injected(plan), pytest.raises(SimulatedCrash):
                _open(root)
            assert _converted(root) == want, (op, at)


if __name__ == "__main__":
    pins = {}
    for layout in LAYOUTS:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / layout
            lay_down(root, layout)
            store = _open(root)
            for run_id in store.list():
                try:  # quarantines a row the store still holds
                    store.load(run_id)
                except StoreCorruption:
                    pass
            pins[layout] = digests(store)
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(pins)} layouts)")
