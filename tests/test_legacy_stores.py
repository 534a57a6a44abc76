"""File stores from before the layout stamp: converted once on open.

Five layouts older releases left on disk are laid down here by hand,
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
* ``segments-unstamped`` — a current-shape segmented store whose claim
  file has no ``"format"`` stamp.

``tests/golden/legacy_stores.json`` pins, per layout, the sha256 of the
index entries, of every loaded record and of the harvest text.  It was
written at the parent of the change that made ``rebuild()`` the one
converter, where the reader still branched per format and
``summaries()`` backfilled the index: opening the same bytes now must
give the same three answers.  Regenerate (only when the answers are
meant to move) with ``PYTHONPATH=src python tests/test_legacy_stores.py``.
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
from repro.storage import ExperimentStore
from repro.storage.summary import meta_for_record
from tests.test_harvest_aggregate import make_run

GOLDEN = Path(__file__).parent / "golden" / "legacy_stores.json"
LAYOUTS = ("monolithic-format3", "bare-format2", "format1-records",
           "format1-sidecar", "segments-unstamped")

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


def lay_down(root: Path, layout: str) -> None:
    """Write *layout* under *root* exactly as the old release left it."""
    root.mkdir(parents=True)
    for record in RECORDS:
        payload = record.to_dict()
        if layout == "format1-records":
            body = payload
        else:
            body = {"format": 2, "record": payload,
                    "sha256": hashlib.sha256(
                        _canonical(payload).encode("utf-8")).hexdigest()}
        (root / f"{record.run_id}.json").write_text(json.dumps(body))
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
    _write(root / "index.json", {"format": 3, "generation": 1, "runs": {
        r.run_id: meta for r, meta in zip(RECORDS[:2], metas[:2])}})
    names = []
    for counter, (record, meta) in enumerate(zip(RECORDS[2:], metas[2:])):
        segment = {"format": 1, "ops": [
            {"op": "put", "run_id": record.run_id, "meta": meta}]}
        if layout == "format1-sidecar":  # ignored by readers: poisoned
            segment["aggregate"] = dict(
                _aggregates(metas[:1]), min_seq=meta["seq"],
                max_seq=meta["seq"])
        names.append(f"{counter:012d}.json")
        _write(root / "segments" / names[-1], segment)
    _write(root / "segments" / "_state.json", {
        "next_seq": len(metas), "counter": len(names), "generation": 1})
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
    is that same read."""
    entries = list(store.summaries().items())
    return {
        "index_entries": _sha(entries),
        "records": _sha([store.load(run_id).to_dict()
                         for run_id, _meta in entries]),
        "harvest": _sha(harvest(store, pool=None,
                                include_thresholds=True).to_text()),
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
    """After the open: a stamped claim file, a format-3 base, envelopes
    only, no segments and a sidecar of the current format."""
    root = tmp_path / layout
    lay_down(root, layout)
    _open(root)
    state = json.loads((root / "segments" / "_state.json").read_text())
    assert state["format"] >= 1 and state["next_seq"] > max(
        meta["seq"] for meta in json.loads(
            (root / "index.json").read_text())["runs"].values())
    assert json.loads((root / "index.json").read_text())["format"] == 3
    assert sorted(os.listdir(root / "segments")) == ["_state.json"]
    assert json.loads((root / "index.aggregate").read_text())["format"] == 2
    for record in RECORDS:
        body = json.loads((root / f"{record.run_id}.json").read_text())
        assert body["format"] == 2 and body["record"] == record.to_dict()


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
    open of a converted store leaves every file where it was."""
    root = tmp_path / "old"
    lay_down(root, "bare-format2")
    _open(root)
    before = {p: _stat_sig(p) for p in root.rglob("*") if p.is_file()}
    _open(root).harvest_evidence()
    assert {p: _stat_sig(p) for p in root.rglob("*") if p.is_file()} == before


if __name__ == "__main__":
    pins = {}
    for layout in LAYOUTS:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / layout
            lay_down(root, layout)
            pins[layout] = digests(_open(root))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(pins)} layouts)")
