"""The store scrub (``repro store verify`` / ``ExperimentStore.verify``):
clean stores, corrupt payloads, divergent summaries, missing payloads,
and orphaned record files."""

import json

from repro.storage import ExperimentStore, RunRecord


def _record(run_id: str, tag: int = 0) -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="scrub",
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0 + tag,
        search_done_time=None,
        pairs_tested=tag,
        total_requests=tag,
        peak_cost=float(tag),
    )


def test_clean_store_verifies(tmp_path):
    store = ExperimentStore(tmp_path / "runs")
    for i in range(3):
        store.save(_record(f"r{i}", i))
    report = store.verify()
    assert report.clean
    assert report.checked == 3
    assert report.ok == 3
    assert report.backend == "file"
    assert "3 record(s): 3 ok" in str(report)
    assert report.to_dict()["clean"] is True


def test_empty_store_is_clean(tmp_path):
    report = ExperimentStore(tmp_path / "runs").verify()
    assert report.clean and report.checked == 0


def test_corrupt_payload_reported_and_quarantined(tmp_path):
    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    store.save(_record("r0"))
    store.save(_record("r1", 1))
    (tmp_path / "runs" / "r0.json").write_text("}}} torn {{{")
    report = store.verify()
    assert not report.clean
    assert [run_id for run_id, _ in report.corrupt] == ["r0"]
    assert report.ok == 1
    assert report.quarantined  # the bytes were preserved, not dropped
    assert "repro store rebuild" in str(report)


def test_missing_payload_reported(tmp_path):
    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    store.save(_record("r0"))
    (tmp_path / "runs" / "r0.json").unlink()
    report = store.verify()
    assert report.missing == ["r0"]
    assert not report.clean


def test_summary_divergence_detected(tmp_path):
    """The overwrite-crash window: payload updated, index summary stale."""
    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    store.save(_record("r0"))
    store.compact()  # fold segments so the base index is the whole truth
    merged = store.backend.read_merged()
    stale = dict(merged["r0"])
    stale["summary"] = dict(stale["summary"], peak_cost=999.0)
    store.backend._write_base(dict(merged, r0=stale))
    report = ExperimentStore(tmp_path / "runs", cache_size=0).verify()
    assert report.summary_divergent == ["r0"]
    assert not report.clean


def test_orphan_reported_but_benign(tmp_path):
    store = ExperimentStore(tmp_path / "runs")
    store.save(_record("r0"))
    payload = json.loads((tmp_path / "runs" / "r0.json").read_text())
    (tmp_path / "runs" / "ghost.json").write_text(json.dumps(payload))
    report = store.verify()
    assert report.orphans == ["ghost.json"]
    assert report.clean  # orphans never fail the scrub


def test_invalid_record_reported(tmp_path):
    """A checksum-valid envelope around a malformed record body."""
    from repro.storage.codec import encode
    from repro.storage.file_backend import _envelope

    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    store.save(_record("r0"))
    (tmp_path / "runs" / "r0.json").write_text(
        "".join(_envelope(encode({"run_id": "r0"}))))
    report = ExperimentStore(tmp_path / "runs", cache_size=0).verify()
    assert [run_id for run_id, _ in report.invalid] == ["r0"]
    assert not report.clean
