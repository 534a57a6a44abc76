"""Store integrity: payload checksums, quarantine, and recovery reports."""

import json

import pytest

from repro.storage import ExperimentStore, RunRecord, StoreCorruption, StoreError
from tests.test_store_segments import lay_down_old_store


def _tiny_record(run_id: str) -> RunRecord:
    return RunRecord(
        run_id=run_id,
        app_name="integrity",
        version="1",
        n_processes=1,
        nodes=["n0"],
        placement={"p0": "n0"},
        hierarchies={"Code": ["/Code"]},
        shg_nodes=[],
        profile={},
        finish_time=1.0,
        search_done_time=None,
        pairs_tested=0,
        total_requests=0,
        peak_cost=0.0,
    )


def _tamper(path, **changes):
    data = json.loads(path.read_text())
    data["record"].update(changes)
    path.write_text(json.dumps(data))


class TestChecksums:
    def test_round_trip_verifies(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(_tiny_record("r0"))
        data = json.loads((tmp_path / "runs" / "r0.json").read_text())
        assert data["format"] == 3
        assert len(data["sha256"]) == 64
        assert store.load("r0").run_id == "r0"

    def test_tampered_payload_quarantined_on_load(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(_tiny_record("r0"))
        _tamper(tmp_path / "runs" / "r0.json", pairs_tested=9999)
        with pytest.raises(StoreCorruption, match="checksum mismatch") as info:
            store.load("r0")
        assert info.value.quarantined_to == tmp_path / "runs" / "quarantine" / "r0.json"
        assert info.value.quarantined_to.exists()
        assert not (tmp_path / "runs" / "r0.json").exists()
        assert "r0" not in store.list()  # dropped from the index too
        with pytest.raises(StoreError, match="no stored run"):
            store.load("r0")

    def test_unparseable_file_quarantined_on_load(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(_tiny_record("r0"))
        (tmp_path / "runs" / "r0.json").write_text("{ not json")
        with pytest.raises(StoreCorruption, match="unparseable"):
            store.load("r0")
        assert (tmp_path / "runs" / "quarantine" / "r0.json").exists()

    def test_legacy_checksumless_record_still_loads(self, tmp_path):
        """A pre-checksum (format-1) record is rewritten as an envelope
        by the open that converts its store."""
        root = tmp_path / "runs"
        lay_down_old_store(root, [_tiny_record("r0")], (0,))
        path = root / "r0.json"
        path.write_text(json.dumps(json.loads(path.read_text())["record"]))
        store = ExperimentStore(root)
        data = json.loads(path.read_text())
        assert data["format"] == 3 and len(data["sha256"]) == 64
        assert store.load("r0").to_dict() == _tiny_record("r0").to_dict()

    def test_bare_record_in_a_current_store_is_corruption(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        store.save(_tiny_record("r0"))
        path = tmp_path / "runs" / "r0.json"
        path.write_text(json.dumps(json.loads(path.read_text())["record"]))
        with pytest.raises(StoreCorruption, match="no record payload"):
            store.load("r0")
        assert (tmp_path / "runs" / "quarantine" / "r0.json").exists()
        # rebuild still re-adopts it, as an envelope
        (tmp_path / "runs" / "quarantine" / "r0.json").rename(path)
        assert store.rebuild_index().kept == ["r0"]
        assert json.loads(path.read_text())["format"] == 3

    def test_quarantine_names_never_collide(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        for _ in range(2):
            store.save(_tiny_record("r0"), overwrite=True)
            _tamper(tmp_path / "runs" / "r0.json", version="99")
            with pytest.raises(StoreCorruption):
                store.load("r0")
            store.save(_tiny_record("r0"), overwrite=True)
            _tamper(tmp_path / "runs" / "r0.json", version="98")
            with pytest.raises(StoreCorruption):
                store.load("r0")
        qdir = tmp_path / "runs" / "quarantine"
        assert len(list(qdir.glob("r0*.json"))) == 4


class TestRebuildReport:
    def test_rebuild_reports_kept_and_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path / "runs")
        for i in range(3):
            store.save(_tiny_record(f"r{i}"))
        _tamper(tmp_path / "runs" / "r1.json", pairs_tested=5)
        (tmp_path / "runs" / "garbage.json").write_text("][")
        report = store.rebuild_index()
        assert sorted(report.kept) == ["r0", "r2"]
        assert report.count == 2
        assert len(report.quarantined) == 2
        assert sorted(store.list()) == ["r0", "r2"]
        qdir = tmp_path / "runs" / "quarantine"
        assert {p.name for p in qdir.iterdir()} == {"r1.json", "garbage.json"}
        assert "quarantined" in str(report)

    def test_rebuild_skips_quarantine_directory(self, tmp_path):
        """A second rebuild must not re-process already-quarantined files."""
        store = ExperimentStore(tmp_path / "runs")
        store.save(_tiny_record("r0"))
        (tmp_path / "runs" / "bad.json").write_text("nope")
        first = store.rebuild_index()
        assert len(first.quarantined) == 1
        second = store.rebuild_index()
        assert second.kept == ["r0"]
        assert second.quarantined == []
