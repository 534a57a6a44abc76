"""The record codec: lossless, half the bytes, encoded once.

:mod:`repro.storage.codec` is the one text a record has — on disk inside
the record envelope and on the wire inside the ``result`` event.  These
tests hold it to the dict it encodes (for every node shape a legacy
record can hold, and for every record the other fixtures pin), to its
byte budget on the wire, to the one encode a write-through request pays,
and to the checksum over the stored bytes.
"""

import json
import socket
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import ServerClient, ServerThread
from repro.server.service import DiagnosisService
from repro.storage import ExperimentStore, RunRecord, StoreCorruption
from repro.storage import records as records_module
from repro.storage.codec import decode, encode
from tests.test_harvest_aggregate import make_run
from tests.test_legacy_stores import LAYOUTS, lay_down


def round_trip(record: dict) -> dict:
    return decode(json.loads(encode(record)))


def assert_same(got: dict, want: dict) -> None:
    """Equal, with every key order, every type and every float's sign
    (and NaN) kept: the JSON of the two is the same text."""
    assert json.dumps(got) == json.dumps(want)


# ---------------------------------------------------------------------------
# every node shape
# ---------------------------------------------------------------------------
KEYS = ("id", "hypothesis", "focus", "state", "priority", "persistent",
        "value", "t_requested", "t_concluded", "quality", "parents",
        "children")
floats = st.one_of(
    st.none(), st.floats(), st.sampled_from([-0.0, 0.0, 1e308, -1.7e308,
                                             5e-324, 2.0 ** 70]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats,
                    st.text(max_size=8))
ids = st.lists(st.integers(0, 10 ** 6), unique=True, max_size=6)
NODE = st.fixed_dictionaries({
    "id": st.integers(0, 10 ** 6),
    "hypothesis": st.sampled_from(["CPUbound", "ExcessiveSyncWaitingTime",
                                   "TopLevelHypothesis"]),
    "focus": st.text(max_size=30),
    "state": st.sampled_from(["true", "false", "pruned", "unknown"]),
    "priority": st.sampled_from(["low", "medium", "high"]),
    "persistent": st.booleans(),
    "value": floats,
    "t_requested": floats,
    "t_concluded": floats,
    "quality": st.one_of(st.none(), st.text(alphabet="aé€ü😀 -", max_size=8)),
    "parents": ids,
    "children": ids,
})


@st.composite
def node_lists(draw):
    nodes = []
    for _ in range(draw(st.integers(0, 8))):
        node = draw(NODE)
        if draw(st.booleans()):  # a legacy shape: keys missing or added
            drop = draw(st.sets(st.sampled_from(KEYS)))
            node = {k: v for k, v in node.items() if k not in drop}
            node.update(draw(st.dictionaries(st.text(max_size=6), scalars,
                                              max_size=3)))
        if draw(st.booleans()):
            node = dict(reversed(node.items()))
        nodes.append(node)
    return nodes


@settings(max_examples=300, deadline=None)
@given(node_lists())
def test_every_node_shape_round_trips(nodes):
    record = {"run_id": "r", "shg_nodes": nodes, "notes": "ünïcode"}
    got = round_trip(record)
    assert_same(got, record)
    assert [list(node) for node in got["shg_nodes"]] \
        == [list(node) for node in nodes]


def test_a_record_without_nodes_round_trips():
    for record in ({"run_id": "r"}, {"run_id": "r", "shg_nodes": []}):
        assert_same(round_trip(record), record)


@pytest.mark.parametrize("nodes", ["nodes", {"id": 1}, [1, 2], [{}, None]])
def test_nodes_that_are_no_list_of_dicts_are_refused(nodes):
    with pytest.raises(TypeError):
        encode({"run_id": "r", "shg_nodes": nodes})


def test_column_form_is_columns_over_one_string_table():
    record = make_run(3).to_dict()
    form = json.loads(encode(record))
    nodes = form["shg_nodes"]
    assert list(nodes["columns"]) == list(record["shg_nodes"][0])
    assert nodes["interned"] == ["hypothesis", "focus", "state", "priority"]
    assert "shapes" not in nodes  # one shape: no per-node shape index
    strings = nodes["strings"]
    assert len(strings) == len(set(strings))
    assert [strings[i] for i in nodes["columns"]["focus"]] \
        == [node["focus"] for node in record["shg_nodes"]]
    # every other field keeps its place and its form
    assert list(form) == list(record)
    assert {k: v for k, v in form.items() if k != "shg_nodes"} \
        == {k: v for k, v in record.items() if k != "shg_nodes"}


# ---------------------------------------------------------------------------
# every pinned record
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_legacy_fixture_round_trips(tmp_path, layout):
    """The payload of every record file (or database row) each old
    layout holds, as that layout spells it."""
    root = tmp_path / layout
    lay_down(root, layout)
    payloads = []
    if layout == "sqlite-schema1":
        conn = sqlite3.connect(root / "store.sqlite3")
        try:
            payloads = [json.loads(text) for (text,) in
                        conn.execute("SELECT payload FROM runs")]
        finally:
            conn.close()
    else:
        for path in sorted(root.glob("run-*.json")):
            data = json.loads(path.read_text())
            payloads.append(data["record"] if "format" in data else data)
    assert len(payloads) >= 5
    for payload in payloads:
        assert_same(round_trip(payload), payload)


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------
def test_a_record_is_encoded_once_until_a_field_changes():
    record = make_run(1)
    text = record.encoded()
    assert record.encoded() is text
    assert decode(json.loads(text)) == record.to_dict()
    record.notes = "changed"
    assert record.encoded() is not text
    assert decode(json.loads(record.encoded()))["notes"] == "changed"
    text = record.encoded()
    record.shg_nodes[0]["value"] = 0.5  # in place: not detectable ...
    assert record.encoded() is text
    record.invalidate_caches()  # ... until the caller says so
    assert decode(json.loads(record.encoded()))["shg_nodes"][0]["value"] == 0.5


# ---------------------------------------------------------------------------
# the stored bytes
# ---------------------------------------------------------------------------
def test_a_record_file_holds_the_codec_text_under_its_checksum(tmp_path):
    import hashlib

    store = ExperimentStore(tmp_path / "runs")
    record = make_run(2)
    store.save(record)
    raw = (tmp_path / "runs" / "run-002.json").read_bytes()
    head = b'{"format": 3, "sha256": "%s", "record": ' % hashlib.sha256(
        record.encoded().encode()).hexdigest().encode()
    assert raw == head + record.encoded().encode() + b"}"
    assert ExperimentStore(tmp_path / "runs", cache_size=0).load(
        "run-002").to_dict() == record.to_dict()


def test_one_changed_byte_of_the_record_text_is_quarantined(tmp_path):
    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    record = make_run(4)
    store.save(record)
    path = tmp_path / "runs" / "run-004.json"
    raw = path.read_bytes()
    # A digit inside the record text, so the JSON still parses: only the
    # checksum over the stored bytes can tell.
    at = raw.index(b'"pairs_tested":') + len(b'"pairs_tested":')
    flipped = b"9" if raw[at:at + 1] != b"9" else b"8"
    path.write_bytes(raw[:at] + flipped + raw[at + 1:])
    with pytest.raises(StoreCorruption, match="checksum mismatch") as info:
        store.load("run-004")
    assert info.value.quarantined_to == tmp_path / "runs" / "quarantine" / "run-004.json"
    assert info.value.quarantined_to.read_bytes() != raw
    assert "run-004" not in store.list()


def test_the_checksum_is_over_the_stored_bytes_not_the_payload(tmp_path):
    """A byte the payload cannot see (a space the JSON parser skips)
    still fails the check, and a text of the same payload spelled
    differently passes under its own hash: what is hashed is the file."""
    import hashlib

    store = ExperimentStore(tmp_path / "runs", cache_size=0)
    record = make_run(5)
    store.save(record)
    path = tmp_path / "runs" / "run-005.json"
    raw = path.read_bytes()
    at = raw.index(b'"app_name":')
    path.write_bytes(raw[:at] + b" " + raw[at:])
    with pytest.raises(StoreCorruption, match="checksum mismatch"):
        store.load("run-005")
    spaced = json.dumps(json.loads(record.encoded())).encode()
    path.write_bytes(b'{"format": 3, "sha256": "%s", "record": %s}' % (
        hashlib.sha256(spaced).hexdigest().encode(), spaced))
    assert store.load("run-005").to_dict() == record.to_dict()


# ---------------------------------------------------------------------------
# the wire
# ---------------------------------------------------------------------------
@pytest.fixture
def served(monkeypatch):
    """A server whose every session's record is kept, and a count of the
    record encodes."""
    records, encodes = [], []
    run = DiagnosisService.run

    async def keeping(self, request):
        record = await run(self, request)
        records.append(record)
        return record

    def counting(data):
        encodes.append(data["run_id"])
        return encode(data)

    monkeypatch.setattr(DiagnosisService, "run", keeping)
    monkeypatch.setattr(records_module, "encode", counting)
    with ServerThread(max_concurrent=1) as srv:
        yield srv, records, encodes


def test_the_result_line_is_half_the_plain_dict(served):
    srv, records, _encodes = served
    request = {"op": "diagnose", "app": "poisson", "version": "A",
               "iterations": 300, "run_id": "wire"}
    with socket.create_connection((srv.host, srv.port), timeout=60) as sock, \
            sock.makefile("rwb") as stream:
        stream.write(json.dumps(request).encode() + b"\n")
        stream.flush()
        line = stream.readline()
    (record,) = records
    plain = json.dumps({"event": "result", "record": record.to_dict()})
    assert len(line) <= 0.5 * len(plain), (len(line), len(plain))
    event = json.loads(line)
    assert event["event"] == "result"
    assert decode(event["record"]) == record.to_dict()
    with ServerClient(srv.host, srv.port) as client:
        got = client.diagnose("poisson", version="A", iterations=300,
                              run_id="wire-2")
    assert got == records[-1].to_dict()
    assert RunRecord.from_dict(got).to_dict() == got


def test_a_write_through_request_encodes_its_record_once(served, tmp_path):
    srv, records, encodes = served
    with ServerClient(srv.host, srv.port) as client:
        got = client.diagnose("tester", iterations=40, run_id="once",
                              store=str(tmp_path / "runs"))
    assert encodes == ["once"]  # the store's text is the wire's
    assert got == records[-1].to_dict()
    loaded = ExperimentStore(tmp_path / "runs", cache_size=0).load("once")
    assert loaded.to_dict() == got
