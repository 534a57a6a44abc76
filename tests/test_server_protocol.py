"""Tests for the JSONL TCP protocol, client shim, and server thread."""

import json
import socket

import pytest

from repro.server import ServerBusy, ServerClient, ServerThread, TenantPolicy


@pytest.fixture(scope="module")
def server():
    with ServerThread(max_concurrent=2, queue_limit=4, slice_events=200) as srv:
        yield srv


class TestProtocol:
    def test_ping(self, server):
        with ServerClient(server.host, server.port) as client:
            assert client.ping()

    def test_diagnose_returns_record_dict(self, server):
        with ServerClient(server.host, server.port) as client:
            record = client.diagnose("tester", iterations=20, run_id="wire-1")
        assert record["run_id"] == "wire-1"
        assert record["app_name"] == "tester"
        assert record["status"] == "complete"
        assert record["shg_nodes"]  # the full record crossed the wire

    def test_progress_streaming(self, server):
        events = []
        with ServerClient(server.host, server.port) as client:
            client.diagnose("tester", iterations=20, progress=events.append)
        kinds = [e["event"] for e in events]
        assert "session-queued" in kinds
        assert "session-started" in kinds
        assert "session-finished" in kinds

    def test_search_overrides_cross_the_wire(self, server):
        with ServerClient(server.host, server.port) as client:
            record = client.diagnose(
                "tester", iterations=20,
                search={"cost_limit": 7.5, "min_interval": 5.0},
            )
        assert record["config"]["cost_limit"] == 7.5
        assert record["config"]["min_interval"] == 5.0

    def test_store_roundtrip(self, server, tmp_path):
        from repro.storage import ExperimentStore

        with ServerClient(server.host, server.port) as client:
            record = client.diagnose(
                "tester", iterations=20, run_id="stored",
                store=str(tmp_path / "runs"),
            )
        loaded = ExperimentStore(tmp_path / "runs").load("stored")
        assert loaded.to_dict() == record

    def test_retired_engine_loop_field_is_ignored(self, server):
        """Clients written when the engine had a selectable loop still
        send the field; it is dropped like any unknown request field."""
        from repro.obs import deterministic_metrics

        with ServerClient(server.host, server.port) as client:
            old = client.diagnose("tester", iterations=20, run_id="wire-loop",
                                  engine_loop="legacy")
            new = client.diagnose("tester", iterations=20, run_id="wire-loop")
        for record in (old, new):
            record["metrics"] = deterministic_metrics(record["metrics"])
        assert old == new
        assert old["status"] == "complete"

    def test_unknown_app_is_error(self, server):
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(RuntimeError, match="unknown application"):
                client.diagnose("nosuch")
            # The connection survives the error.
            assert client.ping()

    def test_missing_history_path_is_error(self, server, tmp_path):
        typo = tmp_path / "typo" / "runs"
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(RuntimeError,
                               match="StoreError: history path .* does not exist"):
                client.diagnose("tester", iterations=20, history=str(typo))
            assert client.ping()
        assert not (tmp_path / "typo").exists()

    def test_history_directory_without_a_store_is_error(self, server,
                                                        tmp_path):
        """An existing directory that holds no store fails the request
        over the wire, and the server writes nothing into it."""
        empty = tmp_path / "empty"
        empty.mkdir()
        with ServerClient(server.host, server.port) as client:
            with pytest.raises(RuntimeError,
                               match="StoreError: .* holds no store"):
                client.diagnose("tester", iterations=20, history=str(empty))
            assert client.ping()
        assert list(empty.iterdir()) == []

    def test_unknown_op_is_error(self, server):
        with ServerClient(server.host, server.port) as client:
            event = next(client.request({"op": "frobnicate"}))
        assert event["event"] == "error"

    def test_malformed_json_is_error(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            event = json.loads(f.readline())
        assert event["event"] == "error"

    def test_metrics_op(self, server):
        with ServerClient(server.host, server.port) as client:
            client.diagnose("tester", iterations=20)
            reply = client.metrics()
        assert reply["metrics"]["sessions_completed"] >= 1
        assert "repro_server_sessions_completed" in reply["prom"]

    def test_concurrent_clients(self, server):
        import threading

        records, errors = [], []

        def one(i):
            try:
                with ServerClient(server.host, server.port) as client:
                    records.append(client.diagnose(
                        "tester", iterations=20, run_id=f"conc-{i}"
                    ))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert {r["run_id"] for r in records} == {f"conc-{i}" for i in range(4)}


class TestServeCommand:
    def test_sigint_shutdown_is_clean_with_open_connection(self):
        """Ctrl-C with a connected client must exit 0 without dumping
        CancelledError tracebacks from the cancelled connection handlers."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            host, port = banner.split()[3].rsplit(":", 1)
            with ServerClient(host, int(port)) as client:
                assert client.ping()
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        tail = proc.stdout.read()
        assert "Traceback" not in tail
        assert "server stopped" in tail


class TestTenantOverWire:
    def test_tenant_policy_applies(self):
        with ServerThread(
            max_concurrent=2, slice_events=200,
            tenants={"small": TenantPolicy(cost_limit=2.0)},
        ) as srv:
            with ServerClient(srv.host, srv.port) as client:
                record = client.diagnose(
                    "tester", iterations=20, tenant="small",
                    search={"cost_limit": 50.0},
                )
        assert record["config"]["cost_limit"] == 2.0

    def test_rejection_over_wire(self):
        # queue_limit=1 with the one slot busy and one session waiting:
        # the next submission must be rejected with a ServerBusy the
        # client shim re-raises.  No race and no dependence on how long a
        # session runs: the holder's session sits inside the server (on
        # the service's executor seam, off the serving loop) until the
        # test releases it, which it does only after the rejection; and
        # the request that must be shed is only sent once the server's
        # own metrics show the queue full.
        import threading
        import time

        release = threading.Event()

        class HeldExecutor:
            """The campaign executors' ``run`` contract, with the holder's
            session parked on an event the test owns."""

            def run(self, fn, payloads):
                for index, payload in enumerate(payloads):
                    if payload["run_id"] == "holder":
                        assert release.wait(timeout=120), "holder never released"
                    yield index, fn(payload)

        with ServerThread(max_concurrent=1, queue_limit=1, slice_events=10,
                          executor=HeldExecutor()) as srv, \
                ServerClient(srv.host, srv.port) as probe:
            def wait_for(**want):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    metrics = probe.metrics()["metrics"]
                    if all(metrics[k] == v for k, v in want.items()):
                        return metrics
                    time.sleep(0.002)
                raise AssertionError(f"server never reached {want}: {metrics}")

            records = {}

            def session(name):
                with ServerClient(srv.host, srv.port) as client:
                    records[name] = client.diagnose(
                        "tester", iterations=20, run_id=name)

            holder = threading.Thread(target=session, args=("holder",))
            waiter = threading.Thread(target=session, args=("waiter",))
            try:
                holder.start()
                wait_for(active_sessions=1, queue_depth=0)
                waiter.start()
                wait_for(active_sessions=1, queue_depth=1)  # the queue is full
                with pytest.raises(ServerBusy, match="queue full"):
                    probe.diagnose("tester", iterations=20)
                # still held: nothing finished while the request was shed
                assert probe.metrics()["metrics"]["sessions_completed"] == 0
            finally:
                release.set()
            holder.join(timeout=120)
            waiter.join(timeout=120)
            assert not holder.is_alive() and not waiter.is_alive()
            # shedding one request cost the admitted ones nothing
            assert {n: r["status"] for n, r in records.items()} == {
                "holder": "complete", "waiter": "complete"}
            metrics = probe.metrics()["metrics"]
            assert metrics["sessions_rejected"] == 1
            assert metrics["sessions_completed"] == 2
