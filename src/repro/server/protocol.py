"""JSONL-over-TCP serving: the wire behind ``repro serve``.

One request per line, one or more JSON events per response — a protocol
greppable with ``nc`` and implementable from any language without
dependencies.  Ops:

* ``{"op": "ping"}`` → ``{"event": "pong"}``
* ``{"op": "metrics"}`` → the ``repro_server_*`` counters as JSON plus
  their Prometheus text exposition;
* ``{"op": "diagnose", "app": "poisson", ...}`` → streamed
  ``session-*`` progress events (when ``"progress": true``) ending with
  ``{"event": "result", "record": {...}}`` or ``{"event": "error"}``.
  Fields mirror :class:`~repro.server.service.SessionRequest`.  The
  record is the store's :mod:`~repro.storage.codec` form, spliced in as
  the record's memoised text (a record a store saved is not encoded
  again); :meth:`ServerClient.diagnose` decodes it to ``to_dict()``.

A request line longer than 64 KiB (asyncio's stream limit) is answered
with one ``error`` event naming the limit, and the connection closed.
A client that hangs up mid-session is sent nothing more; its session
finishes server-side.

Requests on one connection are served in arrival order but execute
concurrently with every other connection's — the load generator opens
one connection per simulated client (closed-loop), which is what keeps
its p99 measurable.

:class:`ServerClient` is the synchronous shim the benchmark and tests
drive; :class:`ServerThread` runs a whole service+server on a background
thread for in-process use.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Any, Dict, Iterator, Optional, Set

from ..obs.metrics import metrics_to_prometheus
from ..storage.codec import decode
from .service import DiagnosisService, ServerBusy, SessionRequest

__all__ = ["start_server", "serve_forever", "ServerClient", "ServerThread"]

#: The longest request line a connection accepts: asyncio's default
#: ``StreamReader`` limit, passed explicitly so the error can name it.
_LINE_LIMIT = 2 ** 16

#: Request fields copied verbatim onto :class:`SessionRequest`.
_REQUEST_FIELDS = (
    "version", "iterations", "history", "store", "run_id", "overwrite",
    "tenant", "search", "harvest_options", "on_failure", "max_events",
    "max_virtual_time",
)


def _session_request(message: Dict[str, Any]) -> SessionRequest:
    app = message.get("app")
    if not isinstance(app, str) or not app:
        raise ValueError('diagnose needs "app": a catalog application name')
    kwargs = {k: message[k] for k in _REQUEST_FIELDS if k in message}
    return SessionRequest(app=app, **kwargs)


async def _handle_connection(
    service: DiagnosisService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    async def send(event: Dict[str, Any]) -> None:
        writer.write(json.dumps(event).encode() + b"\n")
        await writer.drain()

    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # past the limit the stream cannot be framed again:
                # answer once and hang up
                await send({
                    "event": "error",
                    "error": f"request line longer than {_LINE_LIMIT} bytes",
                })
                break
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                message = json.loads(line)
                op = message.get("op")
                if op == "ping":
                    await send({"event": "pong"})
                elif op == "metrics":
                    metrics = service.server_metrics()
                    await send({
                        "event": "metrics",
                        "metrics": metrics,
                        "prom": metrics_to_prometheus(
                            metrics, prefix="repro_server"
                        ),
                    })
                elif op == "diagnose":
                    await _handle_diagnose(service, message, send, writer)
                else:
                    await send({
                        "event": "error", "error": f"unknown op {op!r}",
                    })
            except (ValueError, TypeError) as exc:
                await send({
                    "event": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                })
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away; its sessions finish server-side
    except asyncio.CancelledError:
        # Server shutdown cancels connection handlers mid-read; treat it
        # like a disconnect so teardown doesn't log a CancelledError
        # traceback per open connection.
        pass
    finally:
        writer.close()


async def _handle_diagnose(service, message, send, writer) -> None:
    request = _session_request(message)
    loop = asyncio.get_running_loop()
    if message.get("progress"):
        # Progress events are produced on this same loop; schedule the
        # writes as tasks so a slow client never blocks the scheduler.
        # Once the connection is gone no more are sent (the session
        # finishes server-side); each write is held until it settles and
        # its outcome retrieved, a client that went away being no error.
        sends: Set[asyncio.Task] = set()

        def settled(task: asyncio.Task) -> None:
            sends.discard(task)
            if not task.cancelled():
                task.exception()

        def progress(event: Dict[str, Any]) -> None:
            if not writer.is_closing():
                task = loop.create_task(send(event))
                sends.add(task)
                task.add_done_callback(settled)

        request.progress = progress
    try:
        record = await service.run(request)
    except ServerBusy as exc:
        await send({"event": "rejected", "error": str(exc)})
    except Exception as exc:  # noqa: BLE001 - reported to the client
        await send({
            "event": "error", "error": f"{type(exc).__name__}: {exc}",
        })
    else:
        writer.write(b'{"event": "result", "record": %s}\n'
                     % record.encoded().encode())
        await writer.drain()


async def start_server(
    service: DiagnosisService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Bind the JSONL server (``port=0`` picks a free port)."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port,
        limit=_LINE_LIMIT,
    )


async def serve_forever(
    service: DiagnosisService,
    host: str = "127.0.0.1",
    port: int = 4077,
    *,
    ready: Optional[Any] = None,
) -> None:
    """Run the server until cancelled (the ``repro serve`` main loop).

    ``ready`` is an optional callable receiving the bound ``(host,
    port)`` once listening — startup signalling for tests and scripts.
    """
    server = await start_server(service, host, port)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.stop()
        service.pool.close()


# ---------------------------------------------------------------------------
# synchronous client shim
# ---------------------------------------------------------------------------
class ServerClient:
    """Blocking JSONL client for one connection to a diagnosis server.

    The shim the benchmark's closed-loop clients and the docs' examples
    use::

        with ServerClient(host, port) as client:
            record = client.diagnose("poisson", version="C", history="runs/")
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, message: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Send one op; yield response events until the terminal one."""
        self._file.write(json.dumps(message).encode() + b"\n")
        self._file.flush()
        while True:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            event = json.loads(line)
            yield event
            if event.get("event") in ("pong", "metrics", "result",
                                      "error", "rejected"):
                return

    def ping(self) -> bool:
        return next(self.request({"op": "ping"}))["event"] == "pong"

    def metrics(self) -> Dict[str, Any]:
        return next(self.request({"op": "metrics"}))

    def diagnose(self, app: str, *, progress=None, **fields) -> Dict[str, Any]:
        """Run one diagnosis; returns the record as a dict (its
        ``RunRecord.to_dict()``, decoded from the result event).

        Raises :class:`ServerBusy` on backpressure rejection and
        :class:`RuntimeError` on a server-side failure.  ``progress``
        receives streamed ``session-*`` events when given.
        """
        message = {"op": "diagnose", "app": app, **fields}
        if progress is not None:
            message["progress"] = True
        for event in self.request(message):
            kind = event.get("event")
            if kind == "result":
                return decode(event["record"])
            if kind == "rejected":
                raise ServerBusy(event.get("error", "rejected"))
            if kind == "error":
                raise RuntimeError(event.get("error", "server error"))
            if progress is not None:
                progress(event)
        raise ConnectionError("connection ended without a result")


# ---------------------------------------------------------------------------
# in-process server harness
# ---------------------------------------------------------------------------
class ServerThread:
    """A service + TCP server on a daemon thread with its own loop.

    For tests and the load generator: synchronous code starts it, reads
    ``host``/``port``, drives it with :class:`ServerClient`\\ s, and
    calls :meth:`stop`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 **service_kwargs) -> None:
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.service: Optional[DiagnosisService] = None
        self.host = host
        self.port = port
        self._service_kwargs = service_kwargs
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("diagnosis server failed to start")

    def _main(self) -> None:
        asyncio.run(self._async_main())

    async def _async_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = DiagnosisService(**self._service_kwargs)
        server = await start_server(self.service, self.host, self.port)
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            await self.service.stop()
            self.service.pool.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
