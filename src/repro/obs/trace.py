"""The structured search trace: events, bounded buffer, JSONL, replay.

One :class:`Tracer` observes one diagnosis.  Producers (the search, the
instrumentation manager, the cost gate) hold an *optional* reference and
guard every emission with ``if tracer is not None`` — a run without a
tracer pays nothing.  Events are stamped with virtual time from a clock
callable (normally ``lambda: engine.now``), buffered up to a capacity
bound, and optionally streamed line-by-line to a JSONL sink, so a trace
survives even when the run dies mid-diagnosis.

Event kinds and their payloads (the versioned schema):

===================  =======================================================
kind                 payload
===================  =======================================================
``run-start``        run_id, app, schema echo
``node-queued``      node, hypothesis, focus, priority, persistent
``node-active``      node, handle, cost
``node-concluded``   node, state (``true``/``false``), value, threshold
``node-flip``        node, from, to, value, threshold  (persistent retest)
``node-unknown``     node, reason
``node-sample-lost`` node, reason  (concluded pair kept, watch lost)
``node-pruned``      node, hypothesis, focus
``node-never-run``   node
``instr-insert``     handle, metric, focus, cost, processes, persistent
``instr-decimate``   handle, released
``instr-delete``     handle, cost
``gate-admit``       node, cost, total
``gate-halt``        total, limit
``gate-resume``      total, resume_level
``progress``         events, cost, active, pending, routed
``run-end``          reason (optional)
===================  =======================================================

Node lifecycle events carry enough state that :func:`replay_conclusions`
can rebuild the SHG conclusion set from the trace alone — the
end-to-end check that the trace is faithful.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "TraceEvent",
    "Tracer",
    "read_trace",
    "write_trace",
    "replay_conclusions",
]

#: Bump when an event kind's payload changes incompatibly.
TRACE_SCHEMA_VERSION = 1


class TraceError(ValueError):
    """Raised for malformed or schema-incompatible trace files."""


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation at a virtual-time instant."""

    t: float
    kind: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"t": self.t, "kind": self.kind}
        out.update(self.data)
        return out

    @staticmethod
    def from_dict(data: dict) -> "TraceEvent":
        payload = dict(data)
        try:
            t = float(payload.pop("t"))
            kind = str(payload.pop("kind"))
        except KeyError as exc:
            raise TraceError(f"trace event missing field {exc}") from None
        return TraceEvent(t=t, kind=kind, data=payload)


class Tracer:
    """Bounded, optionally streaming buffer of :class:`TraceEvent`.

    ``clock`` supplies the virtual timestamp (set to ``lambda:
    engine.now`` by the session).  ``capacity`` bounds the in-memory
    buffer: once full, further events are *counted* (``dropped``) but
    not buffered — though they are still written to ``stream`` when one
    is attached, so a streamed JSONL trace is always complete.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 200_000,
        stream: Optional[io.TextIOBase] = None,
    ) -> None:
        if capacity <= 0:
            raise TraceError(f"tracer capacity must be positive, got {capacity}")
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.capacity = capacity
        self.stream = stream
        self.dropped = 0
        self._events: List[TraceEvent] = []
        self._header_written = False

    # ------------------------------------------------------------------
    def emit(self, kind: str, **data) -> None:
        event = TraceEvent(t=self.clock(), kind=kind, data=data)
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self.dropped += 1
        if self.stream is not None:
            self._write_line(self.stream, event)

    @property
    def count(self) -> int:
        """Events observed (buffered + dropped)."""
        return len(self._events) + self.dropped

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    # ------------------------------------------------------------------
    # JSONL
    # ------------------------------------------------------------------
    def _write_line(self, fh, event: TraceEvent) -> None:
        if not self._header_written:
            fh.write(json.dumps(_header()) + "\n")
            self._header_written = True
        fh.write(json.dumps(event.to_dict()) + "\n")

    def write(self, path: Union[str, Path]) -> Path:
        """Dump the buffered events as a JSONL trace file."""
        return write_trace(self._events, path, dropped=self.dropped)


def _header(dropped: int = 0) -> dict:
    return {
        "kind": "trace-header",
        "schema": TRACE_SCHEMA_VERSION,
        "dropped": dropped,
    }


def write_trace(
    events: Iterable[TraceEvent], path: Union[str, Path], dropped: int = 0
) -> Path:
    """Write *events* as a JSONL trace: one header line, one event per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(dropped)) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_dict()) + "\n")
    return path


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a JSONL trace file, validating the schema header.

    Raises :class:`TraceError` on a missing/incompatible header or a
    malformed line (a torn *final* line — a crash landed mid-write — is
    dropped instead).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: bad trace header: {exc}") from None
    if header.get("kind") != "trace-header":
        raise TraceError(f"{path}: first line is not a trace header")
    schema = header.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TraceError(
            f"{path}: trace schema {schema!r} not supported "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    events: List[TraceEvent] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, TraceError) as exc:
            if lineno == len(lines):
                break  # torn final line: the writer died mid-append
            raise TraceError(f"{path}:{lineno}: bad trace line: {exc}") from None
    return events


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
def replay_conclusions(
    events: Iterable[TraceEvent],
) -> Dict[Tuple[str, str], str]:
    """Rebuild the final per-pair state from node lifecycle events.

    Returns ``{(hypothesis, focus): state}`` with the same state strings
    a serialised SHG uses (``true``/``false``/``pruned``/``unknown``/
    ``never-run``/...).  A trace is faithful exactly when this equals
    the record's own conclusion map — the round-trip the tests and the
    benchmark harness assert.
    """
    pairs: Dict[int, Tuple[str, str]] = {}
    states: Dict[Tuple[str, str], str] = {}

    def key_of(event: TraceEvent) -> Optional[Tuple[str, str]]:
        node = event.data.get("node")
        if node in pairs:
            return pairs[node]
        hyp, focus = event.data.get("hypothesis"), event.data.get("focus")
        if hyp is None or focus is None:
            return None
        return (str(hyp), str(focus))

    for event in events:
        if event.kind in ("node-queued", "node-pruned"):
            key = (str(event.data["hypothesis"]), str(event.data["focus"]))
            pairs[event.data["node"]] = key
            states[key] = "pruned" if event.kind == "node-pruned" else "queued"
        elif event.kind == "node-active":
            key = key_of(event)
            if key is not None:
                states[key] = "active"
        elif event.kind == "node-concluded":
            key = key_of(event)
            if key is not None:
                states[key] = str(event.data["state"])
        elif event.kind == "node-flip":
            key = key_of(event)
            if key is not None:
                states[key] = str(event.data["to"])
        elif event.kind == "node-unknown":
            key = key_of(event)
            if key is not None:
                states[key] = "unknown"
        elif event.kind == "node-never-run":
            key = key_of(event)
            if key is not None:
                states[key] = "never-run"
        # node-sample-lost deliberately leaves the concluded state alone:
        # that is exactly the satellite fix it documents.
    return states
