"""Simulated processes and their syscall vocabulary.

A simulated program is a Python generator function ``program(proc)`` that
yields *syscall* objects; the engine interprets each syscall, advances
virtual time, and resumes the generator.  Function attribution uses an
explicit stack managed by the :meth:`SimProcess.function` context manager —
the stack is examined at every yield point, so ``with`` blocks inside the
generator attribute time exactly like real call frames:

.. code-block:: python

    def program(proc):
        with proc.function("oned.f", "main"):
            for _ in range(iterations):
                with proc.function("sweep.f", "sweep1d"):
                    yield Compute(0.8)
                with proc.function("exchng1.f", "exchng1"):
                    yield Send(up, "1/0", 8192)
                    yield Recv(down, "1/0")
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Iterator, List, Optional, Tuple

from .errors import ProgramError

__all__ = [
    "Compute",
    "Send",
    "Isend",
    "Recv",
    "Irecv",
    "WaitReq",
    "IoOp",
    "Barrier",
    "Request",
    "Syscall",
    "ProcState",
    "SimProcess",
]


# --------------------------------------------------------------------------
# Syscalls
# --------------------------------------------------------------------------
def _reduce(self):
    """Pickle a frozen slotted value as a constructor call."""
    return (self.__class__, tuple(getattr(self, name) for name in self.__slots__))


# The hottest syscalls are slotted; ``__init__`` writes each slot once
# through its descriptor (``_set_*``), not the guarded object.__setattr__.
@dataclass(frozen=True, init=False)
class Compute:
    """Burn *seconds* of CPU time (stretched by instrumentation overhead).
    Its end is bound when yielded: the engine resumes the program without
    a heap round trip when nothing else is due first."""

    __slots__ = ("seconds",)
    seconds: float

    def __init__(self, seconds: float) -> None:
        _set_seconds(self, seconds)

    __reduce__ = _reduce


@dataclass(frozen=True, init=False)
class Send:
    """Blocking-buffered send: the sender pays a small CPU overhead, a
    bound event like a compute's end, and the message arrives at *dest*
    after the network transfer time."""

    __slots__ = ("dest", "tag", "size")
    dest: str
    tag: str
    size: float

    def __init__(self, dest: str, tag: str, size: float = 0.0) -> None:
        _set_dest(self, dest)
        _set_send_tag(self, tag)
        _set_size(self, size)

    __reduce__ = _reduce


@dataclass(frozen=True)
class Isend:
    """Non-blocking send; resumes with a completed :class:`Request`."""

    dest: str
    tag: str
    size: float = 0.0


@dataclass(frozen=True, init=False)
class Recv:
    """Blocking receive; blocked time is synchronisation waiting time
    attributed to the current function and the message tag.  A matched
    message costs the receive overhead, a bound event like a compute's."""

    __slots__ = ("src", "tag")
    src: str
    tag: str

    def __init__(self, src: str, tag: str) -> None:
        _set_src(self, src)
        _set_recv_tag(self, tag)

    __reduce__ = _reduce


_set_seconds, _set_dest, _set_send_tag, _set_size, _set_src, _set_recv_tag = (
    d.__set__ for d in (Compute.seconds, Send.dest, Send.tag, Send.size, Recv.src, Recv.tag))


@dataclass(frozen=True)
class Irecv:
    """Non-blocking receive; resumes immediately with a :class:`Request`."""

    src: str
    tag: str


@dataclass(frozen=True)
class WaitReq:
    """Block until *request* completes (MPI_Wait analogue)."""

    request: "Request"


@dataclass(frozen=True)
class IoOp:
    """Blocking I/O of *seconds* (ExcessiveIOBlockingTime signal)."""

    seconds: float


@dataclass(frozen=True)
class Barrier:
    """Global barrier over every process in the engine."""

    name: str = "Barrier"


Syscall = (Compute, Send, Isend, Recv, Irecv, WaitReq, IoOp, Barrier)


class Request:
    """Handle for a non-blocking operation."""

    __slots__ = ("src", "tag", "complete", "message")

    def __init__(self, src: str, tag: str):
        self.src = src
        self.tag = tag
        self.complete = False
        self.message = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "complete" if self.complete else "pending"
        return f"Request({self.src!r}, {self.tag!r}, {state})"


class ProcState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    CRASHED = "crashed"


class _StackSnap(tuple):
    """A canonical (interned) stack snapshot.

    One instance exists per distinct stack per process (see
    :meth:`SimProcess.stack_snapshot`), so identity comparison suffices
    to detect "same stack".  The engine hangs its segment prototypes
    directly off the snapshot in :attr:`protos` (one cell per activity
    code) — the snapshot *is* the cache key, so a hit is one attribute
    load and one index, with no validation.  Equality, hashing and repr
    are inherited from ``tuple``: a ``TimeSegment.stack`` holding a
    snapshot is indistinguishable from one holding a plain tuple of the
    same frames, as a trace-file replay builds.  (No ``__slots__``:
    variable-length bases forbid them; snapshots are few, the instance
    dict is cheap.)
    """

    def __reduce__(self):  # pickle as a plain tuple
        return (tuple, (tuple(self),))


def _new_snap(frames: tuple) -> "_StackSnap":
    snap = _StackSnap(frames)
    snap.protos = [None, None, None]
    return snap


class _FunctionFrame:
    """Context manager pushing/popping one (module, function) frame; one
    per process and frame, reused, so it keeps no per-entry state."""

    __slots__ = ("_proc", "_frame")

    def __init__(self, proc: "SimProcess", frame: Tuple[str, str]):
        self._proc = proc
        self._frame = frame

    def __enter__(self) -> None:
        # remember the pre-push snapshot so __exit__ can restore it:
        # popping restores exactly the stack the snapshot was taken of
        proc = self._proc
        proc._saved_snaps.append(proc._stack_tuple)
        proc._stack.append(self._frame)
        proc._stack_tuple = None

    def __exit__(self, exc_type, exc, tb) -> None:
        proc = self._proc
        top = proc._stack.pop()
        proc._stack_tuple = proc._saved_snaps.pop()
        if top is not self._frame:  # pragma: no cover - defensive
            raise ProgramError(
                f"function stack corruption in {proc.name}: "
                f"popped {top}, expected {self._frame}"
            )


class SimProcess:
    """One simulated application process bound to a machine node."""

    def __init__(self, name: str, node: str, program) -> None:
        self.name = name
        self.node = node
        self.program = program
        self.state = ProcState.READY
        self.gen: Optional[Generator] = None
        self._stack: List[Tuple[str, str]] = []
        # Memoised canonical snapshot of ``_stack``; invalidated on every
        # frame push/pop and restored on pop.  A process emits many
        # segments per frame transition, so snapshots in the engine's
        # emission hot path are almost always cache hits.
        self._stack_tuple: Optional[_StackSnap] = _new_snap(())
        # Interned snapshots: one canonical _StackSnap per distinct
        # stack, so re-entering a frame in a loop yields the *same*
        # snapshot object and the prototype cells riding on it (see
        # _StackSnap) keep hitting.
        self._snap_intern: dict = {(): self._stack_tuple}
        # The snapshot before each frame push, and the reusable frames.
        self._saved_snaps: List[Optional[_StackSnap]] = []
        self._frames: dict = {}
        # Blocking-receive want and pending wait request, always present
        # so the engine reads them without getattr.
        self._recv_want: Optional[Tuple[str, str]] = None
        self._wait_req: Optional[Request] = None
        # Set while blocked: (activity tag for SYNC, block start, stack top).
        self.block_start: float = 0.0
        self.block_tag: Optional[str] = None
        self.block_frame: Tuple[str, str] = ("?", "?")
        self.finish_time: Optional[float] = None
        #: The exception that killed the process (crash_policy="record").
        self.crash: Optional[BaseException] = None
        #: Frozen by an injected hang fault: never stepped again.
        self.hung: bool = False

    # -- program-facing API --------------------------------------------------
    def function(self, module: str, function: str) -> _FunctionFrame:
        """Enter an attributed function frame (see module docstring)."""
        key = (module, function)
        frame = self._frames.get(key)
        if frame is None:
            frame = self._frames[key] = _FunctionFrame(self, key)
        return frame

    @property
    def current_frame(self) -> Tuple[str, str]:
        """Innermost (module, function), for exclusive time attribution."""
        if not self._stack:
            return ("<unknown>", "<toplevel>")
        return self._stack[-1]

    @property
    def depth(self) -> int:
        return len(self._stack)

    def stack_snapshot(self) -> Tuple[Tuple[str, str], ...]:
        """The full (module, function) stack, outermost first."""
        snap = self._stack_tuple
        if snap is None:
            raw = tuple(self._stack)
            intern = self._snap_intern
            snap = intern.get(raw)
            if snap is None:
                if len(intern) >= 1024:  # bounded like the parts cache
                    intern.clear()
                snap = _new_snap(raw)
                intern[raw] = snap
            self._stack_tuple = snap
        return snap

    # -- engine-facing API -----------------------------------------------------
    def start(self) -> None:
        if self.gen is not None:
            raise ProgramError(f"process {self.name} started twice")
        gen = self.program(self)
        if not isinstance(gen, Iterator):
            raise ProgramError(
                f"program of {self.name} must be a generator function"
            )
        self.gen = gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimProcess({self.name!r} on {self.node!r}, {self.state.value})"
