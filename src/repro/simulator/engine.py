"""The discrete-event engine driving simulated message-passing programs.

The engine plays the role of the paper's IBM SP/2 testbed: it executes
generator-coroutine processes in virtual time, implements blocking and
non-blocking tagged message passing, global barriers, and blocking I/O,
and hands attributed segments (see :mod:`repro.simulator.records`) to
registered trace sinks.

Two properties matter for reproducing the paper's dynamics:

* **Online observability** — instrumentation inserted mid-run sees only
  time from its activation onward; in-progress activity is exposed
  through :meth:`Engine.in_progress_parts` (interned ``parts``, no
  segment built) so a metric read at time *t* is exact even when a
  blocking receive has not yet returned.
* **Perturbation** — registered perturbation sources (the instrumentation
  cost model) stretch computation, so reducing unhelpful instrumentation
  genuinely shortens execution, the paper's goal 2.  Every compute asks
  for its stretch, so a lone source is called directly, not summed.

The event loop
--------------

:meth:`Engine.run` dispatches the heap directly with hoisted locals.
Engine-internal continuations are small tuples ``(opcode, ...operands)``
rather than closures; anything else on the heap is a user callback.  The
clock advances once per distinct timestamp.

Not every event is a heap push and a pop.  A dispatch returns its
process's next continuation when it has exactly one (the end of a
compute, I/O, send or receive overhead; the resume after an ``Irecv`` or
a completed wait), and the loop takes the next event with
``heappushpop``: one comparison returns the continuation itself when it
ends strictly before the heap top (its ``seq`` is the largest yet, so a
tie goes to the older entry).  Event order cannot move.

Segments are *batched*: an interval that ends becomes a ``(prototype,
start, duration)`` triple — the prototype being the attribute dict every
segment of one attribution shares, cached on the process's interned
stack snapshot — and the pending triples are handed, as one list, to
every sink's
``record_batch`` only when an outside observer can look: before a user
callback runs, before ``on_finish`` hooks, when the loop exits, before a
diagnostic is raised, and before :meth:`Engine.crash_process` returns to
whoever injected the fault.  Engine-internal continuations never read
sinks, so every flush precedes every possible observation and each sink
sees, in emission order, the stream a per-event emitter would have
handed it.  Sinks are fed one after another, never interleaved segment
by segment: no sink may read another's state.  The engine builds no
segment; a sink that defines only ``record(segment)`` is wrapped by
:func:`~repro.simulator.records.batch_sink`.

Both watchdog budgets are non-destructive: the entry (popped or taken
directly) that would exceed ``max_time`` or ``max_events`` goes back on
the heap unchanged, and so does one taken directly when :meth:`stop`
was called.

The per-event discipline this loop is held to lives in
``tests/reference_engine.py``.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush, heappushpop
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .errors import ProgramError, SimDeadlock, SimTimeout, SimulationError
from .events import EventQueue
from .machine import Machine
from .messages import ANY_SOURCE, LatencyModel, Mailbox, Message, make_message
from .process import (
    Barrier,
    Compute,
    IoOp,
    Irecv,
    Isend,
    ProcState,
    Recv,
    Request,
    Send,
    SimProcess,
    WaitReq,
)
from .records import (
    Activity,
    TraceSink,
    batch_sink,
    intern_parts,
    segment_prototype,
)

__all__ = ["Engine"]

_EPS = 1e-12

# Continuation opcodes of the heap payloads ``(op, ...operands)``.  Kept
# as small ints so the dispatch switch is two compares.
# The EMIT_STEP operand ``proto`` is the segment prototype resolved at
# dispatch time — legal because the process generator is suspended
# between dispatch and continuation, so the attribution (stack, frame,
# activity) cannot change in between; ``None`` means the interval is
# below the de-minimis emission threshold.
_OP_EMIT_STEP = 0  # (op, proc, start, duration, proto, value)
_OP_STEP = 1       # (op, proc, value)
_OP_DELIVER = 2    # (op, message)

_ACT_COMPUTE = Activity.COMPUTE
_ACT_SYNC = Activity.SYNC
_ACT_IO = Activity.IO

# int activity codes for prototype-cache keys: hashing an Enum member
# calls a Python-level __hash__ per lookup, a small int does not
_CODE_COMPUTE = 0
_CODE_SYNC = 1
_CODE_IO = 2

_CRASHED = ProcState.CRASHED
_RUNNING = ProcState.RUNNING
_BLOCKED = ProcState.BLOCKED
_DONE = ProcState.DONE


class Engine:
    """Deterministic discrete-event executor for simulated programs."""

    def __init__(
        self,
        machine: Machine,
        latency: Optional[LatencyModel] = None,
        crash_policy: str = "raise",
    ) -> None:
        """``crash_policy`` controls what happens when a simulated program
        raises: ``"raise"`` propagates the exception out of :meth:`run`
        (default, a bug in the program under test); ``"record"`` marks the
        process crashed and keeps the simulation going, so a diagnosis of
        a partially failed run can complete — failure injection for the
        search's robustness tests."""
        if crash_policy not in ("raise", "record"):
            raise SimulationError(f"unknown crash_policy {crash_policy!r}")
        self.machine = machine
        self.crash_policy = crash_policy
        self.latency = latency or LatencyModel()
        self.now: float = 0.0
        self.queue = EventQueue()
        self.procs: Dict[str, SimProcess] = {}
        self._mailboxes: Dict[str, Mailbox] = {}
        self._pending_irecvs: Dict[str, List[Request]] = {}
        self._sinks: List[TraceSink] = []
        self._perturbation_sources: List[Callable[[str], float]] = []
        # what a Compute asks for its stretch: None without sources, the
        # lone source itself, or their sum
        self._perturb: Optional[Callable[[str], float]] = None
        # message filters: fn(msg) -> sequence of extra delays, one
        # delivery per element ([] drops, [0, 0] duplicates, [d] delays)
        self._message_filters: List[Callable[[Message], Iterable[float]]] = []
        self._barrier_waiting: List[SimProcess] = []
        # rendezvous senders blocked until the destination posts a receive:
        # dest name -> [(sender process, Send syscall)]
        self._rdv_waiting: Dict[str, List[Tuple[SimProcess, object]]] = {}
        self._on_finish: List[Callable[["Engine"], None]] = []
        self._stopped = False
        self.finished_at: Optional[float] = None
        #: Events dispatched across all :meth:`run` calls — the numerator
        #: of the events/sec run metric.  Counts only events whose payload
        #: actually executed: an event still queued when the watchdog
        #: fires is neither lost nor counted.
        self.events_processed = 0
        #: Bumped whenever the process table gains an entry, so consumers
        #: caching anything derived from ``procs`` (matched-process sets,
        #: normalisation denominators) can invalidate without rescanning.
        self.proc_table_version = 0
        #: Injected crashes and hangs so far.  Each drops its process's
        #: in-flight activity unrecorded (a hung receive may later be
        #: recorded whole), so a metric can shrink or jump: a reader that
        #: bounds how fast a metric can move must not trust the bound once
        #: this is non-zero.
        self.disruptions = 0
        #: Segments emitted (post de-minimis and crash filtering) and
        #: flush batches, for the obs metrics.
        self.segments_emitted = 0
        self.emit_batches = 0
        # live (not DONE/CRASHED) process count, maintained incrementally
        # so barrier checks are O(1) instead of a process-table scan
        self._live = 0
        # True while run() is on the stack (re-entrancy guard); pending
        # (prototype, start, duration) triples awaiting flush; prototype
        # cache keyed by (activity, process, frame, tag, stack)
        self._running = False
        self._pending_segments: List[Tuple[dict, float, float]] = []
        self._seg_protos: Dict[tuple, dict] = {}
        # per-process in-progress activity: (activity, start, module, fn, tag)
        self._current: Dict[str, Optional[Tuple[Activity, float, str, str, Optional[str]]]] = {}

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_process(self, name: str, node: str, program) -> SimProcess:
        if name in self.procs:
            raise ProgramError(f"duplicate process name {name!r}")
        self.machine.place(name, node)
        proc = SimProcess(name, node, program)
        self.procs[name] = proc
        self._mailboxes[name] = Mailbox()
        self._pending_irecvs[name] = []
        self._current[name] = None
        self._live += 1
        self.proc_table_version += 1
        return proc

    def add_sink(self, sink) -> None:
        """Register a :class:`~repro.simulator.records.TraceSink`; a sink
        that defines only ``record(segment)`` is fed materialised
        segments through :func:`~repro.simulator.records.batch_sink`."""
        self._sinks.append(batch_sink(sink))

    def add_perturbation_source(self, fn: Callable[[str], float]) -> None:
        """Register a callable mapping process name -> overhead fraction."""
        sources = self._perturbation_sources
        sources.append(fn)
        if len(sources) == 1:
            self._perturb = fn
        else:
            self._perturb = lambda name: sum(src(name) for src in sources)

    def add_message_filter(self, fn: Callable[[Message], Iterable[float]]) -> None:
        """Register a fault-injection hook over message deliveries.

        For every in-flight message the filter returns the extra delays of
        the copies to actually deliver: ``[0.0]`` passes it through
        unchanged, ``[]`` drops it, ``[0.0, 0.0]`` duplicates it, and
        ``[2.5]`` delays it by 2.5 virtual seconds.  Filters compose: each
        one is applied to every copy the previous filters produced.
        """
        self._message_filters.append(fn)

    def on_finish(self, fn: Callable[["Engine"], None]) -> None:
        """Run *fn* once when the last process completes."""
        self._on_finish.append(fn)

    # ------------------------------------------------------------------
    # scheduling helpers
    # ------------------------------------------------------------------
    def schedule(self, time: float, fn: Callable[[], None]) -> int:
        if time < self.now - _EPS:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(max(time, self.now), fn)

    def schedule_periodic(
        self, period: float, fn: Callable[["Engine"], None], start: Optional[float] = None
    ) -> None:
        """Call ``fn(engine)`` every *period* seconds while the application
        is still running; the callback stops rescheduling once every
        process has finished (a final pass runs via :meth:`on_finish`)."""
        if period <= 0:
            raise SimulationError("period must be positive")

        def tick() -> None:
            if self._stopped:
                return
            fn(self)
            if not self.all_done():
                self.queue.push(self.now + period, tick)

        self.schedule(self.now if start is None else start, tick)

    def stop(self) -> None:
        """Abort the run after the current event (used by the diagnosis
        driver once the search has nothing left to conclude)."""
        self._stopped = True

    def _entry(self, time: float, payload: tuple) -> tuple:
        """An engine-internal heap entry: same past-guard and clamp as
        :meth:`schedule`, but the payload is a continuation tuple and no
        cancel token is handed out.  The ``seq`` is taken now, whether
        the entry is pushed or taken directly."""
        now = self.now
        if time < now:
            if time < now - _EPS:
                raise SimulationError(f"cannot schedule in the past: {time} < {now}")
            time = now
        return (time, next(self.queue._seq), payload)

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def all_done(self) -> bool:
        return self._live == 0

    def live_count(self) -> int:
        return self._live

    def crashed(self) -> List[SimProcess]:
        return [p for p in self.procs.values() if p.state is ProcState.CRASHED]

    def perturbation(self, proc_name: str) -> float:
        perturb = self._perturb
        return 0 if perturb is None else perturb(proc_name)

    def blocked_report(self) -> List[Dict]:
        """Structured diagnostics for every process that is not done:
        which function it was in, what operation it is stuck on, the
        pending send/recv tag, and since when (virtual time)."""
        rdv_senders = {
            sender.name: (dest, call)
            for dest, waiting in self._rdv_waiting.items()
            for sender, call in waiting
        }
        out: List[Dict] = []
        for name, proc in self.procs.items():
            if proc.state in (ProcState.DONE, ProcState.CRASHED):
                continue
            module, fn = proc.block_frame if proc.block_tag is not None else proc.current_frame
            entry: Dict = {
                "process": name,
                "node": proc.node,
                "function": f"{module}:{fn}",
                "tag": proc.block_tag,
                "since": proc.block_start if proc.state is ProcState.BLOCKED else None,
            }
            want = proc._recv_want
            if proc.hung:
                entry["kind"] = "hang"
            elif proc.block_tag == "Barrier":
                entry["kind"] = "barrier"
            elif want is not None:
                entry["kind"] = "recv"
                entry["peer"] = want[0]
            elif proc._wait_req is not None:
                entry["kind"] = "wait"
                entry["peer"] = proc._wait_req.src
            elif name in rdv_senders:
                entry["kind"] = "send"
                entry["peer"] = rdv_senders[name][0]
            else:
                entry["kind"] = "blocked" if proc.state is ProcState.BLOCKED else "runnable"
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash_process(self, name: str, exc: Optional[BaseException] = None) -> None:
        """Kill a process from the outside (fault injection): it is marked
        crashed exactly as if its program had raised under
        ``crash_policy="record"``, peers blocked on it surface in the
        deadlock/timeout diagnostics, and barriers stop counting it."""
        proc = self.procs[name]
        if proc.state in (ProcState.DONE, ProcState.CRASHED):
            return
        proc.state = ProcState.CRASHED
        proc.crash = exc or RuntimeError(f"process {name} killed at t={self.now}")
        proc.finish_time = self.now
        self._live -= 1
        self.disruptions += 1
        self._current[name] = None
        # It can no longer participate in a barrier or complete a
        # rendezvous handshake.
        self._barrier_waiting = [p for p in self._barrier_waiting if p.name != name]
        for waiting in self._rdv_waiting.values():
            waiting[:] = [(s, c) for s, c in waiting if s.name != name]
        self._maybe_finish()
        # the caller — between two run() calls or inside a user callback —
        # may look at the sinks next: hand over the waits of a barrier
        # this released
        self._flush_segments()

    def hang_process(self, name: str) -> None:
        """Freeze a process from the outside (fault injection): it keeps
        its state but is never stepped again, so peers observe an
        unbounded wait and the watchdog converts the stall into
        :class:`SimTimeout`."""
        proc = self.procs[name]
        if proc.state in (ProcState.DONE, ProcState.CRASHED):
            return
        proc.hung = True
        self.disruptions += 1
        if proc.state is not ProcState.BLOCKED:
            proc.state = ProcState.BLOCKED
            proc.block_start = self.now
            proc.block_tag = "<hang>"
            proc.block_frame = proc.current_frame
        self._current[name] = None

    def in_progress_parts(self) -> List[Tuple[dict, Activity, float, float]]:
        """``(parts, activity, start, duration)`` per process whose
        activity has started but not finished, in process order, with
        interned ``parts`` — what metric reads fold so they are exact at
        any instant."""
        now = self.now
        procs = self.procs
        out = []
        for name, cur in self._current.items():
            if cur is None:
                continue
            activity, start, module, function, tag = cur
            dur = now - start
            if dur <= _EPS:
                continue
            parts = intern_parts(name, procs[name].node, module, function, tag)
            out.append((parts, activity, start, dur))
        return out

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, max_time: float = 1e9, max_events: Optional[int] = None) -> float:
        """Execute until every process finishes (or :meth:`stop`).

        ``max_time`` and ``max_events`` are the watchdog budgets: a run
        that exceeds either raises :class:`SimTimeout` carrying
        per-process blocked-state diagnostics — a hung program (e.g. an
        injected hang plus a periodic callback that keeps virtual time
        advancing) becomes a diagnosable error instead of an endless loop.
        The budgets are *per call* and non-destructive: the event that
        would exceed the budget stays queued, so a caller may catch the
        timeout and resume with a larger budget without losing events.
        ``max_events`` counts only events actually dispatched.

        Returns the finish time (or the stop time)."""
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        for proc in self.procs.values():
            if proc.gen is None:
                proc.start()
                self.queue.push(self.now, (_OP_STEP, proc, None))
        self._running = True
        try:
            self._loop(max_time, max_events)
        finally:
            self._flush_segments()
            self._running = False
        if self.finished_at is None:
            self.finished_at = self.now
        return self.finished_at

    # Both diagnostics make the sinks current first: the caller may
    # inspect them, and after a timeout resume.
    def _deadlock(self) -> SimDeadlock:
        self._flush_segments()
        blocked = [p.name for p in self.procs.values() if p.state is ProcState.BLOCKED]
        crashed = [p.name for p in self.crashed()]
        detail = f"; crashed processes: {crashed}" if crashed else ""
        return SimDeadlock(
            f"no runnable events; blocked processes: {blocked}{detail}",
            blocked=self.blocked_report(),
            crashed=crashed,
        )

    def _timeout(self, which: str, value: float) -> SimTimeout:
        self._flush_segments()
        return SimTimeout(
            f"simulation exceeded {which}={value}",
            blocked=self.blocked_report(),
            crashed=[p.name for p in self.crashed()],
            budget={which: value},
        )

    def _loop(self, max_time: float, max_events: Optional[int]) -> None:
        """The dispatch loop.  The virtual-time budget is tested only
        when the clock is about to advance, the event budget is a
        countdown that never reaches zero when none is set.  ``nxt`` is
        the last dispatch's continuation, not yet on the heap."""
        queue = self.queue
        heap = queue._heap
        seq = queue._seq
        cancelled = queue._cancelled
        pending = self._pending_segments
        pend_append = pending.append
        deliver = self._deliver
        dispatch = self._dispatch
        do_send = self._do_send
        do_recv = self._do_recv
        do_irecv = self._do_irecv
        do_wait = self._do_wait
        do_barrier = self._do_barrier
        do_io = self._do_io
        crashed_state = _CRASHED
        current = self._current
        unknown_frame = ("<unknown>", "<toplevel>")
        now = self.now
        events_left = -1 if max_events is None else max(max_events, 0)
        if now > max_time and queue.peek_time() is not None:
            # resumed with a budget the clock already exceeds: every
            # pending event is over budget (heap times are >= now)
            raise self._timeout("max_time", max_time)
        nxt = None
        while heap or nxt is not None:
            if self._stopped:
                if nxt is not None:
                    heappush(heap, nxt)
                break
            if nxt is None:
                entry = heappop(heap)
            else:
                # nxt itself when it sorts before the heap top
                entry = heappushpop(heap, nxt)
                nxt = None
            tok = entry[1]
            if cancelled and tok in cancelled:
                cancelled.discard(tok)
                continue
            t = entry[0]
            advances = t > now
            if advances and t > max_time:
                heappush(heap, entry)  # watchdog fires; queue stays intact
                raise self._timeout("max_time", max_time)
            if not events_left:
                heappush(heap, entry)
                raise self._timeout("max_events", max_events)
            events_left -= 1
            if advances:
                now = t
                self.now = t
            self.events_processed += 1
            payload = entry[2]
            if type(payload) is not tuple:
                # user-scheduled callback: it may observe sinks, the
                # clock, or counters — materialise everything first
                if pending:
                    self._flush_segments()
                payload()
                continue
            op = payload[0]
            if op == 2:  # _OP_DELIVER
                nxt = deliver(payload[1])
            else:
                if op == 0:  # _OP_EMIT_STEP
                    _, proc, start, dur, proto, value = payload
                    if proto is not None and proc.state is not crashed_state:
                        pend_append((proto, start, dur))
                else:  # _OP_STEP
                    proc = payload[1]
                    value = payload[2]
                # ---- resume proc's generator with value and dispatch
                # its next syscall ----
                if proc.state is crashed_state:
                    continue  # an injected crash beat a scheduled resume
                if proc.hung:
                    # an injected hang: the process never advances again;
                    # it sits blocked so peers and the watchdog see the stall
                    proc.state = _BLOCKED
                    proc.block_start = now
                    proc.block_tag = "<hang>"
                    proc.block_frame = proc.current_frame
                    current[proc.name] = None
                    continue
                proc.state = _RUNNING
                try:
                    call = proc.gen.send(value)
                except StopIteration:
                    proc.state = _DONE
                    proc.finish_time = now
                    current[proc.name] = None
                    self._live -= 1
                    self._maybe_finish()
                    continue
                except ProgramError:
                    current[proc.name] = None
                    raise
                except Exception as exc:
                    current[proc.name] = None
                    if self.crash_policy == "raise":
                        raise
                    proc.state = crashed_state
                    proc.crash = exc
                    proc.finish_time = now
                    self._live -= 1
                    self._maybe_finish()
                    continue
                if call.__class__ is Compute:
                    # the hottest syscall, inlined (_do_compute is the
                    # same thing for subclasses of Compute)
                    seconds = call.seconds
                    if seconds < 0:
                        current[proc.name] = None
                        raise ProgramError("negative compute time")
                    perturb = self._perturb
                    if perturb is not None:
                        dur = seconds * (1.0 + max(perturb(proc.name), 0.0))
                    else:
                        dur = seconds
                    stack = proc._stack
                    frame = stack[-1] if stack else unknown_frame
                    current[proc.name] = (_ACT_COMPUTE, now, frame[0], frame[1], None)
                    # dur >= 0, so now + dur >= now: no past-guard needed
                    if dur > _EPS:
                        snap = proc._stack_tuple
                        if snap is None:
                            snap = proc.stack_snapshot()
                        proto = snap.protos[0]
                        if proto is None:
                            proto = self._proto_for(
                                _CODE_COMPUTE, _ACT_COMPUTE, proc, frame, None
                            )
                    else:
                        proto = None
                    nxt = (now + dur, next(seq), (0, proc, now, dur, proto, None))
                else:
                    # exact types only; anything else — subclasses, bad
                    # yields — goes through _dispatch
                    current[proc.name] = None
                    stack = proc._stack
                    frame = stack[-1] if stack else unknown_frame
                    cls = call.__class__
                    if cls is Send or cls is Isend:
                        nxt = do_send(proc, call, frame)
                    elif cls is Recv:
                        nxt = do_recv(proc, call, frame)
                    elif cls is Irecv:
                        nxt = do_irecv(proc, call)
                    elif cls is WaitReq:
                        nxt = do_wait(proc, call, frame)
                    elif cls is Barrier:
                        nxt = do_barrier(proc, frame)
                    elif cls is IoOp:
                        nxt = do_io(proc, call, frame)
                    else:
                        nxt = dispatch(proc, call, frame)
        else:
            if not self._stopped and not self.all_done():
                raise self._deadlock()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush_segments(self) -> None:
        """Hand the pending triples, in emission order, to every sink's
        ``record_batch``, one sink after another (see module docstring
        for when)."""
        pending = self._pending_segments
        if not pending:
            return
        # the per-event counter is batched here (every observer of the
        # counter — callbacks, on_finish hooks, run() exit — flushes first)
        self.segments_emitted += len(pending)
        sinks = self._sinks
        if sinks:
            self.emit_batches += 1
            for sink in sinks:
                sink.record_batch(pending)
        pending.clear()

    def _proto_for(
        self,
        code: int,
        activity: Activity,
        proc: SimProcess,
        frame: Tuple[str, str],
        tag: Optional[str],
    ) -> dict:
        """The cached segment prototype for one attribution.

        Safe to resolve at dispatch time: the generator is suspended
        until the continuation fires, so the stack during the interval is
        exactly the stack now."""
        snap = proc.stack_snapshot()
        stack = snap
        if not stack or stack[-1] != frame:
            stack = stack + (frame,)
        key = (code, proc.name, frame, tag, stack)
        proto = self._seg_protos.get(key)
        if proto is None:
            proto = segment_prototype(
                activity, proc.name, proc.node, frame[0], frame[1], tag, stack
            )
            self._seg_protos[key] = proto
        # cache on the canonical snapshot itself: the snapshot object is
        # the attribution, so the hot sites hit with one attribute load
        # and one index (plus a tag lookup for SYNC), no validation
        if tag is None:
            if code != _CODE_SYNC:  # cell 1 is reserved for the tag dict
                snap.protos[code] = proto
        elif code == _CODE_SYNC:
            d = snap.protos[1]
            if d is None:
                d = {}
                snap.protos[1] = d
            d[tag] = proto
        return proto

    def _maybe_finish(self) -> None:
        # a process leaving (done or crashed) may satisfy a pending barrier
        self._check_barrier()
        if self._live == 0:
            self.finished_at = self.now
            # on_finish hooks (the search's final pass) read sinks
            self._flush_segments()
            for fn in self._on_finish:
                fn(self)

    # Each dispatch returns the process's next continuation for the loop to
    # push or take directly, or None having parked it or pushed its own.
    def _dispatch(self, proc: SimProcess, call, frame) -> Optional[tuple]:
        """Syscalls the loop's exact-type switch did not take: subclasses
        of the in-tree syscalls, and yields that are no syscall at all."""
        if isinstance(call, Compute):
            return self._do_compute(proc, call, frame)
        if isinstance(call, IoOp):
            return self._do_io(proc, call, frame)
        if isinstance(call, (Send, Isend)):
            return self._do_send(proc, call, frame)
        if isinstance(call, Recv):
            return self._do_recv(proc, call, frame)
        if isinstance(call, Irecv):
            return self._do_irecv(proc, call)
        if isinstance(call, WaitReq):
            return self._do_wait(proc, call, frame)
        if isinstance(call, Barrier):
            return self._do_barrier(proc, frame)
        raise ProgramError(f"{proc.name} yielded non-syscall {call!r}")

    # -- compute / io --------------------------------------------------------
    def _do_compute(self, proc: SimProcess, call, frame) -> tuple:
        seconds = call.seconds
        if seconds < 0:
            raise ProgramError("negative compute time")
        perturb = self._perturb
        if perturb is not None:
            dur = seconds * (1.0 + max(perturb(proc.name), 0.0))
        else:
            dur = seconds
        return self._busy(proc, frame, dur, None)

    def _busy(self, proc: SimProcess, frame, dur: float, value) -> tuple:
        """Charge *dur* seconds of CPU to *proc* from now; the returned
        continuation resumes it with *value*."""
        start = self.now
        self._current[proc.name] = (_ACT_COMPUTE, start, frame[0], frame[1], None)
        if dur > _EPS:
            snap = proc._stack_tuple
            if snap is None:
                snap = proc.stack_snapshot()
            proto = snap.protos[0]
            if proto is None:
                proto = self._proto_for(_CODE_COMPUTE, _ACT_COMPUTE, proc, frame, None)
        else:
            proto = None
        payload = (_OP_EMIT_STEP, proc, start, dur, proto, value)
        if dur < 0:  # only a negative latency-model overhead reaches back
            return self._entry(start + dur, payload)
        return (start + dur, next(self.queue._seq), payload)

    def _do_io(self, proc: SimProcess, call, frame) -> tuple:
        start = self.now
        dur = call.seconds
        if dur < 0:
            raise ProgramError("negative I/O time")
        self._current[proc.name] = (_ACT_IO, start, frame[0], frame[1], None)
        if dur > _EPS:
            snap = proc._stack_tuple
            if snap is None:
                snap = proc.stack_snapshot()
            proto = snap.protos[2]
            if proto is None:
                proto = self._proto_for(_CODE_IO, _ACT_IO, proc, frame, None)
        else:
            proto = None
        return self._entry(start + dur, (_OP_EMIT_STEP, proc, start, dur, proto, None))

    # -- sends ---------------------------------------------------------------
    def _do_send(self, proc: SimProcess, call, frame) -> Optional[tuple]:
        dest = call.dest
        if dest not in self.procs:
            raise ProgramError(f"{proc.name} sends to unknown process {dest!r}")
        lat = self.latency
        size = call.size
        ctype = call.__class__
        if (
            (ctype is Send or (ctype is not Isend and isinstance(call, Send)))
            and size > lat.eager_threshold  # == lat.is_rendezvous(size)
            and not self._receiver_posted(dest, proc.name, call.tag)
        ):
            # rendezvous protocol: the blocking send waits until the
            # destination posts a matching receive
            proc.state = ProcState.BLOCKED
            proc.block_start = self.now
            proc.block_tag = call.tag
            proc.block_frame = frame
            self._current[proc.name] = (_ACT_SYNC, self.now, frame[0], frame[1], call.tag)
            self._rdv_waiting.setdefault(dest, []).append((proc, call))
            return None
        overhead = lat.send_overhead
        start = self.now
        # the latency model inlined: transfer_time()'s expression verbatim
        arrival = start + overhead + (lat.alpha + lat.beta * max(size, 0.0))
        msg = make_message(proc.name, dest, call.tag, size, start, arrival)
        if self._message_filters:
            self._schedule_delivery(msg)
        else:
            heappush(self.queue._heap, self._entry(arrival, (_OP_DELIVER, msg)))
        if ctype is Isend or (ctype is not Send and isinstance(call, Isend)):
            result = Request(proc.name, call.tag)
            result.complete = True
        else:
            result = None
        return self._busy(proc, frame, overhead, result)

    def _schedule_delivery(self, msg: Message) -> None:
        """Schedule the arrival of *msg*, applying message filters (fault
        injection: drops, duplicates, delays) along the way."""
        if self._message_filters:
            deliveries = [msg]
            for filt in self._message_filters:
                passed: List[Message] = []
                for m in deliveries:
                    for extra in filt(m):
                        passed.append(
                            m if extra <= 0.0
                            else dataclasses.replace(m, arrival_time=m.arrival_time + extra)
                        )
                deliveries = passed
        else:
            deliveries = (msg,)
        heap = self.queue._heap
        for m in deliveries:
            heappush(heap, self._entry(m.arrival_time, (_OP_DELIVER, m)))

    def _deliver(self, msg: Message) -> Optional[tuple]:
        """A message arrives: the woken receiver's recv-overhead
        continuation, if the message woke one."""
        dest = self.procs[msg.dest]
        # Posted non-blocking receives match ahead of the mailbox.
        for req in self._pending_irecvs[msg.dest]:
            if not req.complete and req.tag == msg.tag and (
                req.src == ANY_SOURCE or req.src == msg.src
            ):
                req.complete = True
                req.message = msg
                self._pending_irecvs[msg.dest].remove(req)
                if (
                    dest.state is ProcState.BLOCKED
                    and dest.block_tag is not None
                    and dest._wait_req is req
                ):
                    return self._unblock_sync(dest, msg.tag)
                return None
        # Blocking receive already parked?
        want = dest._recv_want
        if (
            dest.state is ProcState.BLOCKED
            and want is not None
            and want[1] == msg.tag
            and (want[0] == ANY_SOURCE or want[0] == msg.src)
        ):
            dest._recv_want = None
            return self._unblock_sync(dest, msg.tag, value=msg)
        self._mailboxes[msg.dest].deliver(msg)
        return None

    def _receiver_posted(self, dest: str, src: str, tag: str) -> bool:
        """True when *dest* already has a receive posted that matches a
        message from *src* with *tag* (a parked blocking receive or a
        pending non-blocking request)."""
        proc = self.procs[dest]
        want = proc._recv_want
        if (
            proc.state is ProcState.BLOCKED
            and want is not None
            and want[1] == tag
            and (want[0] == ANY_SOURCE or want[0] == src)
        ):
            return True
        return any(
            not req.complete and req.tag == tag and (req.src == ANY_SOURCE or req.src == src)
            for req in self._pending_irecvs[dest]
        )

    def _release_rendezvous(self, dest: str, src_filter: str, tag: str) -> None:
        """A receive was just posted at *dest*: complete the earliest
        matching rendezvous sender, if any."""
        waiting = self._rdv_waiting.get(dest, [])
        for i, (sender, call) in enumerate(waiting):
            if call.tag != tag:
                continue
            if src_filter != ANY_SOURCE and sender.name != src_filter:
                continue
            waiting.pop(i)
            arrival = self.now + self.latency.transfer_time(call.size)
            msg = make_message(
                sender.name, dest, call.tag, call.size, sender.block_start, arrival
            )
            self._schedule_delivery(msg)
            heappush(self.queue._heap, self._unblock_sync(sender, call.tag))
            return

    def _unblock_sync(self, proc: SimProcess, tag: str, value=None) -> tuple:
        """End a synchronisation wait; the returned continuation resumes
        the process after the receive overhead."""
        start = self.now
        frame = proc.block_frame
        # the SYNC wait; an injected crash loses the in-flight interval
        wait = start - proc.block_start
        if wait > _EPS and proc.state is not _CRASHED:
            snap = proc._stack_tuple
            if snap is None:
                snap = proc.stack_snapshot()
            # SYNC protos ride on the snapshot keyed by tag (the blocked
            # process's stack is frozen, so snapshot + tag pin the
            # attribution exactly)
            d = snap.protos[1]
            proto = d.get(tag) if d is not None else None
            if proto is None:
                proto = self._proto_for(_CODE_SYNC, _ACT_SYNC, proc, frame, tag)
            self._pending_segments.append((proto, proc.block_start, wait))
        proc.block_tag = None
        proc._wait_req = None
        return self._busy(proc, frame, self.latency.recv_overhead, value)

    # -- receives --------------------------------------------------------------
    def _do_recv(self, proc: SimProcess, call: Recv, frame) -> Optional[tuple]:
        msg = self._mailboxes[proc.name].match(call.src, call.tag)
        if msg is not None:
            return self._busy(proc, frame, self.latency.recv_overhead, msg)
        proc.state = ProcState.BLOCKED
        proc.block_start = self.now
        proc.block_tag = call.tag
        proc.block_frame = frame
        proc._recv_want = (call.src, call.tag)
        self._current[proc.name] = (_ACT_SYNC, self.now, frame[0], frame[1], call.tag)
        self._release_rendezvous(proc.name, call.src, call.tag)
        return None

    def _do_irecv(self, proc: SimProcess, call: Irecv) -> tuple:
        req = Request(call.src, call.tag)
        msg = self._mailboxes[proc.name].match(call.src, call.tag)
        if msg is not None:
            req.complete = True
            req.message = msg
        else:
            self._pending_irecvs[proc.name].append(req)
            self._release_rendezvous(proc.name, call.src, call.tag)
        return (self.now, next(self.queue._seq), (_OP_STEP, proc, req))

    def _do_wait(self, proc: SimProcess, call: WaitReq, frame) -> Optional[tuple]:
        req = call.request
        if req.complete:
            return (self.now, next(self.queue._seq), (_OP_STEP, proc, req.message))
        proc.state = ProcState.BLOCKED
        proc.block_start = self.now
        proc.block_tag = req.tag
        proc.block_frame = frame
        proc._wait_req = req
        self._current[proc.name] = (_ACT_SYNC, self.now, frame[0], frame[1], req.tag)
        return None

    # -- barrier -----------------------------------------------------------------
    def _do_barrier(self, proc: SimProcess, frame) -> None:
        # releasing the barrier pushes every waiter's resume itself
        proc.state = ProcState.BLOCKED
        now = self.now
        proc.block_start = now
        proc.block_tag = "Barrier"
        proc.block_frame = frame
        self._current[proc.name] = (_ACT_SYNC, now, frame[0], frame[1], "Barrier")
        waiting = self._barrier_waiting
        waiting.append(proc)
        if len(waiting) >= self._live:
            self._check_barrier()

    def _check_barrier(self) -> None:
        """Release the barrier when every live process has arrived (a
        crashing process no longer counts as a participant)."""
        if not self._barrier_waiting:
            return
        if len(self._barrier_waiting) < self._live:
            return
        waiting, self._barrier_waiting = self._barrier_waiting, []
        now = self.now
        current = self._current
        pend_append = self._pending_segments.append
        queue = self.queue
        heap = queue._heap
        seq = queue._seq
        for p in waiting:
            # per waiter: clear, emit the SYNC wait, resume
            wait = now - p.block_start
            current[p.name] = None
            if wait > _EPS and p.state is not _CRASHED:
                snap = p._stack_tuple
                if snap is None:
                    snap = p.stack_snapshot()
                d = snap.protos[1]
                proto = d.get("Barrier") if d is not None else None
                if proto is None:
                    proto = self._proto_for(
                        _CODE_SYNC, _ACT_SYNC, p, p.block_frame, "Barrier"
                    )
                pend_append((proto, p.block_start, wait))
            p.block_tag = None
            heappush(heap, (now, next(seq), (_OP_STEP, p, None)))
