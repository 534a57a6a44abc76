"""The per-event reference interpreter the production engine is held to.

:class:`repro.simulator.Engine` batches: continuations are tuples on the
heap, segments wait as ``(prototype, start, duration)`` triples until an
observer can look, the clock moves once per distinct timestamp.
:class:`ReferenceEngine` does none of that.  It is the discipline the
simulator started with — one closure per scheduled continuation, one
``TimeSegment.make`` per interval handed to every sink at the instant it
ends, both watchdog budgets tested before every pop — written to be read
against the syscall semantics, not to be fast.

It shares the *data* with the production package (``SimProcess``,
``Mailbox``, ``LatencyModel``, ``Message``, ``TimeSegment``,
``EventQueue``, the error types) and none of the loop or dispatch code,
so a defect in either interpreter shows as a difference between them.
``tests/golden/engine_traces.json`` holds both to a third party: the
traces this discipline produced inside ``Engine`` before it was lifted
out.
"""

from repro.simulator.errors import (
    ProgramError,
    SimDeadlock,
    SimTimeout,
    SimulationError,
)
from repro.simulator.events import EventQueue
from repro.simulator.messages import ANY_SOURCE, LatencyModel, Mailbox, Message
from repro.simulator.process import (
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
from repro.simulator.records import Activity, TimeSegment, intern_parts
from tests.reference_delivery import feed

_EPS = 1e-12


class ReferenceEngine:
    """One event, one closure, one segment at a time."""

    def __init__(self, machine, latency=None, crash_policy="raise"):
        if crash_policy not in ("raise", "record"):
            raise SimulationError(f"unknown crash_policy {crash_policy!r}")
        self.machine = machine
        self.latency = latency or LatencyModel()
        self.crash_policy = crash_policy
        self.now = 0.0
        self.queue = EventQueue()
        self.procs = {}
        self.finished_at = None
        self.events_processed = 0
        self.segments_emitted = 0
        self._mailboxes = {}
        self._pending_irecvs = {}
        self._sinks = []
        self._perturbation_sources = []
        self._message_filters = []
        self._barrier_waiting = []
        self._rdv_waiting = {}  # dest -> [(blocked sender, its Send)]
        self._on_finish = []
        self._stopped = False
        self._current = {}  # process -> (activity, start, frame, tag) | None

    # -- setup ---------------------------------------------------------------
    def add_process(self, name, node, program):
        if name in self.procs:
            raise ProgramError(f"duplicate process name {name!r}")
        self.machine.place(name, node)
        proc = SimProcess(name, node, program)
        self.procs[name] = proc
        self._mailboxes[name] = Mailbox()
        self._pending_irecvs[name] = []
        self._current[name] = None
        return proc

    def add_sink(self, sink):
        """A batch sink is handed each segment as a batch of one."""
        if hasattr(sink, "record_batch"):
            self._sinks.append(lambda seg: feed(sink, seg))
        else:
            self._sinks.append(sink.record)

    def add_perturbation_source(self, fn):
        self._perturbation_sources.append(fn)

    def add_message_filter(self, fn):
        self._message_filters.append(fn)

    def on_finish(self, fn):
        self._on_finish.append(fn)

    def schedule(self, time, fn):
        if time < self.now - _EPS:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(max(time, self.now), fn)

    def schedule_periodic(self, period, fn, start=None):
        if period <= 0:
            raise SimulationError("period must be positive")

        def tick():
            if self._stopped:
                return
            fn(self)
            if not self.all_done():
                self.queue.push(self.now + period, tick)

        self.queue.push(self.now if start is None else start, tick)

    def stop(self):
        self._stopped = True

    # -- inspection ----------------------------------------------------------
    def _live(self):
        return [p for p in self.procs.values()
                if p.state not in (ProcState.DONE, ProcState.CRASHED)]

    def all_done(self):
        return not self._live()

    def crashed(self):
        return [p for p in self.procs.values() if p.state is ProcState.CRASHED]

    def perturbation(self, name):
        return sum(src(name) for src in self._perturbation_sources)

    def in_progress_parts(self):
        out = []
        for name, cur in self._current.items():
            if cur is None or self.now - cur[1] <= _EPS:
                continue
            activity, start, frame, tag = cur
            parts = intern_parts(name, self.procs[name].node,
                                 frame[0], frame[1], tag)
            out.append((parts, activity, start, self.now - start))
        return out

    def blocked_report(self):
        rdv_dest = {sender.name: dest
                    for dest, waiting in self._rdv_waiting.items()
                    for sender, _call in waiting}
        out = []
        for proc in self._live():
            blocked = proc.state is ProcState.BLOCKED
            module, fn = (proc.block_frame if proc.block_tag is not None
                          else proc.current_frame)
            entry = {
                "process": proc.name,
                "node": proc.node,
                "function": f"{module}:{fn}",
                "tag": proc.block_tag,
                "since": proc.block_start if blocked else None,
            }
            if proc.hung:
                entry["kind"] = "hang"
            elif proc.block_tag == "Barrier":
                entry["kind"] = "barrier"
            elif proc._recv_want is not None:
                entry["kind"] = "recv"
                entry["peer"] = proc._recv_want[0]
            elif proc._wait_req is not None:
                entry["kind"] = "wait"
                entry["peer"] = proc._wait_req.src
            elif proc.name in rdv_dest:
                entry["kind"] = "send"
                entry["peer"] = rdv_dest[proc.name]
            else:
                entry["kind"] = "blocked" if blocked else "runnable"
            out.append(entry)
        return out

    # -- fault injection -----------------------------------------------------
    def crash_process(self, name, exc=None):
        proc = self.procs[name]
        if proc.state in (ProcState.DONE, ProcState.CRASHED):
            return
        proc.state = ProcState.CRASHED
        proc.crash = exc or RuntimeError(f"process {name} killed at t={self.now}")
        proc.finish_time = self.now
        self._current[name] = None
        self._barrier_waiting = [p for p in self._barrier_waiting if p is not proc]
        for waiting in self._rdv_waiting.values():
            waiting[:] = [(s, c) for s, c in waiting if s is not proc]
        self._process_left()

    def hang_process(self, name):
        proc = self.procs[name]
        if proc.state in (ProcState.DONE, ProcState.CRASHED):
            return
        proc.hung = True
        if proc.state is not ProcState.BLOCKED:
            self._park(proc, "<hang>", proc.current_frame)
        self._current[name] = None

    # -- the loop ------------------------------------------------------------
    def run(self, max_time=1e9, max_events=None):
        events = 0
        for proc in self.procs.values():
            if proc.gen is None:
                proc.start()
                self.queue.push(self.now, lambda p=proc: self._step(p, None))
        while not self._stopped:
            t_next = self.queue.peek_time()
            if t_next is None:
                if self.all_done():
                    break
                raise self._deadlock()
            if t_next > max_time:
                raise self._timeout("max_time", max_time)
            if max_events is not None and events >= max_events:
                raise self._timeout("max_events", max_events)
            t, fn = self.queue.pop()
            events += 1
            self.events_processed += 1
            self.now = max(self.now, t)
            fn()
        if self.finished_at is None:
            self.finished_at = self.now
        return self.finished_at

    def _deadlock(self):
        blocked = [p.name for p in self.procs.values() if p.state is ProcState.BLOCKED]
        crashed = [p.name for p in self.crashed()]
        detail = f"; crashed processes: {crashed}" if crashed else ""
        return SimDeadlock(
            f"no runnable events; blocked processes: {blocked}{detail}",
            blocked=self.blocked_report(), crashed=crashed,
        )

    def _timeout(self, which, value):
        return SimTimeout(
            f"simulation exceeded {which}={value}",
            blocked=self.blocked_report(),
            crashed=[p.name for p in self.crashed()],
            budget={which: value},
        )

    # -- emission ------------------------------------------------------------
    def _emit(self, start, duration, activity, proc, frame, tag=None):
        # nothing is recorded past the instant of an injected crash
        if duration <= _EPS or proc.state is ProcState.CRASHED:
            return
        self.segments_emitted += 1
        # the generator is suspended from dispatch to emission, so the
        # stack now is the stack during the interval
        stack = tuple(proc._stack)
        if not stack or stack[-1] != frame:
            stack += (frame,)
        seg = TimeSegment.make(
            start=start, duration=duration, activity=activity,
            process=proc.name, node=proc.node,
            module=frame[0], function=frame[1], tag=tag, stack=stack,
        )
        for record in self._sinks:
            record(seg)

    def _busy(self, proc, activity, duration, frame, value=None):
        """Charge *duration* of *activity* to *proc* from now, then resume
        it with *value*."""
        start = self.now
        self._current[proc.name] = (activity, start, frame, None)

        def finish():
            self._emit(start, duration, activity, proc, frame)
            self._step(proc, value)

        self.schedule(start + duration, finish)

    def _park(self, proc, tag, frame):
        proc.state = ProcState.BLOCKED
        proc.block_start = self.now
        proc.block_tag = tag
        proc.block_frame = frame

    def _block(self, proc, tag, frame):
        self._park(proc, tag, frame)
        self._current[proc.name] = (Activity.SYNC, self.now, frame, tag)

    def _end_wait(self, proc, tag):
        self._current[proc.name] = None
        self._emit(proc.block_start, self.now - proc.block_start,
                   Activity.SYNC, proc, proc.block_frame, tag=tag)
        proc.block_tag = None

    # -- stepping ------------------------------------------------------------
    def _step(self, proc, value):
        if proc.state is ProcState.CRASHED:
            return  # an injected crash beat a scheduled resume
        if proc.hung:
            self._park(proc, "<hang>", proc.current_frame)
            self._current[proc.name] = None
            return
        self._current[proc.name] = None
        proc.state = ProcState.RUNNING
        try:
            call = proc.gen.send(value)
        except StopIteration:
            proc.state = ProcState.DONE
            proc.finish_time = self.now
            self._process_left()
            return
        except ProgramError:
            raise
        except Exception as exc:
            if self.crash_policy == "raise":
                raise
            proc.state = ProcState.CRASHED
            proc.crash = exc
            proc.finish_time = self.now
            self._process_left()
            return
        frame = proc.current_frame
        if isinstance(call, Compute):
            if call.seconds < 0:
                raise ProgramError("negative compute time")
            stretch = 1.0
            if self._perturbation_sources:
                stretch += max(self.perturbation(proc.name), 0.0)
            self._busy(proc, Activity.COMPUTE, call.seconds * stretch, frame)
        elif isinstance(call, IoOp):
            if call.seconds < 0:
                raise ProgramError("negative I/O time")
            self._busy(proc, Activity.IO, call.seconds, frame)
        elif isinstance(call, (Send, Isend)):
            self._send(proc, call, frame)
        elif isinstance(call, Recv):
            self._recv(proc, call, frame)
        elif isinstance(call, Irecv):
            self._irecv(proc, call)
        elif isinstance(call, WaitReq):
            self._wait(proc, call, frame)
        elif isinstance(call, Barrier):
            self._block(proc, "Barrier", frame)
            self._barrier_waiting.append(proc)
            self._check_barrier()
        else:
            raise ProgramError(f"{proc.name} yielded non-syscall {call!r}")

    def _process_left(self):
        # a process leaving (done or crashed) may satisfy a pending barrier
        self._check_barrier()
        if self.all_done():
            self.finished_at = self.now
            for fn in self._on_finish:
                fn(self)

    def _resume(self, proc, value=None):
        self.schedule(self.now, lambda: self._step(proc, value))

    # -- messaging -----------------------------------------------------------
    def _send(self, proc, call, frame):
        if call.dest not in self.procs:
            raise ProgramError(f"{proc.name} sends to unknown process {call.dest!r}")
        if (
            isinstance(call, Send)
            and self.latency.is_rendezvous(call.size)
            and not self._receiver_posted(call.dest, proc.name, call.tag)
        ):
            # rendezvous: the blocking send waits for a matching receive
            self._block(proc, call.tag, frame)
            self._rdv_waiting.setdefault(call.dest, []).append((proc, call))
            return
        overhead = self.latency.send_overhead
        self._post(Message(
            src=proc.name, dest=call.dest, tag=call.tag, size=call.size,
            send_time=self.now,
            arrival_time=self.now + overhead + self.latency.transfer_time(call.size),
        ))
        result = None
        if isinstance(call, Isend):
            result = Request(proc.name, call.tag)
            result.complete = True
        self._busy(proc, Activity.COMPUTE, overhead, frame, result)

    def _post(self, msg):
        """Put *msg* in flight through the message filters (each maps one
        copy to the extra delays of the copies to deliver)."""
        copies = [msg]
        for filt in self._message_filters:
            copies = [
                m if extra <= 0.0 else Message(
                    m.src, m.dest, m.tag, m.size, m.send_time, m.arrival_time + extra)
                for m in copies for extra in filt(m)
            ]
        for m in copies:
            self.schedule(m.arrival_time, lambda m=m: self._deliver(m))

    @staticmethod
    def _matches(src_filter, tag, msg_src, msg_tag):
        return tag == msg_tag and src_filter in (ANY_SOURCE, msg_src)

    def _deliver(self, msg):
        dest = self.procs[msg.dest]
        blocked = dest.state is ProcState.BLOCKED
        # posted non-blocking receives match ahead of the mailbox
        for req in self._pending_irecvs[msg.dest]:
            if not req.complete and self._matches(req.src, req.tag, msg.src, msg.tag):
                req.complete = True
                req.message = msg
                self._pending_irecvs[msg.dest].remove(req)
                if blocked and dest.block_tag is not None and dest._wait_req is req:
                    self._unblock(dest, msg.tag)
                return
        want = dest._recv_want
        if blocked and want is not None and self._matches(*want, msg.src, msg.tag):
            dest._recv_want = None
            self._unblock(dest, msg.tag, msg)
            return
        self._mailboxes[msg.dest].deliver(msg)

    def _receiver_posted(self, dest, src, tag):
        proc = self.procs[dest]
        want = proc._recv_want
        if (proc.state is ProcState.BLOCKED and want is not None
                and self._matches(*want, src, tag)):
            return True
        return any(not req.complete and self._matches(req.src, req.tag, src, tag)
                   for req in self._pending_irecvs[dest])

    def _release_rendezvous(self, dest, src_filter, tag):
        """A receive was just posted at *dest*: complete the earliest
        matching rendezvous sender, if any."""
        waiting = self._rdv_waiting.get(dest, [])
        for i, (sender, call) in enumerate(waiting):
            if self._matches(src_filter, tag, sender.name, call.tag):
                del waiting[i]
                self._post(Message(
                    src=sender.name, dest=dest, tag=call.tag, size=call.size,
                    send_time=sender.block_start,
                    arrival_time=self.now + self.latency.transfer_time(call.size),
                ))
                self._unblock(sender, call.tag)
                return

    def _unblock(self, proc, tag, value=None):
        """End a synchronisation wait; the process pays the receive
        overhead and resumes with *value*."""
        frame = proc.block_frame
        self._end_wait(proc, tag)
        proc._wait_req = None
        self._busy(proc, Activity.COMPUTE, self.latency.recv_overhead, frame, value)

    def _recv(self, proc, call, frame):
        msg = self._mailboxes[proc.name].match(call.src, call.tag)
        if msg is not None:
            self._busy(proc, Activity.COMPUTE, self.latency.recv_overhead, frame, msg)
            return
        self._block(proc, call.tag, frame)
        proc._recv_want = (call.src, call.tag)
        self._release_rendezvous(proc.name, call.src, call.tag)

    def _irecv(self, proc, call):
        req = Request(call.src, call.tag)
        msg = self._mailboxes[proc.name].match(call.src, call.tag)
        if msg is not None:
            req.complete = True
            req.message = msg
        else:
            self._pending_irecvs[proc.name].append(req)
            self._release_rendezvous(proc.name, call.src, call.tag)
        self._resume(proc, req)

    def _wait(self, proc, call, frame):
        req = call.request
        if req.complete:
            self._resume(proc, req.message)
            return
        self._block(proc, req.tag, frame)
        proc._wait_req = req

    def _check_barrier(self):
        """Release the barrier once every live process has arrived (a
        crashed one no longer counts as a participant)."""
        waiting = self._barrier_waiting
        if not waiting or len(waiting) < len(self._live()):
            return
        self._barrier_waiting = []
        for p in waiting:
            self._end_wait(p, "Barrier")
            self._resume(p)
