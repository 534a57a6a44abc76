"""Deterministic, seeded I/O fault injection at the storage/OS boundary.

:mod:`repro.faults.plan` injects anomalies into the *simulated* machine;
this module injects them into the *real* one — the os/file call sites
the store goes through.  The history store only earns
its keep if it survives EIO, a full disk, a torn write, or a writer kill
landing at any syscall boundary, and those conditions cannot be waited
for: they must be injected, deterministically, so every failing schedule
replays exactly.

The vocabulary mirrors the declarative :class:`~repro.faults.plan.FaultPlan`
pattern: an :class:`IOFaultPlan` lists :class:`IOFault` entries, each
naming an **op** (a call-site family the store threads through this
module), a 0-based **call index** at which to strike, a **kind**, and how
many consecutive calls it covers (``times`` — transient faults clear,
letting retry layers recover).  Ops and kinds:

========  =============================================================
op        kinds
========  =============================================================
write     ``eio``, ``enospc``, ``short`` (a prefix of the bytes lands,
          then ENOSPC), ``crash``
fsync     ``eio``, ``lost`` (fsync silently skipped), ``crash``
replace   ``eio``, ``crash`` (atomic rename fails / process dies)
read      ``eio``, ``crash``
========  =============================================================

``crash`` raises :class:`SimulatedCrash` — a ``BaseException`` so no
``except Exception`` recovery path can swallow it — modelling SIGKILL at
that syscall boundary: every I/O call that completed before it is
durable, everything after never happens, and the in-memory store object
is dead (the torture harness re-opens from disk, exactly as a restarted
process would).  ``lost`` models an fsync that reports success without
durability; under the crash-at-syscall model completed writes stay
visible, so its observable effect is exercising the skip path and the
injection log.

Arming is process-global (``arm``/``disarm`` or the ``injected`` context
manager) and the check the store calls is one ``None`` test when no
injector is armed — the disarmed cost is a function call.  Call counters
are per-op and lock-protected, so schedules stay deterministic even with
a background compaction thread in play.
"""

from __future__ import annotations

import errno
import random
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .plan import FaultPlanError

__all__ = [
    "IOFault",
    "IOFaultPlan",
    "IOFaultInjector",
    "SimulatedCrash",
    "arm",
    "disarm",
    "active",
    "injected",
    "check",
]

#: Kinds each op admits; also the menu :meth:`IOFaultPlan.random` draws from.
KINDS_FOR_OP: Dict[str, Tuple[str, ...]] = {
    "write": ("eio", "enospc", "short", "crash"),
    "fsync": ("eio", "lost", "crash"),
    "replace": ("eio", "crash"),
    "read": ("eio", "crash"),
}


class SimulatedCrash(BaseException):
    """Injected process death at an I/O call boundary.

    A ``BaseException`` on purpose: recovery code that catches
    ``Exception`` must not be able to "handle" a kill, exactly as it
    could not handle a real SIGKILL.
    """


@dataclass(frozen=True)
class IOFault:
    """One scheduled fault: strike the ``at``-th call of ``op``.

    ``times`` consecutive calls are affected (then the fault clears —
    a transient); ``arg`` parameterises ``short`` writes (fraction of
    the bytes that land); ``path_part`` restricts the strike to calls
    whose path contains the substring (the per-op call counter still
    advances on every call, so indices stay schedule-global).
    """

    op: str
    at: int
    kind: str
    times: int = 1
    arg: float = 0.5
    path_part: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in KINDS_FOR_OP:
            raise FaultPlanError(
                f"unknown I/O op {self.op!r} (expected one of "
                f"{sorted(KINDS_FOR_OP)})"
            )
        if self.kind not in KINDS_FOR_OP[self.op]:
            raise FaultPlanError(
                f"kind {self.kind!r} does not apply to op {self.op!r} "
                f"(allowed: {KINDS_FOR_OP[self.op]})"
            )
        if self.at < 0:
            raise FaultPlanError(f"fault index must be >= 0, got {self.at}")
        if self.times < 1:
            raise FaultPlanError(f"times must be >= 1, got {self.times}")
        if not 0.0 <= self.arg <= 1.0:
            raise FaultPlanError(f"arg must be in [0, 1], got {self.arg}")


@dataclass(frozen=True)
class IOFaultPlan:
    """A deterministic I/O fault schedule (JSON round-trippable)."""

    seed: int = 0
    faults: Tuple[IOFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(
            f if isinstance(f, IOFault) else IOFault(**f) for f in self.faults
        ))

    def is_empty(self) -> bool:
        return not self.faults

    def describe(self) -> str:
        inner = "; ".join(
            f"{f.kind}@{f.op}[{f.at}" + (f"+{f.times}" if f.times > 1 else "") + "]"
            for f in self.faults
        )
        return f"IOFaultPlan(seed={self.seed}" + (f": {inner}" if inner else "") + ")"

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [asdict(f) for f in self.faults]}

    @staticmethod
    def from_dict(data: dict) -> "IOFaultPlan":
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(f"unknown I/O fault plan field(s): {sorted(unknown)}")
        return IOFaultPlan(
            seed=data.get("seed", 0),
            faults=tuple(IOFault(**f) for f in data.get("faults", ())),
        )

    @staticmethod
    def random(
        seed: int,
        *,
        ops: Sequence[str] = ("write", "fsync", "replace", "read"),
        max_faults: int = 3,
        horizon: int = 16,
    ) -> "IOFaultPlan":
        """A seeded random schedule: 1..``max_faults`` faults, each at a
        call index below ``horizon``.  Same seed, same schedule — the
        torture harness's reproducibility contract."""
        rng = random.Random(seed)
        faults: List[IOFault] = []
        for _ in range(rng.randint(1, max_faults)):
            op = rng.choice(list(ops))
            faults.append(IOFault(
                op=op,
                at=rng.randrange(horizon),
                kind=rng.choice(KINDS_FOR_OP[op]),
                times=rng.choice((1, 1, 1, 2)),
                arg=round(rng.uniform(0.1, 0.9), 3),
            ))
        return IOFaultPlan(seed=seed, faults=tuple(faults))


class IOFaultInjector:
    """One armed plan: per-op call counters plus a log of every strike.

    ``injected`` is a list of ``(op, call_index, kind, path)`` tuples;
    tests assert against it and torture failure messages cite it.
    """

    def __init__(self, plan: IOFaultPlan) -> None:
        self.plan = plan
        self.counters: Dict[str, int] = {}
        self.injected: List[Tuple[str, int, str, str]] = []
        self._lock = threading.Lock()

    def on(self, op: str, path: object = None) -> Optional[Tuple[str, float]]:
        """Advance ``op``'s counter; raise or return the scheduled action.

        Raising kinds (``eio``/``enospc``/``crash``) raise from
        here; caller-mediated kinds come back as ``(kind, arg)`` —
        ``short`` (write a prefix, then fail) and ``lost`` (skip the
        fsync).  ``None`` means no fault at this call.
        """
        with self._lock:
            index = self.counters.get(op, 0)
            self.counters[op] = index + 1
            hit: Optional[IOFault] = None
            for fault in self.plan.faults:
                if fault.op != op or not fault.at <= index < fault.at + fault.times:
                    continue
                if fault.path_part is not None and (
                    path is None or fault.path_part not in str(path)
                ):
                    continue
                hit = fault
                break
            if hit is None:
                return None
            self.injected.append((op, index, hit.kind, str(path) if path else ""))
        where = f"{op}[{index}]" + (f" on {path}" if path else "")
        if hit.kind == "crash":
            raise SimulatedCrash(f"injected crash at {where}")
        if hit.kind == "eio":
            raise OSError(errno.EIO, f"injected EIO at {where}", str(path or ""))
        if hit.kind == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected ENOSPC at {where}", str(path or "")
            )
        return (hit.kind, hit.arg)


# ---------------------------------------------------------------------------
# the process-global arming point the store consults
# ---------------------------------------------------------------------------
_ACTIVE: Optional[IOFaultInjector] = None
_ARM_LOCK = threading.Lock()


def arm(plan: IOFaultPlan) -> IOFaultInjector:
    """Arm *plan* process-wide; returns the live injector (for its log)."""
    global _ACTIVE
    with _ARM_LOCK:
        if _ACTIVE is not None:
            raise FaultPlanError("an I/O fault plan is already armed")
        _ACTIVE = IOFaultInjector(plan)
        return _ACTIVE


def disarm() -> Optional[IOFaultInjector]:
    """Disarm and return the injector that was active (or ``None``)."""
    global _ACTIVE
    with _ARM_LOCK:
        injector, _ACTIVE = _ACTIVE, None
        return injector


def active() -> Optional[IOFaultInjector]:
    return _ACTIVE


@contextmanager
def injected(plan: IOFaultPlan) -> Iterator[IOFaultInjector]:
    """``with injected(plan) as inj:`` — armed for the block, always disarmed."""
    injector = arm(plan)
    try:
        yield injector
    finally:
        disarm()


def check(op: str, path: object = None) -> Optional[Tuple[str, float]]:
    """The store's per-call-site hook.  One ``None`` test when disarmed."""
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.on(op, path)
