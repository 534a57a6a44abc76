"""Apply a :class:`~repro.faults.plan.FaultPlan` to a live engine.

The injector uses only the engine's public hook points — message filters,
perturbation sources, scheduled events, and the ``crash_process`` /
``hang_process`` fault entry points — so the simulator stays ignorant of
the faults vocabulary and the injector composes with instrumentation
perturbation and any other registered hooks.
"""

from __future__ import annotations

import random
import weakref
from typing import List, Optional, Tuple

from ..simulator.engine import Engine
from ..simulator.messages import Message
from .plan import FaultPlan, FaultPlanError

__all__ = ["FaultInjector", "InjectedFault", "apply_faults"]


class InjectedFault(RuntimeError):
    """The synthetic exception attributed to a process killed by a plan."""

    def __init__(self, process: str, at: float) -> None:
        super().__init__(f"injected crash of {process} at t={at:g}")
        self.process = process
        self.at = at


class FaultInjector:
    """One plan wired into one engine.

    The injector keeps a log of everything it did (``injected``): a list
    of ``(virtual_time, kind, detail)`` tuples, where kind is one of
    ``drop`` / ``duplicate`` / ``delay`` / ``crash`` / ``hang``.  Tests
    assert against it and degraded-run reports cite it.

    Lifetime: the engine holds the injector's hooks, and through them the
    injector, so the injector holds the engine only weakly (a strong
    reference would be a cycle); a hook runs only while its engine
    dispatches it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._engine: Optional["weakref.ref[Engine]"] = None
        self.injected: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def attach(self, engine: Engine) -> "FaultInjector":
        """Register every fault in the plan against *engine*; returns self."""
        if self._engine is not None:
            raise FaultPlanError("injector already attached to an engine")
        self._engine = weakref.ref(engine)
        plan = self.plan
        unknown = [
            p for p in list(plan.crash_at) + list(plan.hang_at)
            if p not in engine.procs
        ]
        if unknown:
            raise FaultPlanError(
                f"fault plan names unknown process(es): {sorted(set(unknown))}"
            )
        if plan.drop or plan.duplicate or plan.delay:
            engine.add_message_filter(self._filter_message)
        if plan.slow_nodes:
            # Slow nodes express as a perturbation source, the same
            # mechanism that models instrumentation overhead: a factor-f
            # node contributes f-1 extra fraction to every compute burst.
            overhead = {
                name: plan.slow_nodes.get(proc.node, 1.0) - 1.0
                for name, proc in engine.procs.items()
            }
            engine.add_perturbation_source(
                lambda proc_name: overhead.get(proc_name, 0.0)
            )
        for proc, t in sorted(plan.crash_at.items()):
            engine.schedule(t, lambda p=proc, at=t: self._crash(p, at))
        for proc, t in sorted(plan.hang_at.items()):
            engine.schedule(t, lambda p=proc, at=t: self._hang(p, at))
        return self

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _filter_message(self, msg: Message) -> List[float]:
        plan, rng = self.plan, self._rng
        now = self._engine().now
        if plan.drop and rng.random() < plan.drop:
            self.injected.append((now, "drop", f"{msg.src}->{msg.dest} tag {msg.tag}"))
            return []
        delays = [0.0]
        if plan.duplicate and rng.random() < plan.duplicate:
            self.injected.append((now, "duplicate", f"{msg.src}->{msg.dest} tag {msg.tag}"))
            delays.append(plan.delay_seconds)
        if plan.delay and rng.random() < plan.delay:
            self.injected.append((now, "delay", f"{msg.src}->{msg.dest} tag {msg.tag}"))
            delays = [d + plan.delay_seconds for d in delays]
        return delays

    def _crash(self, proc: str, at: float) -> None:
        self.injected.append((at, "crash", proc))
        self._engine().crash_process(proc, InjectedFault(proc, at))

    def _hang(self, proc: str, at: float) -> None:
        self.injected.append((at, "hang", proc))
        self._engine().hang_process(proc)


def apply_faults(engine: Engine, plan: FaultPlan) -> FaultInjector:
    """Convenience: build an injector for *plan* and attach it to *engine*."""
    return FaultInjector(plan).attach(engine)
