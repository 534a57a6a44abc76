"""Fault injection: seeded, deterministic anomalies for simulated runs.

The paper's premise is diagnosis across *many* executions of imperfect
programs on imperfect machines.  This package supplies the imperfection
on demand: a :class:`FaultPlan` declares message drops/duplicates/delays,
slow nodes, and processes that crash or hang at a chosen virtual time;
:class:`FaultInjector` wires the plan into an engine through its public
hook points.  Same plan + same application = identical trace and
diagnosis, so every anomalous scenario is reproducible.

:mod:`repro.faults.io` applies the same seeded-declarative pattern to
the *real* machine: an :class:`IOFaultPlan` schedules EIO/ENOSPC/short
writes/lost fsyncs/rename failures/kills at chosen call indices of the
store's os call sites.
"""

from .injector import FaultInjector, InjectedFault, apply_faults
from .io import IOFault, IOFaultInjector, IOFaultPlan, SimulatedCrash
from .plan import FaultPlan, FaultPlanError

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "apply_faults",
    "FaultPlan",
    "FaultPlanError",
    "IOFault",
    "IOFaultInjector",
    "IOFaultPlan",
    "SimulatedCrash",
]
