"""An ocean-circulation model in the style of the paper's PVM study.

Section 4.2 reports "similar results for an ocean circulation modeling
code using PVM, running on SUN SPARCstations" — with a different optimal
synchronisation threshold (20%, versus 12% for the MPI Poisson code),
"showing the advantage of application-specific historical performance
data".

This workload is therefore shaped to put its significant bottleneck
values in a *higher, tighter* band than Poisson's: a ring halo exchange
whose waits cluster around 22–35% of execution time, plus periodic
checkpoint I/O, with only small noise below 15%.  The threshold sweep
then finds its efficiency knee near 20% rather than 12%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..simulator.process import Barrier, Compute, IoOp, Recv, Send
from .base import Application
from .rng import UniformRows

__all__ = ["OceanConfig", "build_ocean"]


@dataclass(frozen=True)
class OceanConfig:
    """Workload knobs for the ocean model."""

    iterations: int = 700
    n_processes: int = 4
    base_compute: float = 2.2
    load_factors: Tuple[float, ...] = (1.0, 0.12, 0.95, 0.10)
    jitter_width: float = 0.3
    checkpoint_every: int = 25
    checkpoint_io: float = 1.6
    reduce_extra: float = 0.5
    recv_process: float = 0.08
    msg_bytes: float = 16384.0
    seed: int = 424242


def _proc_name(rank: int) -> str:
    return f"ocean:{rank + 1}"


def _program(rank: int, n: int, times: UniformRows, cfg: OceanConfig) -> Callable:
    left = _proc_name((rank - 1) % n)
    right = _proc_name((rank + 1) % n)
    root = 0

    def program(proc):
        with proc.function("ocean.f", "main"):
            with proc.function("ocean.f", "init"):
                yield Compute(1.0)
                yield Barrier()
            for it, t in enumerate(times.row(rank)):
                with proc.function("step.f", "timestep"):
                    yield Compute(t)
                with proc.function("halo.f", "haloswap"):
                    # Bidirectional ring halo: tags 5/0 (eastward) and 5/1
                    # (westward); the alternating heavy/light load factors
                    # make each light rank wait on both neighbours.
                    yield Send(right, "5/0", cfg.msg_bytes)
                    yield Send(left, "5/1", cfg.msg_bytes)
                    yield Recv(left, "5/0")
                    yield Recv(right, "5/1")
                with proc.function("step.f", "vdiff"):
                    yield Compute(t * 0.12)
                # global time-step reduction on tag 5/-1
                if rank == root:
                    for other in range(1, n):
                        yield Recv(_proc_name(other), "5/-1")
                        yield Compute(cfg.recv_process)
                    yield Compute(cfg.reduce_extra)
                    for other in range(1, n):
                        yield Send(_proc_name(other), "5/-1", 64.0)
                else:
                    yield Send(_proc_name(root), "5/-1", 64.0)
                    yield Recv(_proc_name(root), "5/-1")
                if (it + 1) % cfg.checkpoint_every == 0:
                    with proc.function("io.f", "writeckpt"):
                        yield IoOp(cfg.checkpoint_io if rank == root else cfg.checkpoint_io * 0.2)
        return

    return program


def build_ocean(config: OceanConfig | None = None) -> Application:
    """Build the PVM-style ocean circulation application."""
    cfg = config or OceanConfig()
    n = cfg.n_processes
    times = UniformRows(
        cfg.seed, 1.0 - cfg.jitter_width, 1.0 + cfg.jitter_width, cfg.iterations,
        [cfg.base_compute * cfg.load_factors[r % len(cfg.load_factors)] for r in range(n)],
    )
    processes = [_proc_name(r) for r in range(n)]
    nodes = [f"spark{r + 1:02d}" for r in range(n)]
    return Application(
        name="ocean",
        version="pvm",
        modules={
            "ocean.f": ("main", "init"),
            "step.f": ("timestep", "vdiff"),
            "halo.f": ("haloswap",),
            "io.f": ("writeckpt",),
        },
        tags=("5/0", "5/1", "5/-1"),
        processes=processes,
        placement=dict(zip(processes, nodes)),
        programs={
            processes[r]: _program(r, n, times, cfg) for r in range(n)
        },
        uses_barrier=True,
        description="Ocean circulation model (PVM study stand-in)",
    )
