"""The CPU-bound annealing/partitioning program of the paper's Figure 2.

Figure 2 shows a Performance Consultant search where CPUbound tested true
at the whole program and was refined into the Code hierarchy: modules
``bubba.c``, ``channel.c``, ``anneal.c``, ``outchan.c`` and ``graph.c``
tested false, while ``goat`` and ``partition.c`` tested true and were
refined further.

This stand-in is a simulated-annealing circuit partitioner whose hot code
lives in exactly those two modules, so an undirected search regenerates
the figure's true/false pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..simulator.process import Barrier, Compute
from .base import Application
from .rng import UniformRows

__all__ = ["AnnealConfig", "build_anneal"]


@dataclass(frozen=True)
class AnnealConfig:
    iterations: int = 600
    base_compute: float = 1.8
    n_processes: int = 2
    seed: int = 99


def _program(rank: int, n: int, times: UniformRows, cfg: AnnealConfig) -> Callable:
    def program(proc):
        with proc.function("bubba.c", "main"):
            with proc.function("graph.c", "readgraph"):
                yield Compute(0.4)
                yield Barrier()
            for it, t in enumerate(times.row(rank)):
                # The two hot modules: the annealing move evaluator lives
                # in goat, the cut-cost kernel in partition.c.
                with proc.function("goat", "evalmove"):
                    yield Compute(t * 0.5)
                with proc.function("partition.c", "cutcost"):
                    yield Compute(t * 0.38)
                with proc.function("anneal.c", "cooldown"):
                    yield Compute(t * 0.05)
                with proc.function("channel.c", "routechan"):
                    yield Compute(t * 0.04)
                with proc.function("outchan.c", "emit"):
                    yield Compute(t * 0.03)
                if (it + 1) % 40 == 0:
                    yield Barrier()

    return program


def build_anneal(config: AnnealConfig | None = None) -> Application:
    """Build the Figure-2 annealing partitioner."""
    cfg = config or AnnealConfig()
    n = cfg.n_processes
    times = UniformRows(cfg.seed, 0.9, 1.1, cfg.iterations, [cfg.base_compute] * n)
    processes = [f"anneal:{r + 1}" for r in range(n)]
    nodes = [f"grilled{r + 1}" for r in range(n)]
    return Application(
        name="anneal",
        version="1",
        modules={
            "bubba.c": ("main",),
            "channel.c": ("routechan",),
            "anneal.c": ("cooldown",),
            "outchan.c": ("emit",),
            "graph.c": ("readgraph",),
            "goat": ("evalmove",),
            "partition.c": ("cutcost",),
        },
        tags=(),
        processes=processes,
        placement=dict(zip(processes, nodes)),
        programs={processes[r]: _program(r, n, times, cfg) for r in range(n)},
        uses_barrier=True,
        description="Figure-2 CPU-bound annealing partitioner",
    )
