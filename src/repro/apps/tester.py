"""Program ``Tester`` from the paper's Figure 1.

Figure 1 shows three resource hierarchies for a program named Tester:

* Code: ``main.c`` (main), ``testutil.C`` (printstatus, verifya,
  verifyb), ``vect.c`` (vect::addel, vect::findel, vect::print);
* Machine: CPU_1 … CPU_4;
* Process: Tester:1 … Tester:4.

The focus used as the running example is
``< /Code/testutil.C/verifyA, /Machine, /Process/Tester:2 >`` — our
function names are lower-case as in the hierarchy panel of the figure.

The program itself is a small verification harness: each process builds a
vector, verifies it twice, and periodically synchronises; process
Tester:2 carries extra verification work so function/process conjunction
foci have something to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..simulator.process import Barrier, Compute, IoOp
from .base import Application
from .rng import UniformRows

__all__ = ["TesterConfig", "build_tester"]


@dataclass(frozen=True)
class TesterConfig:
    __test__ = False  # not a pytest test class despite the Test* name

    iterations: int = 400
    base_compute: float = 1.0
    seed: int = 7


def _program(rank: int, times: UniformRows) -> Callable:
    def program(proc):
        with proc.function("main.c", "main"):
            for it, t in enumerate(times.row(rank)):
                with proc.function("vect.c", "vect::addel"):
                    yield Compute(t * 0.3)
                with proc.function("vect.c", "vect::findel"):
                    yield Compute(t * 0.2)
                with proc.function("testutil.C", "verifya"):
                    # Tester:2 does double verification work.
                    factor = 2.0 if rank == 1 else 1.0
                    yield Compute(t * 0.4 * factor)
                with proc.function("testutil.C", "verifyb"):
                    yield Compute(t * 0.1)
                if (it + 1) % 10 == 0:
                    with proc.function("testutil.C", "printstatus"):
                        yield Compute(0.01)
                    yield Barrier()
            with proc.function("vect.c", "vect::print"):
                yield IoOp(0.3)

    return program


def build_tester(config: TesterConfig | None = None) -> Application:
    """Build the Figure-1 Tester program (4 processes on CPU_1..CPU_4)."""
    cfg = config or TesterConfig()
    n = 4
    times = UniformRows(cfg.seed, 0.7, 1.3, cfg.iterations, [cfg.base_compute] * n)
    processes = [f"Tester:{r + 1}" for r in range(n)]
    nodes = [f"CPU_{r + 1}" for r in range(n)]
    return Application(
        name="tester",
        version="1",
        modules={
            "main.c": ("main",),
            "testutil.C": ("printstatus", "verifya", "verifyb"),
            "vect.c": ("vect::addel", "vect::findel", "vect::print"),
        },
        tags=(),
        processes=processes,
        placement=dict(zip(processes, nodes)),
        programs={processes[r]: _program(r, times) for r in range(n)},
        uses_barrier=True,
        description="Figure-1 example program Tester",
    )
