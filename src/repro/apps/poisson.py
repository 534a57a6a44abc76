"""The 2-D Poisson decomposition application, versions A-D.

The paper evaluates on an iterative Poisson solver from Gropp, Lusk &
Skjellum's *Using MPI* (chapter 4), in four versions (Section 4.3):

* **A** — 1-dimensional decomposition, blocking send/receive
  (modules ``oned.f``, ``sweep.f``, ``exchng1.f``);
* **B** — non-blocking 1-dimensional version
  (``onednb.f``, ``nbsweep.f``, ``nbexchng.f`` — the renames that motivate
  the mapping directives of Figure 3);
* **C** — 2-dimensional decomposition on 4 nodes
  (``twod.f``, ``sweep2d.f``, ``exchng2.f``; ghost exchange on message
  tags 3/0 and 3/1, convergence reduction on tag 3/-1, matching the tag
  split reported in Section 4.2);
* **D** — the same code as C across 8 nodes.

All versions compute a fixed number of iterations (the paper changed the
codes the same way).  Per-rank compute-time means are imbalanced and a
deterministic bounded jitter makes every process wait some of the time,
reproducing Section 4.2's profile shape: sync-dominated overall, waits
concentrated in the exchange function and ``main``, higher wait fractions
on the later processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..core.directives import MapDirective
from ..simulator.process import (
    Barrier,
    Compute,
    IoOp,
    Irecv,
    Isend,
    Recv,
    Send,
    WaitReq,
)
from .base import Application
from .rng import UniformRows

__all__ = ["PoissonConfig", "build_poisson", "VERSIONS", "version_maps", "machine_maps"]


@dataclass(frozen=True)
class PoissonConfig:
    """Workload knobs shared by all four versions.

    ``load_factors`` are per-rank mean compute multipliers (cycled when a
    version runs more processes); ``jitter_width`` is the uniform spread
    that creates per-iteration imbalance; ``root_extra`` is serial
    convergence-check work at the reduction root, which turns into
    guaranteed ``main`` wait time on every other process.
    """

    iterations: int = 1000
    base_compute: float = 2.0
    load_factors: Tuple[float, ...] = (1.00, 0.90, 0.22, 0.20)
    black_factors: Tuple[float, ...] = (0.50, 0.30, 0.85, 0.65)
    jitter_width: float = 0.95
    red_fraction: float = 0.58
    interior_fraction: float = 0.72
    root_extra: float = 0.45
    diff_compute: float = 0.03
    timer_compute: float = 0.002
    setup_compute: float = 1.0
    io_time: float = 1.5
    msg_bytes: float = 8192.0
    reduce_bytes: float = 64.0
    seed: int = 1999


def _compute_times(
    cfg: PoissonConfig, n_procs: int, salt: int, factors: Tuple[float, ...] | None = None
) -> UniformRows:
    """Per-(rank, iteration) sweep compute seconds, deterministic: row
    ``r`` is rank ``r``'s, drawn as its program reaches each iteration."""
    base = factors if factors is not None else cfg.load_factors
    # Bounded (uniform) multiplicative jitter: per-iteration imbalance
    # without heavy tails, so finite observation windows concentrate on the
    # long-run fractions quickly (online reads match postmortem truth).
    width = cfg.jitter_width
    return UniformRows(cfg.seed + 7919 * salt, 1.0 - width, 1.0 + width, cfg.iterations,
                       [cfg.base_compute * base[r % len(base)] for r in range(n_procs)])


def _proc_name(rank: int) -> str:
    return f"Poisson:{rank + 1}"


# --------------------------------------------------------------------------
# program bodies
# --------------------------------------------------------------------------
def _reduce_and_bcast(proc, rank: int, n: int, tag: str, cfg: PoissonConfig):
    """Convergence check: gather partial diffs at rank 1, broadcast
    the continue flag.  The root is one of the lightly loaded ranks, so it
    waits on the gather while the others wait on the broadcast — every
    process accumulates some ``main`` wait time, as in Section 4.2."""
    root = 1 if n > 1 else 0
    if rank == root:
        for other in range(n):
            if other != root:
                yield Recv(_proc_name(other), tag)
        yield Compute(cfg.root_extra)
        for other in range(n):
            if other != root:
                yield Send(_proc_name(other), tag, cfg.reduce_bytes)
    else:
        yield Send(_proc_name(root), tag, cfg.reduce_bytes)
        yield Recv(_proc_name(root), tag)


def _program_blocking_1d(rank: int, n: int, times: UniformRows, cfg: PoissonConfig):
    """Version A: full sweep, then a blocking ordered ghost exchange."""
    up = _proc_name(rank - 1) if rank > 0 else None
    down = _proc_name(rank + 1) if rank < n - 1 else None

    def program(proc):
        with proc.function("oned.f", "main"):
            with proc.function("oned.f", "setup1d"):
                yield Compute(cfg.setup_compute)
                yield Barrier()
            for t in times.row(rank):
                with proc.function("sweep.f", "sweep1d"):
                    yield Compute(t)
                with proc.function("exchng1.f", "exchng1"):
                    if down:
                        yield Send(down, "1/0", cfg.msg_bytes)
                    if up:
                        yield Recv(up, "1/0")
                        yield Send(up, "1/1", cfg.msg_bytes)
                    if down:
                        yield Recv(down, "1/1")
                with proc.function("diff.f", "diff1d"):
                    yield Compute(cfg.diff_compute)
                with proc.function("timing.f", "timer"):
                    yield Compute(cfg.timer_compute)
                yield from _reduce_and_bcast(proc, rank, n, "1/-1", cfg)
            with proc.function("io.f", "writeout"):
                yield IoOp(cfg.io_time)

    return program


def _program_nonblocking_1d(rank: int, n: int, times: UniformRows, cfg: PoissonConfig):
    """Version B: boundary sweep, post communications, overlap the interior
    sweep, then wait — much of the imbalance hides behind computation."""
    up = _proc_name(rank - 1) if rank > 0 else None
    down = _proc_name(rank + 1) if rank < n - 1 else None

    def program(proc):
        with proc.function("onednb.f", "main"):
            with proc.function("onednb.f", "setup1d"):
                yield Compute(cfg.setup_compute)
                yield Barrier()
            for t in times.row(rank):
                boundary = t * (1.0 - cfg.interior_fraction)
                interior = t * cfg.interior_fraction
                with proc.function("nbsweep.f", "nbsweep"):
                    yield Compute(boundary)
                req_up = req_down = None
                with proc.function("nbexchng.f", "nbexchng1"):
                    if up:
                        req_up = yield Irecv(up, "1/0")
                    if down:
                        req_down = yield Irecv(down, "1/1")
                    if down:
                        yield Isend(down, "1/0", cfg.msg_bytes)
                    if up:
                        yield Isend(up, "1/1", cfg.msg_bytes)
                with proc.function("nbsweep.f", "nbsweep"):
                    yield Compute(interior)
                with proc.function("nbexchng.f", "nbexchng1"):
                    if req_up is not None:
                        yield WaitReq(req_up)
                    if req_down is not None:
                        yield WaitReq(req_down)
                with proc.function("diff.f", "diff1d"):
                    yield Compute(cfg.diff_compute)
                with proc.function("timing.f", "timer"):
                    yield Compute(cfg.timer_compute)
                yield from _reduce_and_bcast(proc, rank, n, "1/-1", cfg)
            with proc.function("io.f", "writeout"):
                yield IoOp(cfg.io_time)

    return program


def _program_2d(
    rank: int,
    n: int,
    ncols: int,
    times: UniformRows,
    times2: UniformRows,
    cfg: PoissonConfig,
):
    """Versions C/D: 2-D decomposition with a red/black double sweep.

    The red sweep is followed by the downward ghost exchange (tag 3/0) and
    the black sweep by the upward exchange (tag 3/1), so both tags carry
    imbalance-driven wait time with the red share larger — the 27% / 19%
    split of Section 4.2.  The convergence reduction uses tag 3/-1 inside
    ``main``.
    """
    up = _proc_name(rank - ncols) if rank - ncols >= 0 else None
    down = _proc_name(rank + ncols) if rank + ncols < n else None
    row, col = divmod(rank, ncols)
    side_rank = rank + 1 if col + 1 < ncols else rank - 1
    side = _proc_name(side_rank) if 0 <= side_rank < n and side_rank != rank else None

    def program(proc):
        with proc.function("twod.f", "main"):
            with proc.function("twod.f", "setupgrid"):
                yield Compute(cfg.setup_compute)
                yield Barrier()
            for t, t2 in zip(times.row(rank), times2.row(rank)):
                with proc.function("sweep2d.f", "sweep2d"):
                    yield Compute(t * cfg.red_fraction)
                with proc.function("exchng2.f", "exchng2"):
                    # red phase: bidirectional vertical plus horizontal
                    # ghost exchange (tag 3/0) — carries the large
                    # decomposition imbalance
                    if down:
                        yield Send(down, "3/0", cfg.msg_bytes)
                    if up:
                        yield Send(up, "3/0", cfg.msg_bytes)
                    if side:
                        yield Send(side, "3/0", cfg.msg_bytes)
                    if up:
                        yield Recv(up, "3/0")
                    if down:
                        yield Recv(down, "3/0")
                    if side:
                        yield Recv(side, "3/0")
                with proc.function("sweep2d.f", "sweep2d"):
                    yield Compute(t2 * (1.0 - cfg.red_fraction))
                with proc.function("exchng2.f", "exchng2"):
                    # black phase: vertical-only exchange (tag 3/1)
                    if up:
                        yield Send(up, "3/1", cfg.msg_bytes)
                    if down:
                        yield Send(down, "3/1", cfg.msg_bytes)
                    if down:
                        yield Recv(down, "3/1")
                    if up:
                        yield Recv(up, "3/1")
                with proc.function("diff2d.f", "diff2d"):
                    yield Compute(cfg.diff_compute)
                with proc.function("timing.f", "timer"):
                    yield Compute(cfg.timer_compute)
                yield from _reduce_and_bcast(proc, rank, n, "3/-1", cfg)
            with proc.function("io.f", "writeout"):
                yield IoOp(cfg.io_time)

    return program


# --------------------------------------------------------------------------
# version table
# --------------------------------------------------------------------------
_MODULES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "A": {
        "oned.f": ("main", "setup1d"),
        "sweep.f": ("sweep1d",),
        "exchng1.f": ("exchng1",),
        "diff.f": ("diff1d",),
        "timing.f": ("timer",),
        "io.f": ("writeout",),
    },
    "B": {
        "onednb.f": ("main", "setup1d"),
        "nbsweep.f": ("nbsweep",),
        "nbexchng.f": ("nbexchng1",),
        "diff.f": ("diff1d",),
        "timing.f": ("timer",),
        "io.f": ("writeout",),
    },
    "C": {
        "twod.f": ("main", "setupgrid"),
        "sweep2d.f": ("sweep2d",),
        "exchng2.f": ("exchng2",),
        "diff2d.f": ("diff2d",),
        "timing.f": ("timer",),
        "io.f": ("writeout",),
    },
}
_MODULES["D"] = _MODULES["C"]

_TAGS = {
    "A": ("1/0", "1/1", "1/-1"),
    "B": ("1/0", "1/1", "1/-1"),
    "C": ("3/0", "3/1", "3/-1"),
    "D": ("3/0", "3/1", "3/-1"),
}

_N_PROCS = {"A": 4, "B": 4, "C": 4, "D": 8}

#: Distinct node-name blocks per version: different executions land on
#: differently named machine nodes, exactly the mapping motivation of
#: Section 3.2.
_NODE_FIRST = {"A": 0, "B": 4, "C": 8, "D": 16}

VERSIONS = ("A", "B", "C", "D")


def build_poisson(version: str, config: PoissonConfig | None = None) -> Application:
    """Build one version of the Poisson application."""
    if version not in VERSIONS:
        raise ValueError(f"unknown Poisson version {version!r} (use one of {VERSIONS})")
    cfg = config or PoissonConfig()
    n = _N_PROCS[version]
    salt = VERSIONS.index(version)
    times = _compute_times(cfg, n, salt)
    times2 = _compute_times(cfg, n, salt + 101, factors=cfg.black_factors)
    processes = [_proc_name(r) for r in range(n)]
    nodes = [f"node{_NODE_FIRST[version] + r:02d}" for r in range(n)]
    placement = dict(zip(processes, nodes))
    programs: Dict[str, Callable] = {}
    for r in range(n):
        if version == "A":
            programs[processes[r]] = _program_blocking_1d(r, n, times, cfg)
        elif version == "B":
            programs[processes[r]] = _program_nonblocking_1d(r, n, times, cfg)
        else:
            programs[processes[r]] = _program_2d(r, n, 2, times, times2, cfg)
    return Application(
        name="poisson",
        version=version,
        modules=_MODULES[version],
        tags=_TAGS[version],
        processes=processes,
        placement=placement,
        programs=programs,
        uses_barrier=True,
        description=f"Iterative Poisson decomposition, version {version}",
    )


# --------------------------------------------------------------------------
# cross-version mappings (paper, Figure 3 and Section 4.3)
# --------------------------------------------------------------------------
_CODE_MAPS: Dict[Tuple[str, str], List[Tuple[str, str]]] = {
    ("A", "B"): [
        ("/Code/oned.f", "/Code/onednb.f"),
        ("/Code/sweep.f", "/Code/nbsweep.f"),
        ("/Code/sweep.f/sweep1d", "/Code/nbsweep.f/nbsweep"),
        ("/Code/exchng1.f", "/Code/nbexchng.f"),
        ("/Code/exchng1.f/exchng1", "/Code/nbexchng.f/nbexchng1"),
    ],
    ("A", "C"): [
        ("/Code/oned.f", "/Code/twod.f"),
        ("/Code/oned.f/setup1d", "/Code/twod.f/setupgrid"),
        ("/Code/sweep.f", "/Code/sweep2d.f"),
        ("/Code/sweep.f/sweep1d", "/Code/sweep2d.f/sweep2d"),
        ("/Code/exchng1.f", "/Code/exchng2.f"),
        ("/Code/exchng1.f/exchng1", "/Code/exchng2.f/exchng2"),
        ("/Code/diff.f", "/Code/diff2d.f"),
        ("/Code/diff.f/diff1d", "/Code/diff2d.f/diff2d"),
        ("/SyncObject/Message/1", "/SyncObject/Message/3"),
    ],
    ("B", "C"): [
        ("/Code/onednb.f", "/Code/twod.f"),
        ("/Code/onednb.f/setup1d", "/Code/twod.f/setupgrid"),
        ("/Code/nbsweep.f", "/Code/sweep2d.f"),
        ("/Code/nbsweep.f/nbsweep", "/Code/sweep2d.f/sweep2d"),
        ("/Code/nbexchng.f", "/Code/exchng2.f"),
        ("/Code/nbexchng.f/nbexchng1", "/Code/exchng2.f/exchng2"),
        ("/Code/diff.f", "/Code/diff2d.f"),
        ("/Code/diff.f/diff1d", "/Code/diff2d.f/diff2d"),
        ("/SyncObject/Message/1", "/SyncObject/Message/3"),
    ],
    ("C", "D"): [],
}

# Tag families: A/B use message type 1, C/D type 3.
_TAG_FAMILY = {"A": "1", "B": "1", "C": "3", "D": "3"}


def _invert(maps: List[Tuple[str, str]]) -> List[Tuple[str, str]]:
    return [(b, a) for a, b in maps]


def _code_maps(src: str, dst: str) -> List[Tuple[str, str]]:
    # D runs the same code as C, so canonicalise D to C for code renames.
    s = "C" if src == "D" else src
    d = "C" if dst == "D" else dst
    if s == d:
        return []
    if (s, d) in _CODE_MAPS:
        return list(_CODE_MAPS[(s, d)])
    if (d, s) in _CODE_MAPS:
        return _invert(_CODE_MAPS[(d, s)])
    raise ValueError(f"no code mapping between versions {src!r} and {dst!r}")


def machine_maps(src_app: Application, dst_app: Application) -> List[MapDirective]:
    """Pair the two runs' machine nodes positionally ("we mapped each pair
    of machine resources", Section 4.3); extra destination nodes (the 4->8
    node case) are left unmapped and get discovered fresh."""
    out = []
    for a, b in zip(src_app.node_names, dst_app.node_names):
        if a != b:
            out.append(MapDirective(f"/Machine/{a}", f"/Machine/{b}"))
    return out


def version_maps(src: str, dst: str, src_app: Application | None = None,
                 dst_app: Application | None = None) -> List[MapDirective]:
    """Full mapping directive list for using *src*-version directives to
    diagnose a *dst*-version run: code renames, tag-family renames, and
    (when both apps are given) machine-node pairings."""
    maps = [MapDirective(a, b) for a, b in _code_maps(src, dst)]
    fam_src, fam_dst = _TAG_FAMILY[src], _TAG_FAMILY[dst]
    if fam_src != fam_dst and not any(
        m.old == f"/SyncObject/Message/{fam_src}" for m in maps
    ):
        maps.append(
            MapDirective(f"/SyncObject/Message/{fam_src}", f"/SyncObject/Message/{fam_dst}")
        )
    if src_app is not None and dst_app is not None:
        maps.extend(machine_maps(src_app, dst_app))
    return maps
