"""The applications' jitter against NumPy, draw for draw.

``repro.apps.rng.UniformRows`` reproduces
``numpy.random.default_rng(seed).uniform(low, high, size=(rows, width))``
one row at a time, jumping to row ``r`` with PCG64's advance.  NumPy is
the oracle here and only here: every builder's programs are driven by a
stub process and each rank's sweep computes must equal what the NumPy
array expression (the builders' arithmetic before the stream replaced
it) gives for that rank, for every iteration.
"""

from contextlib import contextmanager

import pytest

from repro.apps import (
    AnnealConfig,
    OceanConfig,
    PoissonConfig,
    TesterConfig,
    build_anneal,
    build_ocean,
    build_poisson,
    build_tester,
)
from repro.apps.rng import UniformRows
from repro.core import SearchConfig, run_diagnosis
from repro.obs import deterministic_metrics
from repro.simulator.process import Compute

np = pytest.importorskip("numpy")

#: 2**40 + 5 takes two 32-bit entropy words and the 97-bit seed four,
#: the pool's size.
SEEDS = (0, 1, 1999, 25756, 2**40 + 5, (1 << 96) | 0x5DEECE66D)
ITERATIONS = (1, 17, 1000, 1003)


class _StubProc:
    """Just enough of a ``SimProcess`` to drive a program generator:
    the stack of functions entered.  Every yield gets ``None`` back."""

    def __init__(self):
        self.stack = []

    @contextmanager
    def function(self, module, function):
        self.stack.append(function)
        try:
            yield
        finally:
            self.stack.pop()


def _computes(app, rank, functions):
    """``(function, seconds)`` of every ``Compute`` rank *rank*'s program
    yields inside one of *functions*, in program order."""
    proc = _StubProc()
    out = []
    for op in app.programs[app.processes[rank]](proc):
        if isinstance(op, Compute) and proc.stack[-1] in functions:
            out.append((proc.stack[-1], op.seconds))
    return out


def _numpy_times(seed, low, high, n, iterations, base_compute, factors=None):
    """The builders' array expression before the stream replaced it."""
    jitter = np.random.default_rng(seed).uniform(low, high, size=(n, iterations))
    if factors is None:
        return base_compute * jitter
    means = np.array([factors[r % len(factors)] for r in range(n)])
    return base_compute * means[:, None] * jitter


def _expected(arrays, rank, parts):
    """Each iteration's sweep computes: ``parts`` are ``(function, array
    index, seconds-from-value)`` for one iteration, in program order."""
    out = []
    for it in range(arrays[0].shape[1]):
        for function, which, seconds in parts:
            out.append((function, seconds(float(arrays[which][rank, it]))))
    return out


def _oracle(name, seed, iterations):
    """``(application, rank -> parts, arrays)`` for one builder."""
    if name in "ABCD":
        cfg = PoissonConfig(iterations=iterations, seed=seed)
        n = 8 if name == "D" else 4
        salt = "ABCD".index(name)
        w = cfg.jitter_width
        arrays = [
            _numpy_times(cfg.seed + 7919 * s, 1.0 - w, 1.0 + w, n, iterations,
                         cfg.base_compute, factors)
            for s, factors in ((salt, cfg.load_factors), (salt + 101, cfg.black_factors))
        ]
        f, red = cfg.interior_fraction, cfg.red_fraction
        parts = {
            "A": [("sweep1d", 0, lambda t: t)],
            "B": [("nbsweep", 0, lambda t: t * (1.0 - f)), ("nbsweep", 0, lambda t: t * f)],
            "C": [("sweep2d", 0, lambda t: t * red), ("sweep2d", 1, lambda t: t * (1.0 - red))],
        }["C" if name == "D" else name]
        return build_poisson(name, cfg), lambda rank: parts, arrays
    if name == "ocean":
        cfg = OceanConfig(iterations=iterations, seed=seed)
        w = cfg.jitter_width
        arrays = [_numpy_times(seed, 1.0 - w, 1.0 + w, cfg.n_processes, iterations,
                               cfg.base_compute, cfg.load_factors)]
        parts = [("timestep", 0, lambda t: t), ("vdiff", 0, lambda t: t * 0.12)]
        return build_ocean(cfg), lambda rank: parts, arrays
    if name == "anneal":
        cfg = AnnealConfig(iterations=iterations, seed=seed)
        arrays = [_numpy_times(seed, 0.9, 1.1, cfg.n_processes, iterations,
                               cfg.base_compute)]
        parts = [(function, 0, lambda t, k=k: t * k) for function, k in (
            ("evalmove", 0.5), ("cutcost", 0.38), ("cooldown", 0.05),
            ("routechan", 0.04), ("emit", 0.03))]
        return build_anneal(cfg), lambda rank: parts, arrays
    cfg = TesterConfig(iterations=iterations, seed=seed)
    arrays = [_numpy_times(seed, 0.7, 1.3, 4, iterations, cfg.base_compute)]

    def parts(rank):
        factor = 2.0 if rank == 1 else 1.0  # Tester:2 verifies twice
        return [("vect::addel", 0, lambda t: t * 0.3), ("vect::findel", 0, lambda t: t * 0.2),
                ("verifya", 0, lambda t: t * 0.4 * factor), ("verifyb", 0, lambda t: t * 0.1)]

    return build_tester(cfg), parts, arrays


@pytest.mark.parametrize("iterations", ITERATIONS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["A", "B", "C", "D", "ocean", "anneal", "tester"])
def test_every_rank_sweeps_as_numpy_did(name, seed, iterations):
    """Poisson A-D (D's 8 ranks jump furthest), ocean, anneal and tester:
    every rank, every iteration, bit for bit."""
    app, parts_of, arrays = _oracle(name, seed, iterations)
    for rank in range(len(app.processes)):
        parts = parts_of(rank)
        got = _computes(app, rank, {p[0] for p in parts})
        assert got == _expected(arrays, rank, parts), (name, seed, iterations, rank)


# A 201-bit seed has seven entropy words: the three past the pool are
# mixed in last.
@pytest.mark.parametrize("seed", SEEDS + ((1 << 200) + 3,))
@pytest.mark.parametrize("shape", [(4, 1000), (8, 1003), (4, 17), (3, 1)])
def test_rows_equal_numpy_uniform(seed, shape):
    rows, width = shape
    scales = [0.3 + 0.7 * r for r in range(rows)]
    expected = np.array(scales)[:, None] * np.random.default_rng(seed).uniform(
        0.05, 1.95, size=shape)
    uniform = UniformRows(seed, 0.05, 1.95, width, scales)
    for r in range(rows):
        assert list(uniform.row(r)) == expected[r].tolist(), (seed, shape, r)


def test_rows_are_lazy_and_replay():
    """A row is a generator, drawn as it is taken, and each call replays
    from the row's first value."""
    uniform = UniformRows(1999, 0.05, 1.95, 1000, [1.0] * 8)
    expected = np.random.default_rng(1999).uniform(0.05, 1.95, size=(8, 1000))
    stream = uniform.row(7)
    assert [next(stream) for _ in range(3)] == expected[7, :3].tolist()
    assert list(uniform.row(7)) == expected[7].tolist()


def _deterministic(record):
    data = record.to_dict()
    data["metrics"] = deterministic_metrics(data["metrics"])
    return data


def test_an_application_run_twice_gives_identical_records():
    """The stream is made inside each program, so an ``Application``
    replays from the start every time it runs."""
    config = SearchConfig(min_interval=5.0, check_period=0.5,
                          insertion_latency=0.2, cost_limit=50.0)
    app = build_poisson("D", PoissonConfig(iterations=60))
    first = _deterministic(run_diagnosis(app, config=config, run_id="twice"))
    assert first["metrics"]["virtual_seconds"] > 60 * PoissonConfig().base_compute * 0.2
    assert _deterministic(run_diagnosis(app, config=config, run_id="twice")) == first
    fresh = build_poisson("D", PoissonConfig(iterations=60))
    assert _deterministic(run_diagnosis(fresh, config=config, run_id="twice")) == first
