"""Execution backends for campaigns.

Both executors expose one method — ``run(fn, payloads, timeout=None)`` —
yielding ``(index, outcome)`` pairs where the outcome is either the worker
function's return value or the exception it raised.  Results stream in
completion order; callers key on the index, so ordering differences
between backends never reach campaign results.

:class:`SerialExecutor` runs everything in-process, in submission order —
the determinism baseline and the zero-dependency fallback.
:class:`PoolExecutor` fans out over a ``ProcessPoolExecutor``; payloads
and results cross process boundaries by pickling, which is why campaign
workers receive :class:`~repro.campaign.spec.RunSpec`-derived payloads
rather than live applications.

``timeout`` is a per-run wall-clock budget.  It is enforced *around the
worker function itself* (a watcher thread in whichever process runs the
payload), so the measured window is the run's own execution — not queue
wait — and the semantics are identical across backends.  A run that
exceeds it produces a :class:`RunTimeout` outcome; the abandoned work
continues on a daemon thread until its own (virtual-time) watchdog or
process exit reaps it, which is why the simulator-level budgets in
:class:`~repro.faults.plan.FaultPlan` are the primary defence and this is
the backstop for non-simulator stalls.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

__all__ = ["SerialExecutor", "PoolExecutor", "RunTimeout", "default_executor"]

Outcome = Tuple[int, Any]


class RunTimeout(RuntimeError):
    """A single run exceeded its wall-clock budget."""


def _timed_call(fn: Callable[[Any], Any], payload: Any, timeout: Optional[float]) -> Any:
    """Run ``fn(payload)``, bounded by *timeout* seconds of wall clock.

    Module-level so process pools can pickle it.  On expiry the worker
    raises :class:`RunTimeout`; the overrun computation is left on a
    daemon thread (it cannot be interrupted portably) and its eventual
    result is discarded.
    """
    if timeout is None:
        return fn(payload)
    box: list = []

    def target() -> None:
        try:
            box.append(("ok", fn(payload)))
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            box.append(("err", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if not box:
        raise RunTimeout(f"run exceeded {timeout:g} s wall clock")
    kind, value = box[0]
    if kind == "err":
        raise value
    return value


class SerialExecutor:
    """Execute payloads one after another in the calling process."""

    workers = 1

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> Iterator[Outcome]:
        for index, payload in enumerate(payloads):
            try:
                yield index, _timed_call(fn, payload, timeout)
            except Exception as exc:  # campaign decides retry/record policy
                yield index, exc

    def __repr__(self) -> str:
        return "SerialExecutor()"


class PoolExecutor:
    """Fan payloads out over a pool of worker processes.

    ``start_method`` defaults to ``fork`` where available: workers
    inherit the parent's imported modules, so builder callables defined
    in scripts and test modules resolve without being re-importable by
    path, and startup stays cheap.  Pass ``"spawn"`` for stricter
    isolation.
    """

    def __init__(self, workers: int = 4, start_method: str | None = None):
        import multiprocessing  # here, so `import repro` loads no pool

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._context = multiprocessing.get_context(start_method)

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> Iterator[Outcome]:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        payloads = list(payloads)
        if not payloads:
            return
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(payloads)), mp_context=self._context
        ) as pool:
            futures = {
                pool.submit(_timed_call, fn, p, timeout): i
                for i, p in enumerate(payloads)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    yield index, future.result()
                except Exception as exc:
                    yield index, exc

    def __repr__(self) -> str:
        return f"PoolExecutor(workers={self.workers})"


def default_executor(workers: int | None = None):
    """Serial for ``workers`` in (None, 0, 1); a pool otherwise."""
    if not workers or workers == 1:
        return SerialExecutor()
    return PoolExecutor(workers=workers)
