"""The stable top-level API: diagnose, harvest, and input resolution.

Three workflows cover almost every use of this package — run a diagnosis,
harvest directives from history, run a directed diagnosis — and this
module gives each a single entry point with uniform argument handling.
``diagnose``/``harvest`` accept history and store arguments in whatever
form is at hand (paths, stores, records, directive sets, directive
files); the same resolvers back the CLI subcommands, so ``--store`` and
``--directives`` flags behave identically everywhere.

These names, plus :class:`~repro.campaign.runner.Campaign`, are the
supported surface; the underlying classes remain importable for
compatibility and for fine-grained control.
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server.pool import StorePool

from .apps.base import Application
from .core.combination import union_directives
from .core.consultant import DiagnosisSession
from .core.directives import DirectiveSet
from .core.extraction import extract_directives
from .core.search import SearchConfig
from .obs.trace import Tracer
from .resilience.policy import ResiliencePolicy
from .storage.file_backend import holds_store
from .storage.records import RunRecord
from .storage.store import ExperimentStore, StoreError

__all__ = [
    "diagnose",
    "harvest",
    "HarvestWarning",
    "default_pool",
    "resolve_store",
    "load_directives",
    "resolve_history",
]


class HarvestWarning(UserWarning):
    """A federated history member was skipped instead of aborting the merge.

    Structured so callers filtering warnings can see *which* member
    failed and *why* without parsing the message: ``member`` is the
    store/path as given, ``reason`` the underlying exception.
    """

    def __init__(self, member: Any, reason: BaseException) -> None:
        super().__init__(
            f"skipping unavailable history source {member!r}: "
            f"{type(reason).__name__}: {reason}"
        )
        self.member = member
        self.reason = reason

_SEARCH_FIELDS = {f.name for f in dataclasses.fields(SearchConfig)}
_SESSION_FIELDS = {
    "cost_model",
    "hypotheses",
    "apply_resource_mapping",
    "discover_resources",
    "faults",
    "on_failure",
    "max_events",
    "max_virtual_time",
}

HistoryLike = Union[
    None, DirectiveSet, RunRecord, ExperimentStore, str, Path,
    Iterable[RunRecord], Sequence["HistoryLike"],
]
StoreLike = Union[ExperimentStore, str, Path]
#: ``pool=`` argument: ``"default"`` (the process-wide pool), an explicit
#: :class:`~repro.server.pool.StorePool`, or ``None`` for a pool of one
#: for the call (re-open and re-harvest per call).
PoolLike = Union[None, str, "StorePool"]

_default_pool: Optional["StorePool"] = None


def default_pool() -> "StorePool":
    """The process-wide :class:`~repro.server.pool.StorePool` behind
    ``diagnose()``/``harvest()``.

    Created lazily on first use; repeated facade calls in one process
    then reuse open store handles and cached harvests instead of
    re-opening and re-extracting per call.  Invalidation is token-based
    (index state, record bytes), so cross-process writers stay visible.
    """
    global _default_pool
    if _default_pool is None:
        from .server.pool import StorePool

        _default_pool = StorePool()
    return _default_pool


@contextmanager
def _resolve_pool(pool: PoolLike) -> Iterator["StorePool"]:
    """The pool a facade call takes every store from: the process-wide
    one, the caller's, or for ``None`` a pool of one for the call,
    closed before the call returns."""
    if isinstance(pool, str):
        if pool != "default":
            raise TypeError(f'pool must be "default", a StorePool, or None, '
                            f'got {pool!r}')
        yield default_pool()
    elif pool is None:
        from .server.pool import StorePool

        with StorePool() as own:
            yield own
    else:
        yield pool


# ---------------------------------------------------------------------------
# input resolution (shared by the facade and the CLI)
# ---------------------------------------------------------------------------
def resolve_store(
    store: StoreLike, *,
    resilience: Union[None, bool, ResiliencePolicy] = None,
) -> ExperimentStore:
    """The :class:`ExperimentStore` for a path-or-store argument.

    The resolution behind the CLI's store commands and a campaign's
    ``store=`` (a facade call takes its stores from a
    :class:`~repro.server.pool.StorePool` instead, which opens them the
    same way): an already-open store passes through unchanged; a path
    opens the store there (creating an empty one when the
    directory holds none — a save target).  *resilience* configures the
    retry/breaker layer when a path is
    opened (a :class:`~repro.resilience.policy.ResiliencePolicy`,
    ``False`` to disable, ``None`` for the armed defaults — the CLI's
    ``--retry-*`` flags build the policy); it does not apply to
    pass-through stores, which keep whatever they were opened with.
    The store's ``root`` says where it lives.
    """
    if isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store, resilience=resilience)


def load_directives(path: Union[str, Path]) -> DirectiveSet:
    """Parse a directive file (the ``prune``/``priority``/... text format)."""
    return DirectiveSet.from_text(Path(path).read_text())


def _app_name(app: Union[Application, str, None]) -> Optional[str]:
    if app is None:
        return None
    return app if isinstance(app, str) else app.name


def resolve_history(
    history: HistoryLike, app: Union[Application, str, None] = None,
    pool: PoolLike = None, **options
) -> Optional[DirectiveSet]:
    """Turn any history-like argument into a directive set.

    * ``None`` → ``None`` (undirected);
    * a :class:`DirectiveSet` → itself;
    * a :class:`RunRecord` or iterable of records → extraction over them;
    * an :class:`ExperimentStore` or a store directory path → extraction
      over its stored runs (filtered to *app* when given);
    * a path to a directive file → its parsed contents;
    * a list/tuple mixing any of the above → the union of each element
      resolved on its own (federated history — e.g. several stores, or a
      store plus a directive file).

    ``pool`` routes store sources through a
    :class:`~repro.server.pool.StorePool` (see :func:`harvest`);
    ``None`` — the default here, matching the resolver's historical
    behavior — is a pool of one for the call, so every call re-opens
    and re-extracts.
    """
    if history is None:
        return None
    if isinstance(history, DirectiveSet):
        return history
    if isinstance(history, (list, tuple)) and not history:
        return None
    if isinstance(history, (list, tuple)) \
            and not all(isinstance(h, RunRecord) for h in history):
        strict = bool(options.get("strict", False))
        parts = []
        for h in history:
            try:
                resolved = resolve_history(h, app=app, pool=pool, **options)
            except (StoreError, OSError) as exc:
                # Fail-soft federation: one unavailable member must not
                # cost the directives of every healthy one.
                if strict:
                    raise
                warnings.warn(HarvestWarning(h, exc), stacklevel=2)
                continue
            if resolved is not None:
                parts.append(resolved)
        if not parts:
            return None
        return union_directives(*parts) if len(parts) > 1 else parts[0]
    if isinstance(history, (str, Path)):
        path = Path(history)
        if path.is_dir():
            return harvest(path, app=app, pool=pool, **options)
        if path.is_file():
            return load_directives(path)
        raise StoreError(f"history path {str(path)!r} does not exist")
    return harvest(history, app=app, pool=pool, **options)


def _history_records(
    source: Union[RunRecord, Iterable[RunRecord]],
    app_name: Optional[str],
) -> List[RunRecord]:
    if isinstance(source, RunRecord):
        return [source]
    records = list(source)
    for record in records:
        if not isinstance(record, RunRecord):
            raise TypeError(f"expected RunRecord history, got {type(record).__name__}")
    if app_name is not None:
        records = [r for r in records if r.app_name == app_name]
    return records


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------
def diagnose(
    app: Application,
    *,
    history: HistoryLike = None,
    store: Optional[StoreLike] = None,
    run_id: Optional[str] = None,
    overwrite: bool = False,
    config: Optional[SearchConfig] = None,
    trace: Union[None, bool, str, Path, Tracer] = None,
    strict_history: bool = False,
    pool: PoolLike = "default",
    **cfg,
) -> RunRecord:
    """Run one Performance Consultant diagnosis of *app*.

    ``history`` supplies search directives in any form
    (:func:`resolve_history`); ``store`` persists the resulting record.
    Keyword arguments matching :class:`SearchConfig` fields
    (``min_interval=5.0``, ``stop_engine_when_done=True``, ...) build the
    search configuration; session keywords (``cost_model``,
    ``hypotheses``, ``discover_resources``, ``apply_resource_mapping``)
    pass through to :class:`DiagnosisSession`.

    ``trace`` records a structured search trace: pass a path to write a
    JSONL trace file there, ``True`` to write it under the store's
    ``traces/`` directory as ``<run_id>.jsonl`` (requires ``store``), or
    a pre-built :class:`~repro.obs.trace.Tracer` to keep the events
    in memory under your control.  ``None`` (the default) records
    nothing and adds no overhead.

    Federated ``history`` (a list of sources) resolves fail-soft: an
    unavailable member is skipped with a :class:`HarvestWarning` so a
    degraded history archive cannot abort the diagnosis it was only
    meant to speed up; ``strict_history=True`` restores fail-hard.

    ``pool`` controls store-handle reuse across calls: the default
    routes ``history`` and ``store`` paths through the process-wide
    :func:`default_pool`, so repeated diagnoses over the same archive
    reuse the open store, its parsed index, and the cached harvest; pass
    an explicit :class:`~repro.server.pool.StorePool` to scope the
    reuse, or ``pool=None`` for a pool of one for the call: the stores
    it opens (one per path, shared by ``history`` and ``store``) are
    closed before it returns, so every call re-opens and re-harvests.

    >>> record = diagnose(build_poisson("C"), history="runs/", store="runs/")
    """
    search_kwargs = {k: v for k, v in cfg.items() if k in _SEARCH_FIELDS}
    session_kwargs = {k: v for k, v in cfg.items() if k in _SESSION_FIELDS}
    unknown = set(cfg) - _SEARCH_FIELDS - _SESSION_FIELDS
    if unknown:
        raise TypeError(f"diagnose() got unexpected keyword(s): {sorted(unknown)}")
    if config is not None and search_kwargs:
        raise TypeError(
            "pass either config= or individual search fields "
            f"({sorted(search_kwargs)}), not both"
        )
    if trace is True and store is None:
        raise TypeError("trace=True writes under the store; pass store= too")
    tracer: Optional[Tracer] = None
    trace_path: Optional[Path] = None
    if isinstance(trace, Tracer):
        tracer = trace
    elif isinstance(trace, (str, Path)):
        tracer = Tracer()
        trace_path = Path(trace)
    elif trace:
        tracer = Tracer()
    with _resolve_pool(pool) as pool_obj:
        record = DiagnosisSession(
            app=app,
            directives=resolve_history(
                history, app=app, pool=pool_obj, strict=strict_history
            ),
            config=config or (SearchConfig(**search_kwargs) if search_kwargs else None),
            run_id=run_id,
            tracer=tracer,
            **session_kwargs,
        ).run()
        if store is not None:
            store = pool_obj.get(store)
            store.save(record, overwrite=overwrite)
            if trace is True:
                trace_path = Path(store.root) / "traces" / f"{record.run_id}.jsonl"
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
    return record


def harvest(
    store_or_records: Union[
        ExperimentStore, str, Path, RunRecord, Iterable[RunRecord],
        Sequence[StoreLike],
    ],
    *,
    app: Union[Application, str, None] = None,
    strict: bool = False,
    pool: PoolLike = "default",
    **options,
) -> DirectiveSet:
    """Extract search directives from stored history.

    Accepts an :class:`ExperimentStore`, a store directory path, a single
    :class:`RunRecord`, an iterable of records, or a list/tuple of stores
    and store paths (federated harvest — see below); *app* (an
    :class:`Application` or name) filters which stored runs count as
    history.  ``options`` forward to
    :func:`~repro.core.extraction.extract_directives`
    (``include_thresholds=True``, ``include_pair_prunes=False``, ...).

    >>> directives = harvest("runs/", app="poisson", include_thresholds=True)
    >>> directives = harvest(["runs-a/", "runs-b/"], app="poisson")

    Every source takes the same route
    (:meth:`~repro.core.extraction.HarvestAggregate.finalize` over per-run
    summaries); what differs is where the summaries come from.  A store
    (or store path) already holds them, folded into its persisted
    aggregate, and deserializes no records; record arguments are
    summarized on the spot.

    ``pool`` (default: the process-wide :func:`default_pool`) keeps the
    opened store *and* the extracted directives hot across calls,
    invalidated by the store's index state token whenever any process
    writes to it; ``pool=None`` is a pool of one for the call, closed
    before it returns, so every call re-opens and re-extracts.

    **Federated harvest** (a list/tuple of stores) harvests every store
    independently and merges the directive sets with
    :func:`~repro.core.combination.union_directives`; the merge is
    deterministic and insensitive to store order, so a team can pool the
    history of several archives without first copying records together.
    A member that is missing, corrupt, or unavailable is **skipped with
    a structured** :class:`HarvestWarning` and the rest still merge —
    history improves a diagnosis but must never abort one; pass
    ``strict=True`` to make any member failure raise instead.  A single
    (non-federated) source always raises on failure: skipping the only
    source would silently return an empty history.
    """
    source = store_or_records
    with _resolve_pool(pool) as pool_obj:
        if isinstance(source, (list, tuple)) and source and all(
            isinstance(s, (ExperimentStore, str, Path)) for s in source
        ):
            parts = []
            for member in source:
                try:
                    parts.append(harvest(member, app=app, strict=strict,
                                         pool=pool_obj, **options))
                except (StoreError, OSError) as exc:
                    if strict:
                        raise
                    warnings.warn(HarvestWarning(member, exc), stacklevel=2)
            if not parts:
                raise StoreError(
                    "federated harvest: every member store failed "
                    f"({len(source)} skipped)"
                )
            return union_directives(*parts) if len(parts) > 1 else parts[0]
        if isinstance(source, (str, Path)) and not holds_store(Path(source)):
            # A path must already be a store on disk: opening any other
            # path would silently create an empty store there and mask a
            # dead mount, a typo or the wrong directory.
            raise StoreError(
                f"store directory {str(source)!r} holds no store"
                if Path(source).is_dir() else
                f"store directory {str(source)!r} does not exist")
        if isinstance(source, (str, Path, ExperimentStore)):
            return pool_obj.harvest(source, app=_app_name(app), **options)
    records = _history_records(source, _app_name(app))
    return extract_directives(records, **options)
