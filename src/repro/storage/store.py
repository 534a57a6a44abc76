"""Multi-execution experiment store: the backend-agnostic frontend.

The paper's conclusions call historical diagnosis "part of an ongoing
research effort in which we are designing and developing an infrastructure
for storing, naming, and querying multi-execution performance data".  This
module is that infrastructure's *frontend*: :class:`ExperimentStore`
exposes the save/load/query surface the rest of the system uses, while
actual persistence lives behind the
:class:`~repro.storage.api.StorageBackend` seam —

* ``backend="file"`` (the default): one JSON file per record plus a
  **sharded index** of append-only segments with compaction
  (:mod:`repro.storage.file_backend`), so a save is O(1) instead of
  O(store);
* ``backend="sqlite"``: everything in one SQLite database, optimized
  for summary queries (:mod:`repro.storage.sqlite_backend`).

A store directory is auto-detected (``store.sqlite3`` present → sqlite,
else file), so paths keep working everywhere a backend name isn't given.
A file store from an older release is converted once, when it is
opened; every read after that is a plain read of the current layout.

What stays above the seam: the bounded in-process LRU of parsed
:class:`RunRecord` objects (keyed by the backend's per-record token, so
a cross-process overwrite invalidates entries without coordination),
batch loading, and auto-compaction policy.  Records obtained from the cache are shared
objects: treat loaded (and saved) records as immutable.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.extraction import HarvestAggregate
from ..resilience.backend import ResiliencePolicy, ResilientBackend
from .api import (
    CompactionStats,
    RecoveryReport,
    StorageBackend,
    StoreCorruption,
    StoreError,
    StoreInfo,
    StoreUnavailable,
)
from .file_backend import FileBackend
from .records import RunRecord
from .sqlite_backend import SQLITE_STORE_NAME, SQLiteBackend
from .summary import meta_for_record, summarize_record

__all__ = [
    "ExperimentStore",
    "StoreError",
    "StoreCorruption",
    "StoreUnavailable",
    "RecoveryReport",
    "summarize_record",
    "migrate_store",
]

_DEFAULT_CACHE_SIZE = 64
#: Segments a save may leave unfolded before it triggers a compaction.
_DEFAULT_AUTO_COMPACT = 64

BackendLike = Union[None, str, StorageBackend]


class _RecordCache:
    """Bounded LRU of parsed records keyed by run id + backend token.

    Safe for concurrent same-process readers: lookup, insertion, and
    eviction mutate the underlying ``OrderedDict`` (``move_to_end``,
    ``popitem``) and therefore hold a lock — a server multiplexing many
    sessions over one shared store hits this from several threads at
    once, where the unlocked version corrupts the LRU order or raises
    mid-``popitem``.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        from collections import OrderedDict

        self._items: "OrderedDict[str, Tuple[Hashable, RunRecord]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, run_id: str, token: Hashable) -> Optional[RunRecord]:
        with self._lock:
            entry = self._items.get(run_id)
            if entry is None or entry[0] != token:
                self.misses += 1
                return None
            self._items.move_to_end(run_id)
            self.hits += 1
            return entry[1]

    def put(self, run_id: str, token: Hashable, record: RunRecord) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._items[run_id] = (token, record)
            self._items.move_to_end(run_id)
            while len(self._items) > self.maxsize:
                self._items.popitem(last=False)

    def evict(self, run_id: str) -> None:
        with self._lock:
            self._items.pop(run_id, None)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


def _resolve_backend(root: Union[str, Path, None],
                     backend: BackendLike) -> StorageBackend:
    if isinstance(backend, StorageBackend):
        return backend
    if backend is None or backend == "auto":
        if root is None:
            raise StoreError(
                "ExperimentStore needs a root directory or a backend instance"
            )
        if (Path(root) / SQLITE_STORE_NAME).exists():
            return SQLiteBackend(root)
        return FileBackend(root)
    if root is None:
        raise StoreError(f"backend {backend!r} needs a root directory")
    if backend == "file":
        return FileBackend(root)
    if backend == "sqlite":
        return SQLiteBackend(root)
    raise StoreError(
        f"unknown storage backend {backend!r} "
        "(expected 'file', 'sqlite', or a StorageBackend)"
    )


class ExperimentStore:
    """A store of :class:`RunRecord` objects over a pluggable backend.

    Safe for concurrent use from multiple processes: every backend
    serialises its writers (flock for the file layout, SQLite's own
    locking for the database), so simultaneous writers never lose each
    other's updates.

    All configuration is keyword-only: ``backend`` selects the
    persistence layer (``"file"``, ``"sqlite"``, a
    :class:`~repro.storage.api.StorageBackend` instance, or ``None`` to
    auto-detect from the directory), ``cache_size`` bounds the parsed
    record LRU, and ``auto_compact`` is the segment count past which a
    save folds the index into a new base generation (``0``/``None``
    disables).

    ``resilience`` controls the availability layer every backend call is
    threaded through (:class:`~repro.resilience.backend.ResilientBackend`
    — transient-failure retry plus a per-backend circuit breaker, the
    only retry layer the store has): ``None``/``True`` arm it with
    default tunables, a :class:`~repro.resilience.backend.ResiliencePolicy`
    arms it with that policy, and ``False`` runs on the raw backend,
    whose transient errors (``sqlite3.OperationalError``, ``OSError``)
    then surface as they are.  Armed-but-idle it costs one wrapper call
    per operation; its counters are exposed via :meth:`resilience_metrics`.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        backend: BackendLike = None,
        cache_size: int = _DEFAULT_CACHE_SIZE,
        auto_compact: Optional[int] = _DEFAULT_AUTO_COMPACT,
        resilience: Union[None, bool, ResiliencePolicy] = None,
    ):
        self._inner = inner = _resolve_backend(root, backend)
        if resilience is False:
            self._backend: StorageBackend = inner
        else:
            policy = resilience if isinstance(resilience, ResiliencePolicy) \
                else None
            self._backend = ResilientBackend(inner, policy)
        self.root = Path(root) if root is not None \
            else getattr(inner, "root", None)
        self._cache = _RecordCache(cache_size)
        self._auto_compact = auto_compact or 0

    @property
    def backend(self) -> StorageBackend:
        """The persistence layer this store runs on — always the *inner*
        backend, never the resilience wrapper, so callers that compare
        identity or poke backend internals see what they passed in."""
        return self._inner

    def close(self) -> None:
        """Release the store's in-process resources.

        Drops the parsed-record LRU and closes the backend (the SQLite
        connection for that backend; a no-op for the file layout).  The
        object must not be used afterwards.  Idempotent — a pooled store may be
        evicted and closed more than once.
        """
        self._cache.clear()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()

    def resilience_metrics(self) -> Dict[str, float]:
        """Retry/breaker counters when resilience is armed, else ``{}``.

        Flat numeric values in the shape
        :func:`repro.obs.metrics.metrics_to_prometheus` renders.
        """
        if isinstance(self._backend, ResilientBackend):
            return self._backend.metrics()
        return {}

    def verify(self):
        """Scrub the store: every record checked, divergences reported.

        Returns a :class:`~repro.resilience.scrub.ScrubReport`; backs
        the ``repro store verify`` command.
        """
        from ..resilience.scrub import verify_store

        return verify_store(self)

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------
    def save(self, record: RunRecord, overwrite: bool = False) -> str:
        """Persist a run record; returns its id.

        The existence check, record write, and index append all happen
        under the backend's write lock, so concurrent savers of distinct
        runs both land and concurrent savers of the *same* run id race
        cleanly (one wins, the other gets :class:`StoreError` unless
        ``overwrite``).  An overwritten record keeps its original
        ``seq``; new records get the next monotonic value.

        The index entry carries the record's query summary
        (:func:`summarize_record`) and the saved record is installed in
        the load cache, so a campaign's post-save harvest never re-parses
        what it just wrote.  Treat a record as immutable once saved.
        """
        meta = meta_for_record(record)  # outside the lock: pure CPU
        _seq, token = self._backend.put(
            record.run_id, record.to_dict(), meta, overwrite=overwrite
        )
        self._cache.put(record.run_id, token, record)
        self._maybe_auto_compact()
        return record.run_id

    def load(self, run_id: str) -> RunRecord:
        """Load one record, verifying its payload integrity.

        Served from the in-process LRU when the backend's record token
        is unchanged; an overwrite by any process produces a new token
        and forces a fresh parse.  Cached records are shared objects —
        do not mutate them.

        A record that fails its check is quarantined by the backend and
        the raised :class:`StoreCorruption` says where the bytes went,
        so callers (and the CLI) can report what happened.
        """
        token = self._backend.record_token(run_id)
        cached = self._cache.get(run_id, token)
        if cached is not None:
            return cached
        try:
            payload = self._backend.get(run_id)
        except StoreCorruption:
            self._cache.evict(run_id)
            raise
        record = RunRecord.from_dict(payload)
        self._cache.put(run_id, token, record)
        return record

    def delete(self, run_id: str) -> None:
        self._cache.evict(run_id)
        self._backend.delete(run_id)

    def __contains__(self, run_id: str) -> bool:
        return self._backend.contains(run_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def list(
        self,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
    ) -> List[str]:
        """Run ids matching the filters, oldest first."""
        return list(self.summaries(app_name=app_name, version=version))

    def latest(self, app_name: str, version: Optional[str] = None) -> Optional[RunRecord]:
        ids = self.list(app_name=app_name, version=version)
        return self.load(ids[-1]) if ids else None

    def load_many(self, run_ids: Iterable[str]) -> List[RunRecord]:
        """Load a batch of records in ``run_ids`` order, each served from
        the cache when its token is unchanged and otherwise parsed and
        verified exactly as :meth:`load` would."""
        return [self.load(run_id) for run_id in run_ids]

    def __len__(self) -> int:
        return len(self.summaries())

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summary(self, run_id: str) -> dict:
        """The query summary for one run, from the index."""
        return self.summaries(run_ids=[run_id])[run_id]["summary"]

    def summaries(
        self,
        run_ids: Optional[Sequence[str]] = None,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
    ) -> Dict[str, dict]:
        """Index entries, each meta carrying its ``"summary"`` — the one
        index read behind every listing, query and harvest rescan.

        Returns ``run_id -> meta`` in ``run_ids`` order when given (a
        missing id raises :class:`StoreError`; the filters are then
        ignored), else seq order (oldest first) filtered by *app_name*
        and *version*.  No record is parsed, and nothing is written.
        """
        items = self._backend.query_summaries(
            app_name=app_name, version=version, run_ids=run_ids)
        for run_id, meta in items.items():
            if meta is None:
                raise StoreError(f"no stored run {run_id!r}")
        return items

    def cache_info(self) -> Dict[str, int]:
        """Cache statistics (for tests and benchmarks)."""
        return {
            "size": len(self._cache),
            "maxsize": self._cache.maxsize,
            "hits": self._cache.hits,
            "misses": self._cache.misses,
        }

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def rebuild_index(self) -> RecoveryReport:
        """Reconstruct the index from the stored records.

        Recovery tool for a corrupted or missing index: every record is
        re-read, integrity-verified, and re-registered with a fresh
        query summary.  Existing ``seq`` values are preserved where the
        old index still has them; records the index lost are appended in
        storage order.  Records that fail verification are quarantined
        instead of aborting the rebuild.  Returns a
        :class:`RecoveryReport` listing both.

        The same code converts a file store from an older release when
        it is first opened; rebuilding a segmented store folds
        everything into one fresh base generation.
        """
        self._cache.clear()
        return self._backend.rebuild()

    def compact(self) -> CompactionStats:
        """Fold accumulated index segments into a new base generation.

        Crash-safe (a writer killed mid-compaction leaves the store
        readable) and a no-op shrink (``VACUUM``) on backends without
        segments.  Saves trigger this automatically past the
        ``auto_compact`` threshold.
        """
        return self._backend.compact()

    def info(self) -> StoreInfo:
        """The store's identity and shape (``repro store stats``)."""
        return self._backend.info()

    # ------------------------------------------------------------------
    # harvest fast path
    # ------------------------------------------------------------------
    def harvest_evidence(self, app_name: Optional[str] = None) -> HarvestAggregate:
        """The :class:`~repro.core.extraction.HarvestAggregate` over the
        store's current runs (restricted to *app_name* when given).

        Served from the backend's persisted aggregate when it can prove
        one covers exactly the current index — one sidecar read (one row
        on sqlite) plus a per-op fold of any segments sealed since it was
        last extended, instead of O(runs) — and otherwise computed by the
        full summary scan, so the result is the same either way.  Treat the returned aggregate
        as immutable: :meth:`HarvestAggregate.copy` before folding more
        runs into it.
        """
        agg = self._backend.harvest_aggregate(app_name)
        if agg is None:
            metas = self.summaries(app_name=app_name)
            agg = HarvestAggregate.of_summaries(
                meta["summary"] for meta in metas.values())
        return agg

    def index_token(self) -> Hashable:
        """An identity for the index's current contents — changes on any
        write by any process, so a harvest cached against it is valid
        exactly as long as the token is."""
        return self._backend.index_token()

    def _maybe_auto_compact(self) -> None:
        if not self._auto_compact:
            return
        segment_count = getattr(self._backend, "segment_count", None)
        if segment_count is None or segment_count() < self._auto_compact:
            return
        self._backend.compact()


def migrate_store(
    source: ExperimentStore,
    dest: ExperimentStore,
    *,
    overwrite: bool = False,
) -> int:
    """Copy every record from *source* into *dest*, oldest first.

    Records stream one at a time through the normal save path, so the
    destination backend assigns fresh contiguous ``seq`` values in the
    same recency order and recomputes summaries deterministically —
    queries over the migrated store answer byte-identically to the
    original.  Returns the number of records copied.
    """
    copied = 0
    for run_id in source.list():
        dest.save(source.load(run_id), overwrite=overwrite)
        copied += 1
    return copied
