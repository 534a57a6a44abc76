"""The public storage API: backend protocol, value types, exceptions.

The paper's conclusions call historical diagnosis "part of an ongoing
research effort in which we are designing and developing an infrastructure
for storing, naming, and querying multi-execution performance data".  At
fleet scale that infrastructure cannot be one on-disk layout: a laptop
tuning study wants greppable JSON files, a CI archive of 10^5 runs wants
an indexed database.  This module is the seam between the two — the
:class:`StorageBackend` contract every persistence layer implements, the
value types the frontend (:class:`~repro.storage.store.ExperimentStore`)
exchanges with it, and the exception taxonomy shared by all of them.

A backend owns durability, integrity, and the *index*: the run → meta
mapping whose entries carry the denormalized query summaries
(:func:`~repro.storage.summary.summarize_record`) that let cross-run
queries answer without touching record payloads — and, optionally, a
rolling harvest aggregate over that index, extended inside every save:
the one incremental harvest path there is.  A backend reads one
on-disk layout; converting anything older is its ``rebuild``.  A backend
does not retry: a transient failure (a locked sqlite database, EIO)
leaves it raw, and :class:`~repro.resilience.backend.ResilientBackend`,
which the frontend wraps around every backend, is the one layer that
classifies, retries and counts it.  Everything else — record-object caching, batch loading, the public
query helpers — lives above the seam and is backend-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "StorageBackend",
    "StoreInfo",
    "CompactionStats",
    "RecoveryReport",
    "StoreError",
    "StoreCorruption",
    "StoreUnavailable",
]


class StoreError(RuntimeError):
    """Raised for store consistency problems."""


class StoreUnavailable(StoreError):
    """A store operation failed for a *transient* reason and every
    recovery path (retry with backoff, circuit-breaker probe) was
    exhausted or rejected.

    Unlike :class:`StoreCorruption` this says nothing about the data —
    the bytes on disk are presumed fine, the store just cannot be
    reached right now (writer contention, EIO, a breaker held open).
    ``retryable`` stays true so callers with longer deadlines may try
    again later.
    """

    def __init__(self, message: str, *, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


class StoreCorruption(StoreError):
    """A record failed its integrity check and was quarantined."""

    def __init__(self, message: str, quarantined_to: Optional[Path] = None) -> None:
        super().__init__(message)
        self.quarantined_to = quarantined_to


@dataclass
class RecoveryReport:
    """What :meth:`ExperimentStore.rebuild_index` found on disk."""

    #: Run ids re-registered in the rebuilt index.
    kept: List[str] = field(default_factory=list)
    #: Files that failed parsing or their checksum, now in quarantine/.
    quarantined: List[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.kept)

    def __str__(self) -> str:
        out = f"{len(self.kept)} record(s) indexed"
        if self.quarantined:
            out += f", {len(self.quarantined)} corrupt file(s) quarantined"
        return out


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`StorageBackend.compact` call folded."""

    #: Index segments folded into the new base generation.
    segments_folded: int
    #: Entries in the compacted index.
    entries: int
    #: Base-index generation after the fold (monotonic per store).
    generation: int

    def __str__(self) -> str:
        return (f"folded {self.segments_folded} segment(s) into "
                f"generation {self.generation} ({self.entries} entries)")


@dataclass(frozen=True)
class StoreInfo:
    """A store's identity and shape — what ``repro store stats`` prints."""

    #: Store directory (``None`` for purely in-memory backends).
    root: Optional[Path]
    #: Backend name: ``"file"``, ``"sqlite"``, ...
    backend: str
    #: Number of indexed runs.
    runs: int
    #: On-disk index format of the base generation.
    index_format: int
    #: Base-index generation (0 until the first compaction).
    generation: int = 0
    #: Index segments not yet folded into the base (file backend only).
    segments: int = 0
    #: Bytes held by the index (base + unfolded segments, or the DB file).
    index_bytes: int = 0
    #: Runs covered by a currently-valid persisted harvest aggregate
    #: (0 when the backend keeps none, or the persisted one went stale).
    aggregated_runs: int = 0
    #: Index segments the persisted harvest aggregate covers (file
    #: backend only: the rolling sidecar stops at a delete's seal until
    #: the next put's seal rebuilds it, and an uncovered tail is folded
    #: per op, or forces the rescan).
    aggregated_segments: int = 0


class StorageBackend(ABC):
    """Contract a storage backend implements for :class:`ExperimentStore`.

    A backend persists two things: **record payloads** (the full
    ``RunRecord.to_dict()`` JSON, integrity-checked) and **index metas**
    (small dicts carrying ``app_name``/``version``/``seq``/... and a
    ``"summary"`` for the query fast path).  All index reads present one
    merged, seq-ordered view regardless of how the backend shards it
    internally.

    Concurrency contract: :meth:`put`, :meth:`delete`, :meth:`rebuild`,
    and :meth:`compact` must be safe against concurrent writer
    *processes* on the same store, and readers must always see a
    consistent (possibly slightly stale) snapshot.  Integrity contract: :meth:`get` verifies the payload and
    quarantines + raises :class:`StoreCorruption` on a failed check,
    never returning half-read data.
    """

    #: Short backend identifier (``"file"``, ``"sqlite"``, ...).
    name: str = "abstract"

    # -- records --------------------------------------------------------
    @abstractmethod
    def put(self, run_id: str, payload: dict, meta: dict,
            *, overwrite: bool = False) -> Tuple[int, Hashable]:
        """Persist one record payload and its index meta atomically.

        Assigns the record's ``seq`` — monotonic for new runs, preserved
        on overwrite — and returns ``(seq, record_token)`` where the
        token identifies the just-written bytes (taken under the write
        lock, so the frontend can prime its record cache without racing
        a concurrent overwrite).  Raises :class:`StoreError`, before
        writing anything, when *run_id* exists and *overwrite* is false
        or *meta* has no dict ``"summary"``.  *meta* must not carry
        ``seq``; the backend owns its assignment.
        """

    @abstractmethod
    def get(self, run_id: str) -> dict:
        """The verified record payload for *run_id*.

        Raises :class:`StoreError` for a missing run and
        :class:`StoreCorruption` (after quarantining the bad bytes) for
        one that fails its integrity check.
        """

    @abstractmethod
    def delete(self, run_id: str) -> None:
        """Remove a run's payload and index entry (missing ids are a no-op)."""

    @abstractmethod
    def contains(self, run_id: str) -> bool:
        """Whether *run_id* has a stored payload."""

    @abstractmethod
    def record_token(self, run_id: str) -> Hashable:
        """An identity for the run's *current* stored bytes.

        Changes whenever the payload is rewritten (by any process), so
        the frontend's record cache invalidates without coordination.
        Raises :class:`StoreError` for a missing run.
        """

    # -- index ----------------------------------------------------------
    @abstractmethod
    def query_summaries(
        self,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, dict]:
        """The one index read: filtered metas, each carrying its
        ``"summary"`` — ``run_ids`` order when given, else seq order
        (oldest first) restricted to *app_name*/*version*.  Missing ids
        map to ``None``."""

    # -- harvest aggregates ---------------------------------------------
    # Optional fast path (default: not supported).  Backends that persist
    # :class:`~repro.core.extraction.HarvestAggregate` sufficient
    # statistics, extended inside every save, can answer a harvest in
    # one read instead of O(runs), before and after each write alike;
    # any condition they cannot prove consistent must degrade to ``None``
    # — the frontend then falls back to the full summary scan, so a
    # missing or stale aggregate can never produce wrong directives.

    def harvest_aggregate(self, app_name: Optional[str] = None):
        """The persisted :class:`~repro.core.extraction.HarvestAggregate`
        over the store's current runs (restricted to *app_name* when
        given), or ``None`` when the backend keeps no aggregate or
        cannot prove the persisted one covers exactly the current index.

        Callers must treat the returned aggregate as immutable (copy
        before folding into it).
        """
        return None

    def index_token(self) -> Hashable:
        """An identity for the index's *current* contents.

        Any write — put, delete, quarantine, rebuild, compaction,
        by this process or another — must change the token: callers
        cache what they derive from the index (the serving pool's
        directive sets) for exactly as long as it holds.  The default
        derives one from :meth:`info`; backends should override with a
        cheaper/preciser form when they can.
        """
        info = self.info()
        return (info.runs, info.generation, info.segments, info.index_bytes)

    # -- maintenance ----------------------------------------------------
    @abstractmethod
    def rebuild(self) -> RecoveryReport:
        """Reconstruct the index from stored payloads, quarantining any
        that fail their integrity check, and fold everything into a
        fresh fully-summarized base generation."""

    @abstractmethod
    def compact(self) -> CompactionStats:
        """Fold accumulated index segments (or backend equivalents) into
        a new base generation.  Crash-safe: a writer killed at any point
        mid-compaction leaves the store readable."""

    @abstractmethod
    def info(self) -> StoreInfo:
        """The store's current shape (sizes, generation, backend name)."""
