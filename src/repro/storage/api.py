"""The public storage API: value types and exceptions.

The paper's conclusions call historical diagnosis "part of an ongoing
research effort in which we are designing and developing an infrastructure
for storing, naming, and querying multi-execution performance data".
This module holds what that infrastructure's frontend
(:class:`~repro.storage.store.ExperimentStore`) and its one backend
(:class:`~repro.storage.file_backend.FileBackend`) exchange — the value
types a store reports (:class:`StoreInfo`, :class:`CompactionStats`,
:class:`RecoveryReport`) — and the exception taxonomy every store
caller catches.  The backend's contract is written on
:class:`~repro.storage.file_backend.FileBackend`'s methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

__all__ = [
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
    """What one :meth:`ExperimentStore.compact` call folded."""

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

    #: Store directory.
    root: Optional[Path]
    #: Backend name (``"file"``).
    backend: str
    #: Number of indexed runs.
    runs: int
    #: On-disk index format of the base generation.
    index_format: int
    #: Base-index generation (0 until the first compaction).
    generation: int = 0
    #: Index segments not yet folded into the base.
    segments: int = 0
    #: Bytes held by the index (base + unfolded segments).
    index_bytes: int = 0
    #: Runs covered by a currently-valid persisted harvest aggregate
    #: (0 when the backend keeps none, or the persisted one went stale).
    aggregated_runs: int = 0
    #: Index segments the persisted harvest aggregate covers (the
    #: rolling sidecar stops at a delete's seal until the next put's
    #: seal rebuilds it, and an uncovered tail is folded per op, or
    #: forces the rescan).
    aggregated_segments: int = 0
