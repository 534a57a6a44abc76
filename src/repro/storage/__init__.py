"""Multi-execution performance-data store (run records, persistence, queries).

The public storage surface lives in :mod:`repro.storage.api`
(:class:`StoreInfo`, the other value types, the exception taxonomy);
:class:`ExperimentStore` is the frontend over the one backend,
:class:`FileBackend` (record files plus a segmented index), and the
one layer that retries a transient backend failure.
"""

from .api import (
    CompactionStats,
    RecoveryReport,
    StoreCorruption,
    StoreError,
    StoreInfo,
    StoreUnavailable,
)
from .file_backend import FileBackend
from .query import (
    ResourceHistory,
    best_run,
    bottleneck_persistence,
    resource_history,
    select,
)
from .records import RunRecord
from .store import ExperimentStore, summarize_record

__all__ = [
    "ResourceHistory",
    "best_run",
    "bottleneck_persistence",
    "resource_history",
    "select",
    "RunRecord",
    "ExperimentStore",
    "FileBackend",
    "StoreInfo",
    "CompactionStats",
    "RecoveryReport",
    "StoreCorruption",
    "StoreError",
    "StoreUnavailable",
    "summarize_record",
]
