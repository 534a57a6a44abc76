"""Multi-execution performance-data store (run records, persistence, queries).

The public storage surface lives in :mod:`repro.storage.api`
(:class:`StorageBackend`, :class:`StoreInfo`, the exception taxonomy);
:class:`ExperimentStore` is the backend-agnostic frontend, with file
(segmented index) and SQLite backends.
"""

from .api import (
    CompactionStats,
    RecoveryReport,
    StorageBackend,
    StoreCorruption,
    StoreError,
    StoreHandle,
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
from .sqlite_backend import SQLiteBackend
from .store import ExperimentStore, migrate_store, summarize_record

__all__ = [
    "ResourceHistory",
    "best_run",
    "bottleneck_persistence",
    "resource_history",
    "select",
    "RunRecord",
    "ExperimentStore",
    "StorageBackend",
    "FileBackend",
    "SQLiteBackend",
    "StoreHandle",
    "StoreInfo",
    "CompactionStats",
    "RecoveryReport",
    "StoreCorruption",
    "StoreError",
    "StoreUnavailable",
    "summarize_record",
    "migrate_store",
]
