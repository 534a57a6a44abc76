"""SQLite storage backend, optimized for summary queries.

One database file (``<root>/store.sqlite3``) holds both record payloads
and index metas, so a store is a single artifact to ship or back up.
The ``runs`` table denormalizes the columns the queries filter and sort
on (``app_name``, ``version``, ``seq``) and keeps the meta — including
the query summary — as a JSON column, so ``query_summaries`` is one
indexed ``SELECT`` that never touches payloads.

Integrity mirrors the file backend: payloads are stored next to their
SHA-256 and verified on every read; a row that fails its check is moved
to a ``quarantine`` table (with a timestamp) and reported via
:class:`StoreCorruption`, never half-returned.  ``rebuild`` re-verifies
every payload and regenerates all metas; ``compact`` is ``VACUUM``
(SQLite has no segments to fold).

Concurrency: SQLite's own locking replaces the file backend's flock.
Writes run in ``BEGIN IMMEDIATE`` transactions with a busy timeout, so
concurrent writer processes serialize instead of failing; WAL mode lets
readers proceed during writes where the filesystem supports it.

Contention that outlives the busy timeout — a wedged writer, a lock
held across an NFS hiccup, an injected ``SQLITE_BUSY`` — used to
surface as a raw ``sqlite3.OperationalError``.  It is a *transient*
condition, so every statement and every write transaction now runs
under a bounded :class:`~repro.resilience.policy.RetryPolicy`; write
transactions retry **whole** (the rollback makes each attempt
idempotent), and exhaustion raises the typed
:class:`~repro.storage.api.StoreUnavailable` instead of leaking sqlite
internals.  Every statement also passes the :mod:`repro.faults.io`
``sqlite`` seam, which is how the torture harness schedules
busy/crash faults at chosen call indices.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from ..core.extraction import HarvestAggregate
from ..faults import io as io_faults
from ..resilience.policy import RetryExhausted, RetryPolicy
from .api import (
    CompactionStats,
    RecoveryReport,
    StorageBackend,
    StoreCorruption,
    StoreError,
    StoreInfo,
    StoreUnavailable,
)
from .file_backend import _checksum
from .records import RunRecord
from .summary import meta_for_record

__all__ = ["SQLiteBackend", "SQLITE_STORE_NAME"]

SQLITE_STORE_NAME = "store.sqlite3"
_SCHEMA_VERSION = 1

T = TypeVar("T")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id   TEXT PRIMARY KEY,
    seq      INTEGER NOT NULL,
    app_name TEXT,
    version  TEXT,
    meta     TEXT NOT NULL,
    payload  TEXT NOT NULL,
    sha256   TEXT NOT NULL,
    rev      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_runs_seq ON runs(seq);
CREATE INDEX IF NOT EXISTS idx_runs_app ON runs(app_name, version, seq);
-- Covering index for the summary fast path: app-filtered (and unfiltered
-- via a scan of the same index) summary queries resolve run_id and the
-- meta JSON straight from the index pages, never touching the row --
-- and therefore never paging in the (much larger) payload column that
-- dominates the table's B-tree.  seq right after app_name so the
-- ``ORDER BY seq`` both query shapes carry needs no temp sort; version
-- is filtered from the covered row on the rarer app+version query.
CREATE INDEX IF NOT EXISTS idx_runs_summary
    ON runs(app_name, seq, version, run_id, meta);
CREATE TABLE IF NOT EXISTS quarantine (
    run_id        TEXT,
    quarantined_at REAL,
    payload       TEXT,
    sha256        TEXT,
    reason        TEXT
);
-- Persisted harvest aggregates (scope '*' = every run, 'app:<name>' =
-- one application's runs).  Invariant: either no rows at all, or rows
-- that reflect the runs table exactly -- every write that cannot cheaply
-- preserve that (overwrite, delete, quarantine) clears the table and the
-- next harvest rebuilds it.
CREATE TABLE IF NOT EXISTS harvest_aggregates (
    scope   TEXT PRIMARY KEY,
    max_seq INTEGER NOT NULL,
    n_runs  INTEGER NOT NULL,
    data    TEXT NOT NULL
);
"""


class SQLiteBackend(StorageBackend):
    """Record payloads + index metas in one SQLite database."""

    name = "sqlite"

    def __init__(self, root: str | Path, *,
                 retry: Optional[RetryPolicy] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / SQLITE_STORE_NAME
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.isolation_level = None  # explicit transactions only
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:  # pragma: no cover - odd filesystems
            pass
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR IGNORE INTO store_meta(key, value) VALUES ('schema', ?)",
            (str(_SCHEMA_VERSION),),
        )
        # Contention surviving the busy timeout is transient, never
        # fatal: bounded retries, then a typed StoreUnavailable.
        self._retry = retry if retry is not None else RetryPolicy(
            attempts=4, base_delay=0.01, max_delay=0.2, deadline_s=5.0,
        )
        # The connection is shared (check_same_thread=False) so threads
        # of one process can read through a pooled store; explicit
        # transactions on a shared connection must not interleave their
        # statements, so same-process writers serialise here — SQLite's
        # own locking only serialises *processes*.
        self._txn_lock = threading.RLock()

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    # statement plumbing: fault seam + transient retry
    # ------------------------------------------------------------------
    def _execute(self, sql: str, params: Sequence = ()):
        """One statement through the injection seam (no retry — used
        inside transactions, where the *transaction* is the retry unit)."""
        io_faults.check("sqlite", self.path)
        return self._conn.execute(sql, params)

    def _call(self, fn: Callable[[], T], describe: str) -> T:
        try:
            return self._retry.call(fn, describe=describe)
        except RetryExhausted as exc:
            raise StoreUnavailable(
                f"sqlite store {self.path.name}: {exc}"
            ) from exc.last

    def _select(self, sql: str, params: Sequence = (),
                describe: str = "query") -> List[tuple]:
        """A retried read: fetches eagerly so every attempt is complete."""
        return self._call(
            lambda: self._execute(sql, params).fetchall(), describe
        )

    def _write_txn(self, body: Callable[[], T], describe: str) -> T:
        """Run *body* inside ``BEGIN IMMEDIATE``, retrying the whole
        transaction on transient failure.

        Retrying individual statements inside an open transaction would
        be wrong — sqlite may have invalidated the transaction — so the
        unit of retry is the full begin/body/commit sequence; the
        rollback on the way out makes each attempt start from scratch.
        The rollback itself stays off the fault seam: it models what
        sqlite's journal does unconditionally on a real crash.
        """
        def attempt() -> T:
            self._execute("BEGIN IMMEDIATE")
            try:
                result = body()
                self._execute("COMMIT")
                return result
            except BaseException:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.OperationalError:  # pragma: no cover
                    pass  # connection may have rolled back already
                raise
        with self._txn_lock:
            return self._call(attempt, describe)

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def put(self, run_id: str, payload: dict, meta: dict,
            *, overwrite: bool = False) -> Tuple[int, Hashable]:
        if not isinstance(meta.get("summary"), dict):
            raise StoreError(f"run {run_id!r}: index meta has no summary")
        payload_json = json.dumps(payload)
        sha = _checksum(payload)

        def body() -> Tuple[int, Hashable]:
            row = self._execute(
                "SELECT seq, rev FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            if row is not None and not overwrite:
                raise StoreError(f"run {run_id!r} already stored")
            if row is not None:
                seq, rev = row[0], row[1] + 1
            else:
                max_seq = self._execute(
                    "SELECT COALESCE(MAX(seq), -1) FROM runs"
                ).fetchone()[0]
                seq, rev = max_seq + 1, 0
            row_meta = dict(meta)
            row_meta["seq"] = seq
            self._execute(
                "INSERT OR REPLACE INTO runs"
                "(run_id, seq, app_name, version, meta, payload, sha256, rev)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (run_id, seq, row_meta.get("app_name"),
                 row_meta.get("version"), json.dumps(row_meta),
                 payload_json, sha, rev),
            )
            if row is not None:
                # Overwrite: the stored aggregates folded the *old*
                # summary and cannot be un-folded — clear them (the next
                # harvest rebuilds) and record the mutation in the token.
                self._bump_mutations()
                self._execute("DELETE FROM harvest_aggregates")
            else:
                self._fold_into_aggregates(
                    row_meta["summary"], row_meta.get("app_name"), seq)
            return seq, ("rev", rev)

        return self._write_txn(body, f"put {run_id!r}")

    def get(self, run_id: str) -> dict:
        rows = self._select(
            "SELECT payload, sha256 FROM runs WHERE run_id = ?", (run_id,),
            describe=f"get {run_id!r}",
        )
        if not rows:
            raise StoreError(f"no stored run {run_id!r}")
        payload_json, sha = rows[0]
        try:
            payload = json.loads(payload_json)
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict) or _checksum(payload) != sha:
            self._quarantine_row(run_id, "payload checksum mismatch")
            raise StoreCorruption(
                f"{run_id}: payload checksum mismatch; quarantined to "
                f"table 'quarantine' in {self.path.name}"
            )
        return payload

    def _quarantine_row(self, run_id: str, reason: str) -> None:
        def body() -> None:
            self._execute(
                "INSERT INTO quarantine(run_id, quarantined_at, payload, "
                "sha256, reason) SELECT run_id, ?, payload, sha256, ? "
                "FROM runs WHERE run_id = ?",
                (time.time(), reason, run_id),
            )
            cur = self._execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
            if cur.rowcount:
                self._bump_mutations()
                self._execute("DELETE FROM harvest_aggregates")

        self._write_txn(body, f"quarantine {run_id!r}")

    def delete(self, run_id: str) -> None:
        def body() -> None:
            cur = self._execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
            if cur.rowcount:
                # Removed runs cannot be subtracted from a fold; clear
                # the aggregates (the next harvest rebuilds them).
                self._bump_mutations()
                self._execute("DELETE FROM harvest_aggregates")

        self._write_txn(body, f"delete {run_id!r}")

    def contains(self, run_id: str) -> bool:
        return bool(self._select(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,),
            describe=f"contains {run_id!r}",
        ))

    def record_token(self, run_id: str) -> Hashable:
        rows = self._select(
            "SELECT rev FROM runs WHERE run_id = ?", (run_id,),
            describe=f"record_token {run_id!r}",
        )
        if not rows:
            raise StoreError(f"no stored run {run_id!r}")
        return ("rev", rows[0][0])

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_meta_rows(rows: Sequence[Tuple[str, str]]) -> Dict[str, dict]:
        """``(run_id, meta-JSON)`` rows decoded in one ``json.loads``.

        Joining the stored documents into a single array and parsing
        once keeps the whole decode in the C parser — at 10^5 rows this
        is ~1.4x faster than a per-row ``json.loads`` loop, which is
        what full-archive scans spend most of their wall on.
        """
        if not rows:
            return {}
        metas = json.loads("[" + ",".join(meta for _run_id, meta in rows) + "]")
        return dict(zip((run_id for run_id, _meta in rows), metas))

    def iter_summaries(self) -> Iterator[Tuple[str, dict]]:
        rows = self._select(
            "SELECT run_id, meta FROM runs ORDER BY seq",
            describe="iter_summaries",
        )
        yield from self._decode_meta_rows(rows).items()

    def query_summaries(
        self,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, dict]:
        if run_ids is not None:
            out: Dict[str, dict] = {}
            for run_id in run_ids:
                rows = self._select(
                    "SELECT meta FROM runs WHERE run_id = ?", (run_id,),
                    describe=f"query {run_id!r}",
                )
                out[run_id] = json.loads(rows[0][0]) if rows else None
            return out
        clauses, params = [], []
        if app_name is not None:
            clauses.append("app_name = ?")
            params.append(app_name)
        if version is not None:
            clauses.append("version = ?")
            params.append(version)
        sql = "SELECT run_id, meta FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq"
        return self._decode_meta_rows(
            self._select(sql, params, describe="query_summaries"))

    # ------------------------------------------------------------------
    # harvest aggregates
    # ------------------------------------------------------------------
    def _bump_mutations(self) -> None:
        """Advance the mutation counter (inside a write transaction).

        Counts every index change that is *not* an append of a new
        run — overwrite, delete, quarantine, rebuild, compact.
        :meth:`index_token` folds it in: the run count and highest
        ``seq`` alone cannot tell an overwrite from no change at all.
        """
        self._execute(
            "INSERT INTO store_meta(key, value) VALUES ('mutations', '1') "
            "ON CONFLICT(key) DO UPDATE SET "
            "value = CAST(CAST(value AS INTEGER) + 1 AS TEXT)"
        )

    def _fold_into_aggregates(self, summary: dict, app_name, seq: int) -> None:
        """Fold one new run into the persisted aggregate rows (inside the
        put transaction).  A no-op until a first harvest builds the rows;
        any unparseable row clears the table (degrade, never misread)."""
        row = self._execute(
            "SELECT data FROM harvest_aggregates WHERE scope = '*'"
        ).fetchone()
        if row is None:
            return
        try:
            agg = HarvestAggregate.from_dict(json.loads(row[0]))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            self._execute("DELETE FROM harvest_aggregates")
            return
        agg.fold_summary(summary)
        self._execute(
            "UPDATE harvest_aggregates SET max_seq = ?, n_runs = ?, data = ? "
            "WHERE scope = '*'",
            (seq, agg.n_runs, json.dumps(agg.to_dict())),
        )
        if not isinstance(app_name, str):
            return
        scope = f"app:{app_name}"
        arow = self._execute(
            "SELECT data FROM harvest_aggregates WHERE scope = ?", (scope,)
        ).fetchone()
        if arow is None:
            app_agg = HarvestAggregate()
        else:
            try:
                app_agg = HarvestAggregate.from_dict(json.loads(arow[0]))
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                self._execute("DELETE FROM harvest_aggregates")
                return
        app_agg.fold_summary(summary)
        self._execute(
            "INSERT OR REPLACE INTO harvest_aggregates"
            "(scope, max_seq, n_runs, data) VALUES (?, ?, ?, ?)",
            (scope, seq, app_agg.n_runs, json.dumps(app_agg.to_dict())),
        )

    def _build_aggregate_rows(self) -> Optional[dict]:
        """Rebuild the aggregate rows from the runs table (inside a write
        transaction).  ``None`` — and no rows — when any meta is
        misshapen (no dict summary); harvest then stays on the scan path
        until a rebuild regenerates the metas."""
        rows = self._execute(
            "SELECT run_id, meta FROM runs ORDER BY seq"
        ).fetchall()
        all_agg = HarvestAggregate()
        by_app: Dict[str, HarvestAggregate] = {}
        max_seq = -1
        for _run_id, meta_json in rows:
            meta = json.loads(meta_json)
            summary = meta.get("summary")
            if not isinstance(summary, dict):
                return None
            all_agg.fold_summary(summary)
            app = meta.get("app_name")
            if isinstance(app, str):
                by_app.setdefault(app, HarvestAggregate()).fold_summary(summary)
            max_seq = max(max_seq, meta.get("seq", -1))
        self._execute("DELETE FROM harvest_aggregates")
        self._execute(
            "INSERT INTO harvest_aggregates(scope, max_seq, n_runs, data) "
            "VALUES ('*', ?, ?, ?)",
            (max_seq, all_agg.n_runs, json.dumps(all_agg.to_dict())),
        )
        for app in sorted(by_app):
            self._execute(
                "INSERT INTO harvest_aggregates(scope, max_seq, n_runs, data) "
                "VALUES (?, ?, ?, ?)",
                (f"app:{app}", max_seq, by_app[app].n_runs,
                 json.dumps(by_app[app].to_dict())),
            )
        return {"all": all_agg, "by_app": by_app}

    def harvest_aggregate(self, app_name: Optional[str] = None):
        scope = "*" if app_name is None else f"app:{app_name}"
        rows = self._select(
            "SELECT data FROM harvest_aggregates WHERE scope = ?", (scope,),
            describe="harvest_aggregate",
        )
        if rows:
            try:
                return HarvestAggregate.from_dict(json.loads(rows[0][0]))
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                return None
        if app_name is not None and self._select(
            "SELECT 1 FROM harvest_aggregates WHERE scope = '*'",
            describe="harvest_aggregate",
        ):
            # Aggregates are built and the app has no runs: the empty
            # aggregate, exactly what a scan of zero summaries yields.
            return HarvestAggregate()
        # Nothing persisted yet (a fresh store, or a delete/overwrite
        # cleared the rows): build once and serve from the rows ever
        # after.  A store that cannot be written right now just stays on
        # the scan path.
        try:
            built = self._write_txn(self._build_aggregate_rows,
                                    "build harvest aggregates")
        except (StoreUnavailable, sqlite3.Error):
            return None
        if built is None:
            return None
        if app_name is None:
            return built["all"]
        return built["by_app"].get(app_name, HarvestAggregate())

    def index_token(self) -> Hashable:
        row = self._select(
            "SELECT (SELECT value FROM store_meta WHERE key = 'mutations'), "
            "COUNT(*), COALESCE(MAX(seq), -1) FROM runs",
            describe="index_token",
        )[0]
        mutations = int(row[0]) if row[0] is not None else 0
        return ("sqlite", mutations, row[1], row[2])

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> RecoveryReport:
        def body() -> RecoveryReport:
            report = RecoveryReport()
            rows = self._execute(
                "SELECT run_id, seq, payload, sha256 FROM runs ORDER BY seq"
            ).fetchall()
            for run_id, seq, payload_json, sha in rows:
                try:
                    payload = json.loads(payload_json)
                    if not isinstance(payload, dict) \
                            or _checksum(payload) != sha:
                        raise ValueError("checksum mismatch")
                    record = RunRecord.from_dict(payload)
                except (ValueError, KeyError, TypeError):
                    self._execute(
                        "INSERT INTO quarantine(run_id, quarantined_at, "
                        "payload, sha256, reason) VALUES (?, ?, ?, ?, ?)",
                        (run_id, time.time(), payload_json, sha,
                         "failed verification during rebuild"),
                    )
                    self._execute(
                        "DELETE FROM runs WHERE run_id = ?", (run_id,))
                    report.quarantined.append(f"quarantine:{run_id}")
                    continue
                meta = meta_for_record(record)
                meta["seq"] = seq
                self._execute(
                    "UPDATE runs SET meta = ?, app_name = ?, version = ? "
                    "WHERE run_id = ?",
                    (json.dumps(meta), record.app_name, record.version,
                     run_id),
                )
                report.kept.append(run_id)
            # Every surviving meta now has a fresh summary, so the
            # aggregate rows can always be rebuilt here.
            self._bump_mutations()
            self._build_aggregate_rows()
            return report

        return self._write_txn(body, "rebuild")

    def compact(self) -> CompactionStats:
        entries = self._select("SELECT COUNT(*) FROM runs",
                               describe="compact count")[0][0]
        self._call(lambda: self._execute("VACUUM"), "compact")
        # VACUUM keeps the contents, but a compaction is a write and
        # must move the index token like every other.
        self._write_txn(self._bump_mutations, "compact")
        return CompactionStats(segments_folded=0, entries=entries, generation=0)

    def info(self) -> StoreInfo:
        runs = self._select("SELECT COUNT(*) FROM runs",
                            describe="info")[0][0]
        agg_rows = self._select(
            "SELECT n_runs FROM harvest_aggregates WHERE scope = '*'",
            describe="info",
        )
        try:
            index_bytes = self.path.stat().st_size
        except OSError:
            index_bytes = 0
        return StoreInfo(
            root=self.root,
            backend=self.name,
            runs=runs,
            index_format=_SCHEMA_VERSION,
            generation=0,
            segments=0,
            index_bytes=index_bytes,
            # Transactionally maintained, so present means exact; 0 means
            # the next harvest scans once and self-heals the rows.
            aggregated_runs=agg_rows[0][0] if agg_rows else 0,
            aggregated_segments=0,
        )
