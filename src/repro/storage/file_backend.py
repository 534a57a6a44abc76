"""Directory-backed storage: file-per-record bodies + a sharded index.

Record bodies are per-run JSON files written via atomic rename and
wrapped in a SHA-256 envelope (``{"format": 2, "sha256": ..., "record":
{...}}``); a file that fails its check is *quarantined* — moved to
``<store>/quarantine/`` and dropped from the index — never silently
skipped or half-read.

The index is **sharded into append-only segments** so a save is O(1)
instead of O(store):

* ``index.json`` — the *base generation*: a format-3 envelope
  ``{"format": 3, "generation": ..., "runs": {...}}`` whose every meta
  carries its query summary.
* ``segments/NNNNNNNNNNNN.json`` — sealed segment files, each a short
  list of index ops (``put``/``del``) appended by one writer under the
  store lock and **never modified afterwards**.  The zero-padded name
  carries a monotonic counter, so lexicographic order is write order.
* ``segments/_state.json`` — a tiny atomically-replaced claim file
  (``next_seq``/``counter``/``generation``) so writers assign ``seq``
  and segment names without reading the merged index.  Its ``"format"``
  key stamps the layout: the one thing an open reads.
* ``index.aggregate`` — the *rolling* harvest aggregate: the
  :class:`~repro.core.extraction.HarvestAggregate` (``by_app``, plus
  ``all`` unless one app owns every run and it would be the same thing
  twice) over the base **and every segment named** ``<= through``,
  stamped with the base's stat signature and the highest ``seq`` folded.
  Every seal extends it; compaction and ``rebuild`` rewrite it with
  ``through`` empty.  Segments carry ops only, so a cold harvest is this
  one read, and a seal costs one aggregate rewrite on top of its segment.

Readers merge base + segments into one view.  Sealed segments are
immutable, so they are parsed once and cached by name; the base is
cached by stat signature; the merged view is cached by (base signature,
segment-name tuple).  Read ordering — list segments, parse them, read
the base *last* — guarantees the base is at least as new as the segment
listing, so a compaction racing the read only makes some replayed ops
idempotent, never loses them.

Compaction (explicit ``compact()`` or auto past a segment threshold)
folds segments into a new base generation under the lock: write the new
base via atomic rename, then delete the folded segments, then bump the
state generation.  A writer killed at *any* point leaves the store
readable — replaying a folded segment over the new base is idempotent —
and ``rebuild()`` recovers from anything worse.

The sidecar is never the commit point and never trusted alone: a
reader rejects it unless its stamp names the live base (any base rewrite
orphans it: rescan), skips the segments it covers, and folds the rest op
by op under the ``seq`` watermark.  A seal renames the segment first and
the sidecar second, so a writer killed in between — or a reader racing
it — sees one uncovered segment and folds it; a reader holding a
pre-compaction listing against the new sidecar meets ``seq <= max_seq``
and rescans.  A delete's seal cannot extend it and writes none; a put
seal that cannot roll it (after a delete, on an overwrite, over a stale
stamp) rebuilds it from the merged view it holds under the lock, so
coverage is short until the next put, never until the next compaction.
Absent or short, never wrong or double-counted.

The reader knows this one layout.  A store written before the layout
stamp — checksum-less records, a bare format-2 index without summaries,
a sidecar without ``through``, no claim file — is converted once, by
the open that first finds ``index.json`` without a current stamp: under
the store lock (re-checked there, so racing opens convert once) it runs
``rebuild()``, the one converter, which is also ``repro store rebuild``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

try:  # POSIX advisory locks; absent e.g. on Windows
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None

from ..core.extraction import HarvestAggregate
from ..faults import io as io_faults
from .api import (
    CompactionStats,
    RecoveryReport,
    StorageBackend,
    StoreCorruption,
    StoreError,
    StoreInfo,
)
from .records import RunRecord
from .summary import meta_for_record

__all__ = ["FileBackend", "read_record_payload"]

_INDEX_NAME = "index.json"
#: Harvest-aggregate sidecar for the base generation.  Deliberately not a
#: ``*.json`` name: ``rebuild()`` adopts every ``*.json`` file in the root
#: as a candidate record, and the segment listing keys on the suffix too.
_AGGREGATE_NAME = "index.aggregate"
_LOCK_NAME = "index.lock"
_QUARANTINE_DIR = "quarantine"
_SEGMENTS_DIR = "segments"
_STATE_NAME = "_state.json"
_RECORD_FORMAT = 2
#: On-disk base-index format: a ``{"format": 3, "runs": {...}}`` envelope
#: whose per-run metadata carries a denormalized query summary.
_INDEX_FORMAT = 3
_SEGMENT_FORMAT = 1
#: On-disk format of the ``index.aggregate`` sidecar.
_AGGREGATE_FORMAT = 2
#: The layout stamp in the claim file.  An open that finds ``index.json``
#: stamped lower (or not at all) converts the store with ``rebuild()``.
_LAYOUT_FORMAT = 1
_SEGMENT_CACHE_SIZE = 4096


def _canonical(payload: dict) -> str:
    """The canonical JSON encoding of a record dict (what is hashed)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a record dict."""
    return _sha256(_canonical(payload))


def _stat_sig(path: Path) -> Tuple[int, int, int]:
    """Identity of a file's current contents.

    Atomic-rename writes always produce a fresh inode, so any overwrite —
    same process or not — changes the signature and invalidates cache
    entries without cross-process coordination.
    """
    st = path.stat()
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def read_record_payload(path: Path) -> dict:
    """Parse one record file and verify its checksum.

    Raises ``StoreCorruption`` (without quarantining — callers decide)
    on unparseable JSON, a malformed envelope, or a checksum mismatch.
    """
    io_faults.check("read", path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StoreCorruption(f"{path.name}: unparseable record file ({exc})")
    if not isinstance(data, dict):
        raise StoreCorruption(f"{path.name}: record file is not an object")
    payload = data.get("record")
    if not isinstance(payload, dict) or "run_id" not in payload:
        raise StoreCorruption(f"{path.name}: envelope has no record payload")
    if _checksum(payload) != data.get("sha256"):
        raise StoreCorruption(f"{path.name}: payload checksum mismatch")
    return payload


@contextmanager
def _locked(lock_path: Path):
    """Hold an exclusive inter-process lock for the duration of the block.

    Uses ``flock`` where available; otherwise falls back to an
    ``O_EXCL``-based spin lock so the store still serialises writers on
    platforms without ``fcntl``.
    """
    if fcntl is not None:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
    else:  # pragma: no cover - exercised only off-POSIX
        spin = lock_path.with_suffix(".spin")
        deadline = time.monotonic() + 30.0
        while True:
            try:
                fd = os.open(spin, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                if time.monotonic() > deadline:
                    raise StoreError(f"timed out waiting for store lock {spin}")
                time.sleep(0.005)
        try:
            yield
        finally:
            os.close(fd)
            spin.unlink(missing_ok=True)


def _replace(src: Path, dst: Path) -> None:
    """``os.replace`` behind the I/O fault seam (all replace faults raise)."""
    io_faults.check("replace", dst)
    os.replace(src, dst)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write-to-temp, fsync, rename — the only way bytes reach the store.

    The fsync before the rename is what makes the rename a commit point
    a crash cannot tear: without it a power loss can leave the *renamed*
    file empty.  The :mod:`repro.faults.io` seams model exactly the
    failures this sequence must survive — a short write (a prefix lands,
    then ENOSPC), a lost fsync, a failed rename, or a kill between any
    two steps — and the tmp name never matches the ``*.json`` globs, so
    a torn temp file is invisible to every reader.
    """
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        action = io_faults.check("write", tmp)
        if action is not None and action[0] == "short":
            fh.write(text[: max(1, int(len(text) * action[1]))])
            fh.flush()
            raise OSError(
                errno.ENOSPC, f"injected short write on {tmp.name}", str(tmp)
            )
        fh.write(text)
        fh.flush()
        if io_faults.check("fsync", tmp) is None:  # "lost" skips the sync
            os.fsync(fh.fileno())
    _replace(tmp, path)


def _atomic_write_json(path: Path, data: dict, *, indent: Optional[int] = None) -> None:
    _atomic_write_text(
        path, json.dumps(data, indent=indent, sort_keys=indent is not None))


def _apply_ops(view: Dict[str, dict], ops: List[dict]) -> None:
    """Replay one segment's index ops onto a run→meta view in place."""
    for op in ops:
        if op.get("op") == "put":
            view[op["run_id"]] = op["meta"]
        elif op.get("op") == "del":
            view.pop(op["run_id"], None)


class FileBackend(StorageBackend):
    """File-per-record storage with a segmented index.  See the module
    docstring for the on-disk layout and the crash-safety argument."""

    name = "file"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / _INDEX_NAME
        self._lock_path = self.root / _LOCK_NAME
        self._segments_dir = self.root / _SEGMENTS_DIR
        self._state_path = self._segments_dir / _STATE_NAME
        #: Parsed base index keyed by the file's stat signature.
        self._base_cache: Optional[Tuple[Tuple[int, int, int], int, Dict[str, dict]]] = None
        #: Parsed sealed segment ops keyed by file name (immutable once
        #: written).
        self._segment_cache: "OrderedDict[str, List[dict]]" = OrderedDict()
        #: Parsed aggregate sidecar keyed by its stat signature (``None``
        #: payload caches an unreadable/unusable sidecar).
        self._sidecar_cache: Optional[Tuple[Tuple[int, int, int], Optional[dict]]] = None
        #: Merged view keyed by (base signature, segment-name tuple).
        self._merged_cache: Optional[Tuple[Hashable, Dict[str, dict]]] = None
        #: Guards the three caches above against concurrent same-process
        #: readers.  The flock serialises *processes*; threads sharing
        #: one backend (a pooled store under a server) additionally race
        #: on the one-slot caches and the segment LRU's ``move_to_end``/
        #: ``popitem`` — reentrant because ``read_merged`` nests
        #: ``_read_base``/``_read_segment``.
        self._cache_lock = threading.RLock()
        # A current store costs this open one claim-file read.
        if self._read_state().get("format", 0) < _LAYOUT_FORMAT \
                or not self._index_path.exists():
            with self.lock():
                state = self._read_state()
                if not self._index_path.exists():
                    self._write_base({})
                    if state.get("format", 0) < _LAYOUT_FORMAT:
                        self._write_state({
                            "next_seq": 0, "counter": 0, "generation": 0,
                            "format": _LAYOUT_FORMAT})
                elif state.get("format", 0) < _LAYOUT_FORMAT:
                    self._rebuild()

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def lock(self):
        return _locked(self._lock_path)

    # ------------------------------------------------------------------
    # base index + segments
    # ------------------------------------------------------------------
    def _read_base(self) -> Tuple[Dict[str, dict], int]:
        """The base-generation run→meta mapping and its generation."""
        with self._cache_lock:
            try:
                sig = _stat_sig(self._index_path)
            except OSError:
                sig = None
            if sig is not None and self._base_cache is not None \
                    and self._base_cache[0] == sig:
                return dict(self._base_cache[2]), self._base_cache[1]
            io_faults.check("read", self._index_path)
            with open(self._index_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            runs = data.get("runs") if isinstance(data, dict) else None
            if not isinstance(runs, dict):
                raise StoreCorruption(
                    f"{_INDEX_NAME}: not a format-{_INDEX_FORMAT} index "
                    "(run `repro store rebuild`)")
            generation = int(data.get("generation", 0))
            if sig is not None:
                # sig was taken before the read: if a writer replaced the file
                # in between we may cache newer content under the older
                # signature, which is safe — the next stat mismatches.
                self._base_cache = (sig, generation, runs)
            return dict(runs), generation

    def _write_base(self, index: Dict[str, dict], generation: int = 0) -> None:
        envelope = {"format": _INDEX_FORMAT, "runs": index}
        if generation:
            envelope["generation"] = generation
        _atomic_write_json(self._index_path, envelope, indent=1)
        with self._cache_lock:
            # Writes happen under the store lock, so no other writer can
            # replace the file between our rename and this stat.
            self._base_cache = (_stat_sig(self._index_path), generation, dict(index))
            self._merged_cache = None

    def _segment_names(self) -> List[str]:
        try:
            names = os.listdir(self._segments_dir)
        except OSError:
            return []
        return sorted(n for n in names
                      if n.endswith(".json") and n != _STATE_NAME)

    def _read_segment(self, name: str) -> Optional[List[dict]]:
        """The ops of one sealed segment (cached — segments are
        immutable; they carry ops only, the harvest aggregate over them
        lives in the rolling sidecar).

        ``None`` when the file vanished: a concurrent compaction folded
        it, and the base we read *afterwards* already contains its ops.
        """
        with self._cache_lock:
            ops = self._segment_cache.get(name)
            if ops is not None:
                self._segment_cache.move_to_end(name)
                return ops
            path = self._segments_dir / name
            try:
                io_faults.check("read", path)
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except FileNotFoundError:
                return None
            # Any other OSError (EIO, ...) must propagate: treating it as
            # "vanished" would silently drop this segment's ops from the
            # merged view — a third state neither pre- nor post-op.  The
            # resilience layer retries it instead.
            ops = data.get("ops", []) if isinstance(data, dict) else []
            self._segment_cache[name] = ops
            while len(self._segment_cache) > _SEGMENT_CACHE_SIZE:
                self._segment_cache.popitem(last=False)
            return ops

    def _drop_segment_cache(self, name: str) -> None:
        """Forget a folded segment's parsed ops (used after unlink)."""
        with self._cache_lock:
            self._segment_cache.pop(name, None)
            self._merged_cache = None

    def read_merged(self) -> Dict[str, dict]:
        """One consistent run→meta view: base + segment ops in order.

        Ordering matters: segments are listed and parsed *before* the
        base is read, so the base is never older than the segment set —
        a compaction racing this read can only make replayed ops
        idempotent, not lose them.
        """
        with self._cache_lock:
            names = self._segment_names()
            segments = [(name, self._read_segment(name)) for name in names]
            parsed = tuple(name for name, ops in segments if ops is not None)
            try:
                base_sig = _stat_sig(self._index_path)
            except OSError:
                base_sig = None
            key = (base_sig, parsed)
            if self._merged_cache is not None and self._merged_cache[0] == key:
                return dict(self._merged_cache[1])
            base, _generation = self._read_base()
            merged = base  # _read_base returned a fresh dict
            for _name, ops in segments:
                _apply_ops(merged, ops or ())
            self._merged_cache = (key, merged)
            return dict(merged)

    # -- writer state ---------------------------------------------------
    def _read_state(self) -> dict:
        """The writer claim file, or ``{}`` when it is missing or
        unparseable — no stamp, so the next open rebuilds it."""
        io_faults.check("read", self._state_path)
        try:
            with open(self._state_path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return {}
        return state if isinstance(state, dict) else {}

    def _write_state(self, state: dict) -> None:
        self._segments_dir.mkdir(exist_ok=True)
        _atomic_write_json(self._state_path, state)

    def _append_segment(self, ops: List[dict],
                        merged: Optional[Dict[str, dict]] = None) -> None:
        """Claim a segment name and seal *ops* into it (under the lock)."""
        state = self._read_state()
        counter = state["counter"]
        state["counter"] = counter + 1
        self._write_state(state)
        self._seal_segment(counter, ops, merged)

    def _seal_segment(self, counter: int, ops: List[dict],
                      merged: Optional[Dict[str, dict]] = None) -> None:
        """Write one sealed, never-again-modified segment file and roll
        the aggregate sidecar over it.  The counter must already be
        claimed in the state file, so a crash here skips a name instead
        of colliding with a later writer.

        The sidecar is rolled when the pre-seal aggregate proves out and
        *ops* are pure new puts.  Otherwise a put seal passes
        *merged*, the pre-seal view it holds under the lock, and the
        sidecar is rebuilt from it with *ops* applied: one fold, once,
        and the seals after it roll again.  A delete passes none, so
        coverage stops at the old ``through`` until the next put.
        """
        self._segments_dir.mkdir(exist_ok=True)
        name = f"{counter:012d}.json"
        current = self._current_aggregates()  # pre-seal: we hold the lock
        _atomic_write_json(
            self._segments_dir / name, {"format": _SEGMENT_FORMAT, "ops": ops}
        )
        try:
            rolled = self._fold_ops(current, [ops]) \
                if current is not None else None
            if rolled is None and merged is not None:
                _apply_ops(merged, ops)
                rolled = self._build_aggregates(merged)
            if rolled is not None:
                self._write_aggregate_sidecar(rolled, through=name)
        except OSError:
            # The segment rename was the commit point: a sidecar that
            # cannot be written leaves coverage one segment short (the
            # next seal folds or heals it), never a failed save.
            pass

    # ------------------------------------------------------------------
    # harvest aggregates
    # ------------------------------------------------------------------
    @staticmethod
    def _fold_ops(aggs: dict, segments: List[object]) -> Optional[dict]:
        """*aggs* extended by each segment's ops, as private copies (the
        cached aggregates are shared with every reader), or ``None``
        unless every op is a *new, summarized* put: a delete, an
        overwrite (``seq`` at or below the watermark), a missing summary
        or anything misshapen is unprovable."""
        all_agg = aggs["all"].copy()
        by_app = {app: agg.copy() for app, agg in aggs["by_app"].items()}
        max_seq = aggs["max_seq"]
        for ops in segments:
            if not isinstance(ops, list):
                return None
            for op in ops:
                meta = op.get("meta") if isinstance(op, dict) else None
                if not isinstance(meta, dict) or op.get("op") != "put":
                    return None
                summary = meta.get("summary")
                seq = meta.get("seq", -1)
                if not isinstance(summary, dict) or seq <= max_seq:
                    return None
                max_seq = seq
                all_agg.fold_summary(summary)
                app = meta.get("app_name")
                if isinstance(app, str):
                    by_app.setdefault(
                        app, HarvestAggregate()).fold_summary(summary)
        return {"all": all_agg, "by_app": by_app, "max_seq": max_seq}

    def _build_aggregates(self, merged: Dict[str, dict]) -> Optional[dict]:
        """Full-scan aggregates over a merged view, in ``seq`` order.
        ``None`` when any run lacks a dict summary (a misshapen meta)."""
        all_agg = HarvestAggregate()
        by_app: Dict[str, HarvestAggregate] = {}
        max_seq = -1
        for _run_id, meta in sorted(merged.items(),
                                    key=lambda kv: kv[1].get("seq", 0)):
            summary = meta.get("summary")
            if not isinstance(summary, dict):
                return None
            all_agg.fold_summary(summary)
            app = meta.get("app_name")
            if isinstance(app, str):
                by_app.setdefault(app, HarvestAggregate()).fold_summary(summary)
            max_seq = max(max_seq, meta.get("seq", -1))
        return {"all": all_agg, "by_app": by_app, "max_seq": max_seq}

    def _write_aggregate_sidecar(self, aggs: Optional[dict],
                                 through: str = "") -> None:
        """Persist (or retire) the aggregate sidecar: *aggs* covers the
        live base plus every segment named ``<= through``.

        Must run under the store lock, after the base (and the segment
        named *through*) it describes landed: the sidecar records the
        live base's stat signature, and a reader only trusts it while
        that signature still matches — so a crash landing before this
        write merely leaves the *old* sidecar stale (after a base write:
        a rescan) or short (after a seal: the tail is folded per op).
        """
        path = self.root / _AGGREGATE_NAME
        if aggs is None:
            try:
                path.unlink()
            except OSError:
                pass
            with self._cache_lock:
                self._sidecar_cache = None
            return
        all_agg, by_app = aggs["all"], aggs["by_app"]
        parsed = {"base_sig": _stat_sig(self._index_path), "through": through,
                  "max_seq": aggs["max_seq"], "all": all_agg, "by_app": by_app}
        # When every run carries the one app name, ``all`` *is* that
        # app's aggregate: store it once.
        solo = len(by_app) == 1 and all(
            agg.n_runs == all_agg.n_runs for agg in by_app.values())
        _atomic_write_json(path, {
            "format": _AGGREGATE_FORMAT,
            "base_sig": list(parsed["base_sig"]),
            "through": through,
            "max_seq": aggs["max_seq"],
            "all": None if solo else all_agg.to_dict(),
            "by_app": {app: by_app[app].to_dict() for app in sorted(by_app)},
        })
        with self._cache_lock:
            self._sidecar_cache = (_stat_sig(path), parsed)

    def _read_sidecar(self) -> Optional[dict]:
        """The parsed sidecar, *validated against the current base*.

        ``None`` for a missing/unparseable/misshapen sidecar or one whose
        recorded base signature no longer matches — any base rewrite
        (compaction, rebuild) invalidates it without coordination,
        exactly like the other stat-signature caches.
        """
        path = self.root / _AGGREGATE_NAME
        with self._cache_lock:
            try:
                sig = _stat_sig(path)
            except OSError:
                return None
            if self._sidecar_cache is None or self._sidecar_cache[0] != sig:
                parsed: Optional[dict] = None
                try:
                    io_faults.check("read", path)
                    with open(path, "r", encoding="utf-8") as fh:
                        data = json.load(fh)
                    if data["format"] == _AGGREGATE_FORMAT \
                            and isinstance(data["through"], str):
                        by_app = {
                            app: HarvestAggregate.from_dict(d)
                            for app, d in data["by_app"].items()
                        }
                        if data["all"] is None:
                            (all_agg,) = by_app.values()
                        else:
                            all_agg = HarvestAggregate.from_dict(data["all"])
                        parsed = {
                            "base_sig": tuple(data["base_sig"]),
                            "through": data["through"],
                            "max_seq": int(data["max_seq"]),
                            "all": all_agg,
                            "by_app": by_app,
                        }
                except (OSError, json.JSONDecodeError, KeyError, ValueError,
                        TypeError, AttributeError):
                    # valid JSON of the wrong shape (``[]``, ``null``, a
                    # ``by_app`` that is no mapping) is absent, not an error
                    parsed = None
                self._sidecar_cache = (sig, parsed)
            parsed = self._sidecar_cache[1]
            if parsed is None:
                return None
            try:
                base_sig = _stat_sig(self._index_path)
            except OSError:
                return None
            if parsed["base_sig"] != base_sig:
                return None
            return parsed

    def _current_aggregates(self) -> Optional[dict]:
        """Aggregates covering exactly the current merged view, or ``None``.

        Starts from the sidecar (or the empty aggregate when the base
        has no runs — a store that lost its sidecar before its first
        compaction still gets the fast path), skips every listed segment
        it covers (named ``<= through``) without opening it, and folds
        the uncovered tail per op.  Anything it cannot prove — see
        :meth:`_fold_ops`; a segment vanishing mid-read — yields
        ``None``: the caller rescans, so a stale or torn aggregate can
        never produce wrong directives.
        """
        with self._cache_lock:
            names = self._segment_names()
            side = self._read_sidecar()
            if side is None:
                base, _generation = self._read_base()
                if base:
                    return None
                side = {"all": HarvestAggregate(), "by_app": {},
                        "max_seq": -1, "through": ""}
            tail = [self._read_segment(name)
                    for name in names if name > side["through"]]
            return self._fold_ops(side, tail) if tail else side

    def harvest_aggregate(self, app_name: Optional[str] = None):
        current = self._current_aggregates()
        if current is None:
            return None
        if app_name is None:
            return current["all"]
        agg = current["by_app"].get(app_name)
        return agg if agg is not None else HarvestAggregate()

    def index_token(self) -> Hashable:
        """``(base stat signature, segment names)``: every write seals a
        segment under a never-reused name or rewrites the base, so any
        write changes it, and it costs one ``listdir`` plus one ``stat``.
        """
        with self._cache_lock:
            # Same read discipline as read_merged: segments before base,
            # so a racing compaction can only produce a token no later
            # read will match — never one that aliases two states.
            names = tuple(self._segment_names())
            try:
                base_sig = _stat_sig(self._index_path)
            except OSError:
                base_sig = None
        return (base_sig, names)

    # ------------------------------------------------------------------
    # record files
    # ------------------------------------------------------------------
    def _record_file(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    def _write_record(self, path: Path, payload: dict) -> None:
        # One serialisation: the canonical text that is hashed is the
        # text that is stored (readers re-derive it from the parsed payload).
        canonical = _canonical(payload)
        _atomic_write_text(
            path,
            '{"format": %d, "sha256": "%s", "record": %s}'
            % (_RECORD_FORMAT, _sha256(canonical), canonical),
        )

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt file out of the store (index entry included).

        The original name is preserved inside ``quarantine/``; a second
        quarantine of the same name gets a numeric suffix so nothing is
        overwritten.  Must run under the lock.
        """
        qdir = self.root / _QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        dest = qdir / path.name
        counter = 1
        while dest.exists():
            dest = qdir / f"{path.stem}.{counter}{path.suffix}"
            counter += 1
        _replace(path, dest)
        self._drop_index_entry(path.stem)
        return dest

    def _drop_index_entry(self, run_id: str) -> None:
        if self.read_merged().get(run_id) is None:
            return
        self._append_segment([{"op": "del", "run_id": run_id}])

    # ------------------------------------------------------------------
    # StorageBackend: records
    # ------------------------------------------------------------------
    def put(self, run_id: str, payload: dict, meta: dict,
            *, overwrite: bool = False) -> Tuple[int, Hashable]:
        if not isinstance(meta.get("summary"), dict):
            raise StoreError(f"run {run_id!r}: index meta has no summary")
        path = self._record_file(run_id)
        with self.lock():
            # Existence is judged by the *index*, not the payload file: a
            # put that failed transiently (or a process killed mid-put)
            # may leave an orphaned record file behind, and a retry —
            # or a later legitimate save of the same run id — must be
            # able to reclaim it.
            merged = self.read_merged()
            prior = merged.get(run_id)
            if prior is not None and not overwrite:
                raise StoreError(f"run {run_id!r} already stored")
            meta = dict(meta)
            seq = prior["seq"] if prior and "seq" in prior else None
            # Claim seq + segment name in one state write *before*
            # touching anything else: a crash in between skips values
            # instead of reusing them.
            state = self._read_state()
            if seq is None:
                seq = state["next_seq"]
                state["next_seq"] = seq + 1
            counter = state["counter"]
            state["counter"] = counter + 1
            self._write_state(state)
            meta["seq"] = seq
            self._write_record(path, payload)
            self._seal_segment(
                counter, [{"op": "put", "run_id": run_id, "meta": meta}],
                merged,
            )
            token = _stat_sig(path)
        return seq, token

    def get(self, run_id: str) -> dict:
        path = self._record_file(run_id)
        if not path.exists():
            raise StoreError(f"no stored run {run_id!r}")
        try:
            return read_record_payload(path)
        except StoreCorruption as exc:
            with self.lock():
                dest = self._quarantine(path) if path.exists() else None
            raise StoreCorruption(
                f"{exc}" + (f"; quarantined to {dest}" if dest else ""),
                quarantined_to=dest,
            ) from None

    def delete(self, run_id: str) -> None:
        with self.lock():
            # Index first, payload second: a crash in between leaves a
            # harmless unindexed orphan (the post-op view; scrub reports
            # it, rebuild re-adopts it).  The old order left the index
            # pointing at a payload that no longer existed.
            self._drop_index_entry(run_id)
            path = self._record_file(run_id)
            if path.exists():
                path.unlink()

    def contains(self, run_id: str) -> bool:
        return self._record_file(run_id).exists()

    def record_token(self, run_id: str) -> Hashable:
        try:
            return _stat_sig(self._record_file(run_id))
        except OSError:
            raise StoreError(f"no stored run {run_id!r}") from None

    # ------------------------------------------------------------------
    # StorageBackend: index
    # ------------------------------------------------------------------
    def query_summaries(
        self,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, dict]:
        merged = self.read_merged()
        if run_ids is not None:
            return {run_id: merged.get(run_id) for run_id in run_ids}
        out: Dict[str, dict] = {}
        for run_id, meta in sorted(merged.items(),
                                   key=lambda kv: kv[1].get("seq", 0)):
            if app_name is not None and meta.get("app_name") != app_name:
                continue
            if version is not None and meta.get("version") != version:
                continue
            out[run_id] = meta
        return out

    # ------------------------------------------------------------------
    # StorageBackend: maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> RecoveryReport:
        with self.lock():
            return self._rebuild()

    def _adopt_record(self, path: Path) -> RunRecord:
        """One record file as ``rebuild`` re-indexes it.  A bare record
        dict — format 1, from before checksums — is read here and only
        here, and rewritten on the spot as a checksummed envelope."""
        try:
            return RunRecord.from_dict(read_record_payload(path))
        except StoreCorruption:
            data = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(data, dict) or "format" in data:
                raise
            record = RunRecord.from_dict(data)
            self._write_record(path, data)
            return record

    def _rebuild(self) -> RecoveryReport:
        """:meth:`rebuild` under the held store lock: the one converter
        from any older layout, and the recovery from any wreckage."""
        report = RecoveryReport()
        # The view whose seq values survive, read leniently: the bare
        # format-2 base mapping is read here and nowhere else, and a
        # missing or misshapen base or segment starts a fresh lineage.
        # Any other I/O error aborts: a transient one must not lose seqs.
        try:
            io_faults.check("read", self._index_path)
            base = json.loads(self._index_path.read_text(encoding="utf-8"))
            bare = "format" not in base
            old = dict(base if bare else base["runs"])
            generation = 0 if bare else int(base.get("generation", 0))
            for name in self._segment_names():
                _apply_ops(old, self._read_segment(name) or [])
        except (FileNotFoundError, ValueError, TypeError, AttributeError,
                KeyError):
            old, generation = {}, 0
        paths = sorted(
            (p for p in self.root.glob("*.json") if p.name != _INDEX_NAME),
            key=lambda p: p.stat().st_mtime,
        )
        index: Dict[str, dict] = {}
        recovered = []
        quarantined: List[Path] = []
        for path in paths:
            try:
                record = self._adopt_record(path)
            except (StoreCorruption, KeyError, TypeError, ValueError):
                quarantined.append(path)
                continue
            meta = meta_for_record(record)
            prior = old.get(record.run_id)
            if prior and "seq" in prior:
                meta["seq"] = prior["seq"]
                index[record.run_id] = meta
            else:
                recovered.append((record.run_id, meta))
            report.kept.append(record.run_id)
        next_seq = 1 + max(
            (meta["seq"] for meta in index.values()), default=-1
        )
        for run_id, meta in recovered:
            meta["seq"] = next_seq
            next_seq += 1
            index[run_id] = meta
        self._write_base(index, generation + 1)
        # Every meta now carries a fresh summary, so the aggregate
        # sidecar can always be built over the whole new base.
        self._write_aggregate_sidecar(self._build_aggregates(index))
        removed = self._segment_names()
        for name in removed:
            try:
                os.unlink(self._segments_dir / name)
            except OSError:
                pass
            self._drop_segment_cache(name)
        # Last: the stamp lands only once the store is converted.
        self._write_state({
            "next_seq": next_seq,
            "counter": 1 + max(
                (int(Path(n).stem) for n in removed
                 if Path(n).stem.isdigit()),
                default=-1,
            ),
            "generation": generation + 1,
            "format": _LAYOUT_FORMAT,
        })
        # Quarantine after the index write: dropping the entry re-reads
        # the index, so the rebuilt index must be the one on disk.
        for path in quarantined:
            report.quarantined.append(str(self._quarantine(path)))
        return report

    def compact(self) -> CompactionStats:
        with self.lock():
            names = self._segment_names()
            merged = self.read_merged()
            # Aggregates for the new base: the rolled sidecar (plus any
            # uncovered tail) when the old state still proves out, by
            # full fold otherwise.  Computed before the base rename
            # invalidates the old sidecar.
            aggregates = self._current_aggregates()
            _base, generation = self._read_base()
            generation += 1
            # Crash-safety: each step leaves a readable store.  After the
            # base rename, replaying any not-yet-deleted segment over it
            # is idempotent; before it, the old base + segments still
            # merge to the same view.  The sidecar rides the same
            # protocol: it is only trusted while it names the live base's
            # signature, so dying between any two steps leaves it merely
            # stale — a rescan, never wrong directives.
            self._write_base(merged, generation)
            self._write_aggregate_sidecar(
                aggregates if aggregates is not None
                else self._build_aggregates(merged)
            )
            for name in names:
                try:
                    os.unlink(self._segments_dir / name)
                except OSError:
                    pass
                self._drop_segment_cache(name)
            state = self._read_state()
            state["generation"] = generation
            self._write_state(state)
        return CompactionStats(
            segments_folded=len(names),
            entries=len(merged),
            generation=generation,
        )

    def segment_count(self) -> int:
        """Unfolded index segments currently on disk (cheap: one listdir)."""
        return len(self._segment_names())

    def info(self) -> StoreInfo:
        merged = self.read_merged()
        names = self._segment_names()
        index_bytes = 0
        try:
            index_bytes += self._index_path.stat().st_size
        except OSError:
            pass
        for name in names:
            try:
                index_bytes += (self._segments_dir / name).stat().st_size
            except OSError:
                pass
        _base, generation = self._read_base()
        side = self._read_sidecar()
        # aggregated_runs counts runs the aggregate fast path covers *right
        # now*: 0 means the next harvest rescans — after a trailing delete,
        # until the next save's seal rebuilds the sidecar.
        current = self._current_aggregates()
        return StoreInfo(
            root=self.root,
            backend=self.name,
            runs=len(merged),
            index_format=_INDEX_FORMAT,
            generation=generation,
            segments=len(names),
            index_bytes=index_bytes,
            aggregated_runs=current["all"].n_runs if current is not None else 0,
            aggregated_segments=sum(
                1 for name in names if side and name <= side["through"]),
        )
