"""Directory-backed storage: file-per-record bodies + a sharded index.

Record bodies are per-run files written via atomic rename: a format-3
envelope ``{"format": 3, "sha256": "<hex>", "record": <codec text>}``
around the record's :mod:`~repro.storage.codec` text (``shg_nodes`` as
columns over one string table), the SHA-256 taken over that text
exactly as stored.  A read hashes the stored bytes and parses them once;
nothing is re-encoded to verify it.  A file that fails its check is
*quarantined* — moved to ``<store>/quarantine/`` and dropped from the
index — never silently skipped or half-read.

The index is **sharded into append-only segments** so a save is O(1)
instead of O(store):

* ``index.json`` — the *base generation*: a format-4 envelope
  ``{"format": 4, "generation": ..., "pairs": [...], "runs": {...}}``
  whose every meta carries its query summary.  ``pairs`` is the file's
  table of distinct ``[hypothesis, focus]`` pairs, and a summary's
  ``true_pairs``/``false_pairs`` are lists of indices into it.
* ``segments/NNNNNNNNNNNN.json`` — sealed format-2 segment files
  ``{"format": 2, "pairs": [...], "ops": [...]}``, each a short list of
  index ops (``put``/``del``) appended by one writer under the store
  lock and **never modified afterwards**, its put metas' pairs indices
  into its own ``pairs``.  No file refers to another file's table.  The
  zero-padded name carries a monotonic counter, so lexicographic order
  is write order.
* ``segments/_state.json`` — a tiny atomically-replaced claim file
  (``next_seq``/``counter``/``generation``) from which writers assign
  ``seq`` and segment names: the counters live here, not in the index,
  though ``put`` still reads the merged view under the lock to judge
  whether the run exists (and an overwrite keeps its ``seq``).  Its
  ``"format"`` key stamps the layout: the one thing an open reads.
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
segment-name tuple), and a put advances it by the ops it seals, so the
next read or put replays nothing.  Every meta enters those caches as a
read decodes it: each pair index becomes the backend's one shared
``[hypothesis, focus]`` list for that pair, so N runs of an app hold
each pair once, plus N lists of pointers, and ``summaries()`` answers
with lists of lists as before.  A base of another format or a segment
of another format is refused with :class:`StoreCorruption`, never
decoded.  The base is compact JSON, written one run at a time.  Read
ordering — list segments, parse them, read the base *last* — guarantees
the base is at least as new as the segment listing, so a compaction
racing the read only makes some replayed ops idempotent, never loses
them.

Compaction (explicit ``compact()`` or auto past a segment threshold)
folds segments into a new base generation under the lock: write the new
base via atomic rename, then delete the folded segments, then bump the
state generation.  A writer killed at *any* point leaves the store
readable — replaying a folded segment over the new base is idempotent —
and ``rebuild()`` recovers from anything worse.

The sidecar is never the commit point and never trusted alone: a
reader rejects it unless its stamp names the live base (any base rewrite
orphans it), skips the segments it covers, and folds the rest op by op
under the ``seq`` watermark.  A seal renames the segment first and the
sidecar second, so a writer killed in between — or a reader racing it —
sees one uncovered segment and folds it; a reader holding a
pre-compaction listing against the new sidecar meets ``seq <= max_seq``
and refuses it.  A refused sidecar costs one fold of the merged view,
memoised for that index state (:meth:`FileBackend.harvest_aggregate`
always answers).  A delete's seal cannot extend the sidecar and writes
none; a put seal that cannot roll it (after a delete, on an overwrite,
over a stale stamp) rebuilds it from the merged view it holds under the
lock, so coverage is short until the next put, never until the next
compaction.  Absent or short, never wrong or double-counted.

The reader knows this one layout, layout 3, and it is the only store
there is.  A store written before it — checksum-less records, a bare
format-2 index without summaries, a sidecar without ``through``, no
claim file, layout 1's index files with every pair spelled out as two
strings, layout 2's format-2 record envelopes (the payload spelled out,
its sha256 over the payload's sorted JSON), or the single-file
``store.sqlite3`` database older releases offered beside the files — is
converted once, by the open that first finds no current stamp next to
``index.json`` or the database:
under the store lock (re-checked there, so racing opens convert once) it
runs ``rebuild()``, the one converter, which is also ``repro store
rebuild``.  A database is converted in this order, and a crash at any
point converts again on the next open:

1. every ``runs`` row becomes a format-3 envelope and keeps its ``seq``;
   a row that fails its sha256, and every row of the ``quarantine``
   table, becomes a file in ``quarantine/`` (one name per row, so a
   second pass rewrites the same files);
2. the base index and the aggregate sidecar are written;
3. ``store.sqlite3`` and then its ``-wal``/``-shm`` files are renamed to
   ``store.sqlite3.converted`` (never deleted: it stays a database
   sqlite opens), so from here on a reopen converts the files alone;
4. the stamp is written last.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

try:  # POSIX advisory locks; absent e.g. on Windows
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None

from ..core.extraction import HarvestAggregate
from ..faults import io as io_faults
from . import codec
from .api import (
    CompactionStats,
    RecoveryReport,
    StoreCorruption,
    StoreError,
    StoreInfo,
)
from .records import RunRecord
from .summary import meta_for_record

__all__ = ["FileBackend", "holds_store", "read_record_payload", "record_files"]

_INDEX_NAME = "index.json"
#: Harvest-aggregate sidecar for the base generation.  Deliberately not a
#: ``*.json`` name: ``rebuild()`` adopts every ``*.json`` file in the root
#: as a candidate record, and the segment listing keys on the suffix too.
_AGGREGATE_NAME = "index.aggregate"
_LOCK_NAME = "index.lock"
_QUARANTINE_DIR = "quarantine"
_SEGMENTS_DIR = "segments"
_STATE_NAME = "_state.json"
#: The database of the sqlite store older releases wrote; converted once.
_SQLITE_NAME = "store.sqlite3"
_RECORD_FORMAT = 3
#: A record file: this head, carrying the sha256 of the record's codec
#: text, then the text itself and a closing ``}``.  The checksum covers
#: the stored bytes, so a read hashes them as they lie.
_RECORD_HEAD = '{"format": %d, "sha256": "%%s", "record": ' % _RECORD_FORMAT
_RECORD_HEAD_RE = re.compile(
    re.escape(_RECORD_HEAD).replace("%s", "([0-9a-f]{64})").encode())
#: On-disk base-index format: a ``{"format": 4, "pairs": [...], "runs":
#: {...}}`` envelope whose per-run metadata carries a denormalized query
#: summary, its ``true_pairs``/``false_pairs`` as indices into ``pairs``.
_INDEX_FORMAT = 4
#: Sealed-segment format: ``{"format": 2, "pairs": [...], "ops": [...]}``,
#: the put metas' pairs as indices into the segment's own ``pairs``.
_SEGMENT_FORMAT = 2
#: On-disk format of the ``index.aggregate`` sidecar.
_AGGREGATE_FORMAT = 2
#: The layout stamp in the claim file.  An open that finds ``index.json``
#: stamped lower (or not at all) converts the store with ``rebuild()``;
#: layout 1 spelled every pair out as two strings in every summary, and
#: layout 2 wrapped format-2 record envelopes.
_LAYOUT_FORMAT = 3
_SEGMENT_CACHE_SIZE = 4096
#: The summary fields an index file stores as pair-table indices.
_PAIR_FIELDS = ("true_pairs", "false_pairs")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _legacy_checksum(payload: dict) -> str:
    """What a format-2 envelope and a sqlite row hashed: the sorted,
    compact JSON of the record dict.  Only conversion reads it."""
    return _sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _envelope(text: str) -> Tuple[str, str, str]:
    """A record file in pieces: the envelope around codec *text*."""
    return (_RECORD_HEAD % _sha256(text), text, "}")


def _stat_sig(path: Path) -> Tuple[int, int, int]:
    """Identity of a file's current contents.

    Atomic-rename writes always produce a fresh inode, so any overwrite —
    same process or not — changes the signature and invalidates cache
    entries without cross-process coordination.
    """
    st = path.stat()
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def holds_store(root: Path) -> bool:
    """Whether *root* holds a store: a base index, or a sqlite database
    its first open converts."""
    return (root / _INDEX_NAME).exists() or (root / _SQLITE_NAME).exists()


def record_files(root: Path) -> List[Path]:
    """The record files in a store's directory: run ``<run_id>`` lives
    at ``<root>/<run_id>.json``, so every ``*.json`` there but the index."""
    return [p for p in root.glob("*.json") if p.name != _INDEX_NAME]


def read_record_payload(path: Path) -> dict:
    """One record file's payload: its record text hashed exactly as
    stored, then parsed and decoded once.

    Raises ``StoreCorruption`` (without quarantining — callers decide)
    on a file that is no current envelope, a checksum mismatch, or a
    text that decodes to no record payload.
    """
    io_faults.check("read", path)
    with open(path, "rb") as fh:
        raw = fh.read()
    head = _RECORD_HEAD_RE.match(raw)
    if head is None or not raw.endswith(b"}"):
        raise StoreCorruption(f"{path.name}: {_misshapen(raw)}")
    body = raw[head.end():-1]
    if hashlib.sha256(body).hexdigest().encode() != head.group(1):
        raise StoreCorruption(f"{path.name}: payload checksum mismatch")
    try:
        payload = codec.decode(json.loads(body))
    except (ValueError, AttributeError, IndexError, KeyError,
            TypeError, StopIteration) as exc:
        raise StoreCorruption(
            f"{path.name}: undecodable record text ({exc!r})") from None
    if not isinstance(payload, dict) or "run_id" not in payload:
        raise StoreCorruption(f"{path.name}: envelope has no record payload")
    return payload


def _misshapen(raw: bytes) -> str:
    """Why *raw* is no current record envelope, as a reader can act on."""
    try:
        data = json.loads(raw)
    except ValueError as exc:
        return f"unparseable record file ({exc})"
    if not isinstance(data, dict) or not isinstance(data.get("record"), dict):
        return "envelope has no record payload"
    return (f"format {data.get('format')!r} envelope is not the format-"
            f"{_RECORD_FORMAT} one this layout writes (run `repro store "
            "rebuild`)")


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


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write-to-temp, fsync, rename — the only way bytes reach the store.

    *chunks* is the file's text in pieces, written as they come, so a
    large file is never one string.  The fsync before the rename is what
    makes the rename a commit point a crash cannot tear: without it a
    power loss can leave the *renamed* file empty.  The
    :mod:`repro.faults.io` seams, consulted once per file, model exactly
    the failures this sequence must survive — a short write (a non-empty
    prefix lands, then ENOSPC), a lost fsync, a failed rename, or a kill
    between any two steps — and the tmp name (the file's own name plus
    ``.tmp``, so no two files share one) never matches the ``*.json``
    globs, so a torn temp file is invisible to every reader.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        action = io_faults.check("write", tmp)
        if action is not None and action[0] == "short":
            text = "".join(chunks)
            fh.write(text[: max(1, int(len(text) * action[1]))])
            fh.flush()
            raise OSError(
                errno.ENOSPC, f"injected short write on {tmp.name}", str(tmp)
            )
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        if io_faults.check("fsync", tmp) is None:  # "lost" skips the sync
            os.fsync(fh.fileno())
    _replace(tmp, path)


def _with_pair_ids(meta: dict, ids: Dict[Tuple[str, str], int]) -> dict:
    """A copy of *meta* as an index file stores it: each
    ``[hypothesis, focus]`` of its summary becomes that pair's index in
    the file's pair table *ids* (extended in place)."""
    summary = dict(meta["summary"])
    for field in _PAIR_FIELDS:
        summary[field] = [ids.setdefault((hyp, focus), len(ids))
                          for hyp, focus in summary[field]]
    return dict(meta, summary=summary)


def _put_metas(ops: List[dict]) -> Iterable[dict]:
    """The metas *ops* put, in order."""
    return (op["meta"] for op in ops if op.get("op") == "put")


def _apply_ops(view: Dict[str, dict], ops: List[dict]) -> None:
    """Replay one segment's index ops onto a run→meta view in place."""
    for op in ops:
        if op.get("op") == "put":
            view[op["run_id"]] = op["meta"]
        elif op.get("op") == "del":
            view.pop(op["run_id"], None)


class FileBackend:
    """File-per-record storage with a segmented index.  See the module
    docstring for the on-disk layout and the crash-safety argument.

    The backend persists two things: **record payloads** (the full
    ``RunRecord.to_dict()``, as its integrity-checked codec text) and
    **index metas** (small dicts carrying ``app_name``/``version``/
    ``seq``/... and a ``"summary"`` for the query fast path).  Every
    index read presents one merged, seq-ordered view however the index
    is sharded.

    Concurrency contract: :meth:`put`, :meth:`delete`, :meth:`rebuild`
    and :meth:`compact` are safe against concurrent writer *processes*
    on the same store, and readers always see a consistent (possibly
    slightly stale) snapshot.  Integrity contract: :meth:`get` verifies
    the payload and quarantines + raises :class:`StoreCorruption` on a
    failed check, never returning half-read data.

    The backend never retries: a transient failure (EIO, EAGAIN) leaves
    it as the raw ``OSError``, and
    :class:`~repro.storage.store.ExperimentStore`'s guarded call is the
    one layer that classifies, retries and counts it.
    """

    #: Short backend identifier.
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
        #: ``(hypothesis, focus)`` -> the one ``[hypothesis, focus]`` list
        #: every cached meta's summary points at (see :meth:`_resolve_pairs`);
        #: started afresh with each base this backend writes.
        self._pairs: Dict[Tuple[str, str], list] = {}
        #: Sidecar scope (``None`` for ``all``, else the app) -> the last
        #: aggregate written for it and its encoded body (see
        #: :meth:`_encode_aggregate`); guarded by the store lock.
        self._bodies: Dict[Optional[str], Tuple[HarvestAggregate, str]] = {}
        #: ``(index token, aggregates, the empty aggregate)``: what
        #: :meth:`harvest_aggregate` answers for that index state.
        self._harvest_memo: Optional[Tuple[Hashable, dict, HarvestAggregate]] = None
        #: Guards the caches and the pair table above against concurrent
        #: same-process readers.  The flock serialises *processes*;
        #: threads sharing one backend (a pooled store under a server)
        #: additionally race on the one-slot caches, the segment LRU's
        #: ``move_to_end``/``popitem`` and a put's in-place advance of the
        #: merged view — reentrant because ``_merged_view`` nests
        #: ``_read_base``/``_read_segment``.
        self._cache_lock = threading.RLock()
        # A current store costs this open one claim-file read.
        if self._read_state().get("format", 0) < _LAYOUT_FORMAT \
                or not self._index_path.exists():
            with self.lock():
                stamped = self._read_state().get("format", 0) >= _LAYOUT_FORMAT
                if not stamped and holds_store(self.root):
                    self._rebuild()
                elif not self._index_path.exists():
                    self._write_base({})
                    if not stamped:
                        self._write_state({
                            "next_seq": 0, "counter": 0, "generation": 0,
                            "format": _LAYOUT_FORMAT})

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def lock(self):
        return _locked(self._lock_path)

    # ------------------------------------------------------------------
    # base index + segments
    # ------------------------------------------------------------------
    def _resolve_pairs(self, name: str, pairs: object,
                       metas: Iterable[dict]) -> None:
        """Decode one index file in place: every pair index in *metas*'
        summaries becomes the shared ``[hypothesis, focus]`` list for that
        entry of the file's table *pairs* (caller holds ``_cache_lock``).
        Raises :class:`StoreCorruption` naming file *name* when the table
        or an index is misshapen."""
        shared = self._pairs
        try:
            table = [shared.setdefault((hyp, focus), [hyp, focus])
                     for hyp, focus in pairs]
            for meta in metas:
                summary = meta["summary"]
                for field in _PAIR_FIELDS:
                    summary[field] = [table[i] for i in summary[field]]
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise StoreCorruption(
                f"{name}: misshapen pair table or pair id ({exc!r}; "
                "run `repro store rebuild`)") from None

    def _read_base(self) -> Tuple[Dict[str, dict], int]:
        """The base-generation run→meta mapping (the cached dict itself:
        do not mutate it) and its generation."""
        with self._cache_lock:
            try:
                sig = _stat_sig(self._index_path)
            except OSError:
                sig = None
            if sig is not None and self._base_cache is not None \
                    and self._base_cache[0] == sig:
                return self._base_cache[2], self._base_cache[1]
            io_faults.check("read", self._index_path)
            with open(self._index_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            found = data.get("format") if isinstance(data, dict) else None
            runs = data.get("runs") if found == _INDEX_FORMAT else None
            if not isinstance(runs, dict):
                raise StoreCorruption(
                    f"{_INDEX_NAME}: format {found!r} is not the "
                    f"format-{_INDEX_FORMAT} index this layout reads "
                    "(run `repro store rebuild`)")
            generation = int(data.get("generation", 0))
            self._resolve_pairs(_INDEX_NAME, data.get("pairs"), runs.values())
            if sig is not None:
                # sig was taken before the read: if a writer replaced the file
                # in between we may cache newer content under the older
                # signature, which is safe — the next stat mismatches.
                self._base_cache = (sig, generation, runs)
            return runs, generation

    def _write_base(self, index: Dict[str, dict], generation: int = 0) -> None:
        """Write *index* as the new base, one run at a time, and cache the
        view it wrote: a shallow copy of *index*, whose metas must come
        decoded as a read decodes them.  They may be shared with readers,
        so nothing here copies or mutates them.

        The text is byte for byte ``json.dumps`` of the whole envelope,
        but only one run's encoding exists at a time."""
        # The pairs in the order the envelope's encoding meets them, each
        # as the one list the metas already share.
        table: Dict[Tuple[str, str], list] = {}
        for meta in index.values():
            summary = meta["summary"]
            for field in _PAIR_FIELDS:
                for pair in summary[field]:
                    table.setdefault(tuple(pair), pair)
        ids = {pair: i for i, pair in enumerate(table)}

        def chunks() -> Iterable[str]:
            yield '{"format": %d, "pairs": %s, "runs": {' % (
                _INDEX_FORMAT, json.dumps(list(ids)))
            sep = ""
            for run_id, meta in index.items():
                yield f"{sep}{json.dumps(run_id)}: "
                yield json.dumps(_with_pair_ids(meta, ids))
                sep = ", "
            yield '}, "generation": %d}' % generation if generation else "}}"

        _atomic_write(self._index_path, chunks())
        with self._cache_lock:
            # Every cached segment was folded into *index*: a fresh pair
            # table forgets the pairs of runs that are gone.
            self._pairs = table
            # Writes happen under the store lock, so no other writer can
            # replace the file between our rename and this stat.
            self._base_cache = (_stat_sig(self._index_path), generation,
                                dict(index))
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
            found = data.get("format") if isinstance(data, dict) else None
            ops = data.get("ops") if found == _SEGMENT_FORMAT else None
            if not isinstance(ops, list):
                raise StoreCorruption(
                    f"{_SEGMENTS_DIR}/{name}: format {found!r} is not the "
                    f"format-{_SEGMENT_FORMAT} segment this layout reads "
                    "(run `repro store rebuild`)")
            self._resolve_pairs(f"{_SEGMENTS_DIR}/{name}", data.get("pairs"),
                                _put_metas(ops))
            self._cache_segment(name, ops)
            return ops

    def _cache_segment(self, name: str, ops: List[dict]) -> None:
        """Cache one sealed segment's decoded ops (caller holds
        ``_cache_lock``)."""
        self._segment_cache[name] = ops
        while len(self._segment_cache) > _SEGMENT_CACHE_SIZE:
            self._segment_cache.popitem(last=False)

    def _drop_segment_cache(self, name: str) -> None:
        """Forget a folded segment's parsed ops (used after unlink)."""
        with self._cache_lock:
            self._segment_cache.pop(name, None)
            self._merged_cache = None

    def read_merged(self) -> Dict[str, dict]:
        """One consistent run→meta view: base + segment ops in order (a
        copy of the mapping; the metas are shared, so do not mutate
        them)."""
        with self._cache_lock:
            return dict(self._merged_view()[1])

    def _merged_view(self) -> Tuple[Hashable, Dict[str, dict]]:
        """The cached merged view and its key (caller holds
        ``_cache_lock``; only :meth:`_advance_view` mutates the view).

        Ordering matters: segments are listed and parsed *before* the
        base is read, so the base is never older than the segment set —
        a compaction racing this read can only make replayed ops
        idempotent, not lose them.
        """
        names = self._segment_names()
        segments = [(name, self._read_segment(name)) for name in names]
        parsed = tuple(name for name, ops in segments if ops is not None)
        try:
            base_sig = _stat_sig(self._index_path)
        except OSError:
            base_sig = None
        key = (base_sig, parsed)
        if self._merged_cache is None or self._merged_cache[0] != key:
            merged = dict(self._read_base()[0])
            for _name, ops in segments:
                _apply_ops(merged, ops or ())
            self._merged_cache = (key, merged)
        return self._merged_cache

    def _advance_view(self, key: Hashable, name: str, pairs: Iterable,
                      ops: List[dict]) -> None:
        """Account for segment *name*, just sealed with the encoded *ops*
        and pair table *pairs* under the store lock: decode and cache its
        ops, and advance the merged view read under *key* in place when
        it is still the cached one.  Otherwise the next read replays, as
        after any other write."""
        with self._cache_lock:
            self._resolve_pairs(f"{_SEGMENTS_DIR}/{name}", pairs,
                                _put_metas(ops))
            self._cache_segment(name, ops)
            cached = self._merged_cache
            if cached is not None and cached[0] == key:
                _apply_ops(cached[1], ops)
                base_sig, names = key
                self._merged_cache = ((base_sig, names + (name,)), cached[1])

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
        _atomic_write(self._state_path, [json.dumps(state)])

    def _append_segment(self, ops: List[dict]) -> None:
        """Claim a segment name and seal *ops* into it (under the lock)."""
        state = self._read_state()
        counter = state["counter"]
        state["counter"] = counter + 1
        self._write_state(state)
        self._seal_segment(counter, ops)

    def _seal_segment(self, counter: int, ops: List[dict],
                      view_key: Optional[Hashable] = None) -> None:
        """Write one sealed, never-again-modified segment file and roll
        the aggregate sidecar over it.  The counter must already be
        claimed in the state file, so a crash here skips a name instead
        of colliding with a later writer.

        A put passes *view_key*, the key of the merged view it read
        under the lock; once the segment is renamed, that view is
        advanced by *ops* (:meth:`_advance_view`).  The sidecar is rolled
        when the pre-seal aggregate proves out and *ops* are pure new
        puts.  Otherwise a put's seal takes the post-seal state's
        aggregates (:meth:`_aggregates`: one fold, once), and the seals
        after it roll again.  A delete passes no key and touches no
        aggregate, so coverage stops at the old ``through`` until the
        next put.
        """
        self._segments_dir.mkdir(exist_ok=True)
        name = f"{counter:012d}.json"
        # pre-seal (we hold the lock); a delete never rolls the sidecar
        current = self._aggregates()[1] if view_key is not None else None
        ids: Dict[Tuple[str, str], int] = {}
        encoded = [dict(op, meta=_with_pair_ids(op["meta"], ids))
                   if op["op"] == "put" else op for op in ops]
        _atomic_write(self._segments_dir / name, [json.dumps({
            "format": _SEGMENT_FORMAT, "pairs": list(ids), "ops": encoded})])
        if current is None:
            return
        self._advance_view(view_key, name, ids, encoded)
        try:
            rolled = self._fold_ops(current, [ops]) or self._aggregates()[1]
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
    def _fold_run(aggs: dict, app: object, summary: dict) -> None:
        """Fold one run into *aggs* in place.  While one app owns every
        run, ``all`` *is* its aggregate (stored once, as ``null``) and is
        folded once; the first run of another scope splits the two."""
        all_agg, by_app = aggs["all"], aggs["by_app"]
        if not by_app and not all_agg.n_runs and isinstance(app, str):
            by_app[app] = all_agg
        if len(by_app) == 1:
            ((owner, agg),) = by_app.items()
            if agg is all_agg and owner != app:
                by_app[owner] = agg.copy()
        all_agg.fold_summary(summary)
        if isinstance(app, str):
            agg = by_app.get(app)
            if agg is None:
                agg = by_app[app] = HarvestAggregate()
            if agg is not all_agg:
                agg.fold_summary(summary)

    @staticmethod
    def _fold_ops(aggs: dict, segments: List[object]) -> Optional[dict]:
        """*aggs* extended by each segment's ops, as private copies (the
        cached aggregates are shared with every reader), or ``None``
        unless every op is a *new, summarized* put: a delete, an
        overwrite (``seq`` at or below the watermark), a missing summary
        or anything misshapen is unprovable."""
        all_agg = aggs["all"].copy()
        by_app = {app: all_agg if agg is aggs["all"] else agg.copy()
                  for app, agg in aggs["by_app"].items()}
        out = {"all": all_agg, "by_app": by_app, "max_seq": aggs["max_seq"]}
        for ops in segments:
            if not isinstance(ops, list):
                return None
            for op in ops:
                meta = op.get("meta") if isinstance(op, dict) else None
                if not isinstance(meta, dict) or op.get("op") != "put":
                    return None
                summary = meta.get("summary")
                seq = meta.get("seq", -1)
                if not isinstance(summary, dict) or seq <= out["max_seq"]:
                    return None
                out["max_seq"] = seq
                FileBackend._fold_run(out, meta.get("app_name"), summary)
        return out

    def _build_aggregates(self, merged: Dict[str, dict]) -> dict:
        """Full-scan aggregates over a merged view, in ``seq`` order
        (every meta a read decodes carries a dict summary)."""
        out = {"all": HarvestAggregate(), "by_app": {}, "max_seq": -1}
        for _run_id, meta in sorted(merged.items(),
                                    key=lambda kv: kv[1].get("seq", 0)):
            self._fold_run(out, meta.get("app_name"), meta["summary"])
            out["max_seq"] = max(out["max_seq"], meta.get("seq", -1))
        return out

    def _write_aggregate_sidecar(self, aggs: dict, through: str = "") -> None:
        """Persist the aggregate sidecar: *aggs* covers the live base
        plus every segment named ``<= through``.

        Must run under the store lock, after the base (and the segment
        named *through*) it describes landed: the sidecar records the
        live base's stat signature, and a reader only trusts it while
        that signature still matches — so a crash landing before this
        write merely leaves the *old* sidecar stale (after a base write:
        refused) or short (after a seal: the tail is folded per op).
        """
        path = self.root / _AGGREGATE_NAME
        all_agg, by_app = aggs["all"], aggs["by_app"]
        parsed = {"base_sig": _stat_sig(self._index_path), "through": through,
                  "max_seq": aggs["max_seq"], "all": all_agg, "by_app": by_app}
        # When every run carries the one app name, ``all`` *is* that
        # app's aggregate: store it once.
        solo = len(by_app) == 1 and all(
            agg.n_runs == all_agg.n_runs for agg in by_app.values())
        # The text ``json.dumps`` gives the sidecar dict, each aggregate's
        # body from _encode_aggregate written as a chunk of its own.
        chunks = [
            '{"format": %d, "base_sig": %s, "through": %s, "max_seq": %s, '
            '"all": ' % (_AGGREGATE_FORMAT,
                         json.dumps(list(parsed["base_sig"])),
                         json.dumps(through), json.dumps(aggs["max_seq"])),
            "null" if solo else self._encode_aggregate(None, all_agg),
            ', "by_app": {']
        for i, app in enumerate(sorted(by_app)):
            chunks += [f"{', ' if i else ''}{json.dumps(app)}: ",
                       self._encode_aggregate(app, by_app[app])]
        chunks.append("}}")
        _atomic_write(path, chunks)
        with self._cache_lock:
            self._sidecar_cache = (_stat_sig(path), parsed)

    def _encode_aggregate(self, scope: Optional[str],
                          agg: HarvestAggregate) -> str:
        """*agg*'s body for sidecar *scope*, reusing the last body written
        for that scope when a save taught it nothing new (caller holds
        the store lock)."""
        body = agg.to_json(self._bodies.get(scope))
        self._bodies[scope] = (agg, body)
        return body

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
        """The persisted aggregates, proved to cover exactly the current
        merged view, or ``None``.

        Starts from the sidecar (or the empty aggregate when the base
        has no runs — a store that lost its sidecar before its first
        compaction still gets the fast path), skips every listed segment
        it covers (named ``<= through``) without opening it, and folds
        the uncovered tail per op.  Anything it cannot prove — see
        :meth:`_fold_ops`; a segment vanishing mid-read — yields
        ``None``, so a stale or torn sidecar is never served.
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

    def _aggregates(self) -> Tuple[Hashable, dict, HarvestAggregate]:
        """The memo entry for the current index state: its token, the
        aggregates covering it, and the one empty aggregate answered for
        an app with no runs.

        The aggregates are the persisted ones when they prove out
        (:meth:`_current_aggregates`) and otherwise one fold of the
        merged view — the same runs either way.  The token is read
        *before* the aggregates, so an entry is never older than its
        key: a write racing the read only leaves an entry no later read
        asks for."""
        with self._cache_lock:
            token = self.index_token()
            memo = self._harvest_memo
            if memo is None or memo[0] != token:
                aggs = self._current_aggregates()
                if aggs is None:
                    aggs = self._build_aggregates(self._merged_view()[1])
                memo = self._harvest_memo = (token, aggs, HarvestAggregate())
            return memo

    def harvest_aggregate(self, app_name: Optional[str] = None
                          ) -> HarvestAggregate:
        """The :class:`~repro.core.extraction.HarvestAggregate` over the
        store's current runs (restricted to *app_name* when given).

        One index state answers one object per *app_name*, so a caller
        may key what it derives by the aggregate itself: the same object
        back means the same runs.  Callers must treat it as immutable
        (copy before folding into it).
        """
        _token, aggs, empty = self._aggregates()
        if app_name is None:
            return aggs["all"]
        return aggs["by_app"].get(app_name, empty)

    def index_token(self) -> Hashable:
        """An identity for the index's *current* contents.

        Any write — put, delete, quarantine, rebuild, compaction, by this
        process or another — changes the token: :meth:`harvest_aggregate`
        memoises its answer for exactly as long as it holds.  It is
        ``(base stat signature, segment names)``: every write seals a
        segment under a never-reused name or rewrites the base, and it
        costs one ``listdir`` plus one ``stat``.
        """
        with self._cache_lock:
            # Same read discipline as _merged_view: segments before base,
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

    def _write_record(self, path: Path, text: str) -> None:
        _atomic_write(path, _envelope(text))

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt file out of the store (index entry included).

        The original name is preserved inside ``quarantine/``; a second
        quarantine of the same name gets a numeric suffix so nothing is
        overwritten.  Must run under the lock.
        """
        qdir = self._quarantine_dir()
        dest = qdir / path.name
        counter = 1
        while dest.exists():
            dest = qdir / f"{path.stem}.{counter}{path.suffix}"
            counter += 1
        _replace(path, dest)
        self._drop_index_entry(path.stem)
        return dest

    def _quarantine_dir(self) -> Path:
        qdir = self.root / _QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        return qdir

    def _drop_index_entry(self, run_id: str) -> None:
        with self._cache_lock:
            if self._merged_view()[1].get(run_id) is None:
                return
        self._append_segment([{"op": "del", "run_id": run_id}])

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def put(self, run_id: str, text: str, meta: dict,
            *, overwrite: bool = False) -> Tuple[int, Hashable]:
        """Persist one record, as its codec text
        (:meth:`RunRecord.encoded`), and its index meta atomically.

        Assigns the record's ``seq`` — monotonic for new runs, preserved
        on overwrite — and returns ``(seq, record_token)`` where the
        token identifies the just-written bytes (taken under the write
        lock, so the frontend can prime its record cache without racing
        a concurrent overwrite).  Raises :class:`StoreError`, before
        writing anything, when *run_id* exists and *overwrite* is false
        or *meta* has no dict ``"summary"``.  *meta* must not carry
        ``seq``; the backend owns its assignment.
        """
        if not isinstance(meta.get("summary"), dict):
            raise StoreError(f"run {run_id!r}: index meta has no summary")
        path = self._record_file(run_id)
        with self.lock():
            # Existence is judged by the *index*, not the payload file: a
            # put that failed transiently (or a process killed mid-put)
            # may leave an orphaned record file behind, and a retry —
            # or a later legitimate save of the same run id — must be
            # able to reclaim it.
            with self._cache_lock:
                view_key, view = self._merged_view()
                prior = view.get(run_id)
            if prior is not None and not overwrite:
                raise StoreError(f"run {run_id!r} already stored")
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
            self._write_record(path, text)
            self._seal_segment(counter, [
                {"op": "put", "run_id": run_id, "meta": dict(meta, seq=seq)}],
                view_key)
            token = _stat_sig(path)
        return seq, token

    def get(self, run_id: str) -> dict:
        """The verified record payload for *run_id*.

        Raises :class:`StoreError` for a missing run and
        :class:`StoreCorruption` (after quarantining the bad bytes) for
        one that fails its integrity check.
        """
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
        """Remove a run's payload and index entry (missing ids are a no-op)."""
        with self.lock():
            # Index first, payload second: a crash in between leaves a
            # harmless unindexed orphan (the post-op view; scrub reports
            # it, rebuild re-adopts it).  The old order left the index
            # pointing at a payload that no longer existed.
            self._drop_index_entry(run_id)
            path = self._record_file(run_id)
            if path.exists():
                path.unlink()

    def record_token(self, run_id: str) -> Hashable:
        """An identity for the run's *current* stored bytes.

        Changes whenever the payload is rewritten (by any process), so
        the frontend's record cache invalidates without coordination.
        Raises :class:`StoreError` for a missing run.
        """
        try:
            return _stat_sig(self._record_file(run_id))
        except OSError:
            raise StoreError(f"no stored run {run_id!r}") from None

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    def query_summaries(
        self,
        app_name: Optional[str] = None,
        version: Optional[str] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, dict]:
        """The one index read: filtered metas, each carrying its
        ``"summary"`` — ``run_ids`` order when given, else seq order
        (oldest first) restricted to *app_name*/*version*.  Missing ids
        map to ``None``.  The metas are shared with the backend's caches:
        read-only."""
        with self._cache_lock:
            merged = self._merged_view()[1]
            if run_ids is not None:
                return {run_id: merged.get(run_id) for run_id in run_ids}
            ordered = sorted(merged.items(), key=lambda kv: kv[1].get("seq", 0))
        out: Dict[str, dict] = {}
        for run_id, meta in ordered:
            if app_name is not None and meta.get("app_name") != app_name:
                continue
            if version is not None and meta.get("version") != version:
                continue
            out[run_id] = meta
        return out

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> RecoveryReport:
        """Reconstruct the index from stored payloads, quarantining any
        that fail their integrity check, and fold everything into a
        fresh fully-summarized base generation."""
        with self.lock():
            return self._rebuild()

    def _adopt_record(self, path: Path) -> RunRecord:
        """One record file as ``rebuild`` re-indexes it.  The files of
        older layouts are read here and only here, and rewritten on the
        spot as current envelopes: a bare record dict (format 1, from
        before checksums) and a format-2 envelope (its payload spelled
        out, its sha256 over the payload's sorted JSON)."""
        try:
            return RunRecord.from_dict(read_record_payload(path))
        except StoreCorruption:
            data = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                raise
            if "format" not in data:
                payload = codec.decode(data)
            elif data["format"] == 2 and isinstance(data.get("record"), dict) \
                    and _legacy_checksum(data["record"]) == data.get("sha256"):
                payload = data["record"]
            else:
                raise
            record = RunRecord.from_dict(payload)
            self._write_record(path, codec.encode(payload))
            return record

    def _convert_sqlite(self) -> Dict[str, dict]:
        """Write the rows of ``store.sqlite3`` out as files (step 1 of
        the conversion in the module docstring) and return each
        converted run's ``{"seq": ...}`` for the rebuild to keep."""
        import sqlite3  # only a store from an older release needs it

        database = self.root / _SQLITE_NAME
        io_faults.check("read", database)
        conn = sqlite3.connect(database)
        try:
            rows = conn.execute(
                "SELECT run_id, seq, payload, sha256 FROM runs ORDER BY seq"
            ).fetchall()
            held = conn.execute(
                "SELECT rowid, run_id, quarantined_at, payload, sha256, reason"
                " FROM quarantine ORDER BY rowid").fetchall()
        finally:
            conn.close()
        seqs: Dict[str, dict] = {}
        rejected = []
        for run_id, seq, text, sha in rows:
            try:
                payload = json.loads(text)
                encoded = codec.encode(payload) \
                    if _legacy_checksum(payload) == sha else None
            except (AttributeError, TypeError, ValueError):
                encoded = None
            if encoded is not None:
                self._write_record(self._record_file(run_id), encoded)
                seqs[run_id] = {"seq": seq}
            else:
                rejected.append((f"{run_id}.sqlite.json", {
                    "run_id": run_id, "seq": seq, "payload": text,
                    "sha256": sha, "reason": "payload checksum mismatch"}))
        for rowid, run_id, at, text, sha, reason in held:
            rejected.append((f"{run_id}.sqlite-{rowid}.json", {
                "run_id": run_id, "quarantined_at": at, "payload": text,
                "sha256": sha, "reason": reason}))
        for name, row in rejected:
            _atomic_write(self._quarantine_dir() / name, [json.dumps(row)])
        return seqs

    def _rebuild(self) -> RecoveryReport:
        """:meth:`rebuild` under the held store lock: the one converter
        from any older layout, and the recovery from any wreckage."""
        report = RecoveryReport()
        # The view whose seq values survive, read leniently: the bare
        # format-2 base mapping and every older base and segment format
        # are read here and nowhere else (only ``seq`` is kept, so pairs
        # need no decoding), and a missing or misshapen base or segment
        # starts a fresh lineage.  Any other I/O error aborts: a
        # transient one must not lose seqs.
        try:
            io_faults.check("read", self._index_path)
            base = json.loads(self._index_path.read_text(encoding="utf-8"))
            bare = "format" not in base
            old = dict(base if bare else base["runs"])
            generation = 0 if bare else int(base.get("generation", 0))
            for name in self._segment_names():
                path = self._segments_dir / name
                io_faults.check("read", path)
                data = json.loads(path.read_text(encoding="utf-8"))
                _apply_ops(old, data.get("ops", [])
                           if isinstance(data, dict) else [])
        except (FileNotFoundError, ValueError, TypeError, AttributeError,
                KeyError):
            old, generation = {}, 0
        if (self.root / _SQLITE_NAME).exists():
            old.update(self._convert_sqlite())
        paths = sorted(record_files(self.root), key=lambda p: p.stat().st_mtime)
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
        # Decoded as a read decodes them before they enter the caches:
        # one shared list per [hypothesis, focus] pair.
        shared: Dict[Tuple[str, str], list] = {}
        for meta in index.values():
            summary = meta["summary"]
            for field in _PAIR_FIELDS:
                summary[field] = [shared.setdefault(tuple(pair), pair)
                                  for pair in summary[field]]
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
        for suffix in ("", "-wal", "-shm"):
            database = self.root / (_SQLITE_NAME + suffix)
            if database.exists():
                _replace(database,
                         self.root / f"{_SQLITE_NAME}.converted{suffix}")
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
        """Fold accumulated index segments into a new base generation.
        Crash-safe: a writer killed at any point mid-compaction leaves
        the store readable."""
        with self.lock():
            names = self._segment_names()
            with self._cache_lock:
                merged = self._merged_view()[1]
            # Aggregates for the new base, taken before the base rename
            # invalidates the old sidecar.
            aggregates = self._aggregates()[1]
            _base, generation = self._read_base()
            generation += 1
            # Crash-safety: each step leaves a readable store.  After the
            # base rename, replaying any not-yet-deleted segment over it
            # is idempotent; before it, the old base + segments still
            # merge to the same view.  The sidecar rides the same
            # protocol: it is only trusted while it names the live base's
            # signature, so dying between any two steps leaves it merely
            # stale — refused, never wrong directives.
            self._write_base(merged, generation)
            self._write_aggregate_sidecar(aggregates)
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
        """The store's current shape (sizes, generation, backend name)."""
        with self._cache_lock:
            runs = len(self._merged_view()[1])
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
        # aggregated_runs counts runs the persisted sidecar covers *right
        # now*: 0 means the next harvest folds the merged view — after a
        # trailing delete, until the next save's seal rebuilds the sidecar.
        current = self._current_aggregates()
        return StoreInfo(
            root=self.root,
            backend=self.name,
            runs=runs,
            index_format=_INDEX_FORMAT,
            generation=generation,
            segments=len(names),
            index_bytes=index_bytes,
            aggregated_runs=current["all"].n_runs if current is not None else 0,
            aggregated_segments=sum(
                1 for name in names if side and name <= side["through"]),
        )
