"""Multi-execution experiment store: the frontend over the one backend.

The paper's conclusions call historical diagnosis "part of an ongoing
research effort in which we are designing and developing an infrastructure
for storing, naming, and querying multi-execution performance data".  This
module is that infrastructure's *frontend*: :class:`ExperimentStore`
exposes the save/load/query surface the rest of the system uses, while
actual persistence lives in :class:`~repro.storage.file_backend.FileBackend`,
the one store layout there is: one JSON file per record plus a **sharded
index** of append-only segments with compaction, so a save is O(1)
instead of O(store).

A store from an older release is converted once, when it is opened
(:mod:`repro.storage.file_backend` lists what it converts); every read
after that is a plain read of the current layout.

What the frontend adds on top of the backend: the one guard every
backend operation goes through (:class:`_Guard`: transient-failure
retry plus a circuit breaker, built from one
:class:`~repro.resilience.policy.ResiliencePolicy`), the bounded
in-process LRU of parsed :class:`RunRecord` objects (keyed by the
backend's per-record token, so a cross-process overwrite invalidates
entries without coordination; a saved record is held only weakly),
batch loading, and auto-compaction
policy.  Records obtained from the cache are shared objects: treat
loaded (and saved) records as immutable.
"""

from __future__ import annotations

import random
import threading
import weakref
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..core.extraction import HarvestAggregate
from ..resilience.policy import ResiliencePolicy, is_transient
from .api import (
    CompactionStats,
    RecoveryReport,
    StoreCorruption,
    StoreError,
    StoreInfo,
    StoreUnavailable,
)
from .file_backend import FileBackend
from .records import RunRecord
from .summary import meta_for_record, summarize_record

__all__ = [
    "ExperimentStore",
    "StoreError",
    "StoreCorruption",
    "StoreUnavailable",
    "RecoveryReport",
    "summarize_record",
]

_DEFAULT_CACHE_SIZE = 64
#: Segments a save may leave unfolded before it triggers a compaction.
_DEFAULT_AUTO_COMPACT = 64

T = TypeVar("T")


class _RecordCache:
    """Bounded LRU of parsed records keyed by run id + backend token.

    An entry is *strong* (a record :meth:`ExperimentStore.load` parsed:
    the parse is what it saves) or *weak* (a record the caller saved:
    served while the caller still holds it, and never kept alive by the
    cache alone).  A weak entry whose record is gone is a miss.  Both
    kinds count towards *maxsize*.

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

        self._items: "OrderedDict[str, Tuple[Hashable, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, run_id: str, token: Hashable) -> Optional[RunRecord]:
        with self._lock:
            entry = self._items.get(run_id)
            record = entry[1] if entry is not None and entry[0] == token \
                else None
            if type(record) is weakref.ref:
                record = record()
            if record is None:
                self.misses += 1
                return None
            self._items.move_to_end(run_id)
            self.hits += 1
            return record

    def put(self, run_id: str, token: Hashable, record: RunRecord,
            *, weak: bool = False) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._items[run_id] = (token, weakref.ref(record) if weak
                                   else record)
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


#: Breaker states, coded as ``resilience_metrics()["breaker_state"]``.
_CLOSED, _OPEN, _HALF_OPEN = 0, 1, 2


class _Guard:
    """A store's availability layer, built from its
    :class:`ResiliencePolicy`: the circuit breaker's state, the seeded
    jitter RNG and the counters :meth:`ExperimentStore.resilience_metrics`
    reports.  :meth:`call` runs one backend operation under it.

    Breaker state and counters change under one lock; the backend call
    and the backoff sleep run outside it.  The guard holds nothing of its
    store, so the store's edge to it closes no cycle.
    """

    def __init__(self, policy: ResiliencePolicy, name: str) -> None:
        self.policy = policy
        self.name = name
        self._rng = random.Random(policy.seed)
        self._lock = threading.Lock()
        self._state = _CLOSED
        self._failures = 0  # consecutive exhausted operations
        self._opened_at = 0.0
        self._probing = False  # the one half-open probe is in flight
        self._ops = self._retries = self._unavailable = 0
        self._opened = self._rejected = 0
        self._probe_successes = self._probe_failures = 0

    def _state_now(self) -> int:
        # caller holds the lock; an open breaker past its reset time
        # turns half-open here
        if self._state == _OPEN and (self.policy.clock() - self._opened_at
                                     >= self.policy.breaker_reset_s):
            self._state = _HALF_OPEN
            self._probing = False
        return self._state

    def call(self, fn: Callable[..., T], args: tuple, kwargs: dict) -> T:
        """Gate, then attempts with backoff under the deadline, then the
        breaker's bookkeeping; see :meth:`ExperimentStore._call`."""
        policy = self.policy
        with self._lock:
            self._ops += 1
            state = self._state_now()
            if state == _HALF_OPEN and not self._probing:
                self._probing = True
            elif state != _CLOSED:
                self._rejected += 1
                self._unavailable += 1
                retry_in = 0.0 if state == _HALF_OPEN else (
                    policy.breaker_reset_s
                    - (policy.clock() - self._opened_at))
                raise StoreUnavailable(
                    f"circuit breaker for {self.name!r} is open "
                    f"(retry in {max(retry_in, 0.0):.2f}s)")
        start = policy.clock()
        attempt = 1
        while True:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not is_transient(exc):
                    self._settle(True)
                    raise
                if not self._backoff(attempt, start):
                    self._settle(False)
                    raise StoreUnavailable(
                        f"store backend {self.name!r}: {self.name} "
                        f"{fn.__name__} still failing after {attempt} "
                        f"attempt(s) (last: {type(exc).__name__}: {exc})"
                    ) from exc
                attempt += 1
                continue
            self._settle(True)
            return result

    def _backoff(self, attempt: int, start: float) -> bool:
        """Sleep before the retry that follows failed *attempt* and count
        it; ``False`` when the attempts or the deadline are spent."""
        policy = self.policy
        if attempt >= policy.attempts:
            return False
        delay = min(policy.base_delay * policy.multiplier ** (attempt - 1),
                    policy.max_delay)
        if policy.jitter > 0:
            delay *= 1.0 - policy.jitter * self._rng.random()
        if policy.deadline_s is not None and (
                policy.clock() - start + delay > policy.deadline_s):
            return False
        with self._lock:
            self._retries += 1
        policy.sleep(delay)
        return True

    def _settle(self, answered: bool) -> None:
        """Breaker bookkeeping for one finished operation: *answered*
        when the store gave a result or a domain error, else exhausted."""
        with self._lock:
            if answered:
                if self._state == _HALF_OPEN:
                    self._probe_successes += 1
                    self._probing = False
                    self._state = _CLOSED
                self._failures = 0
                return
            self._unavailable += 1
            if self._state == _HALF_OPEN:
                self._probe_failures += 1
                self._probing = False
            else:
                self._failures += 1
                if self._state != _CLOSED or (
                        self._failures < self.policy.breaker_threshold):
                    return
            self._state = _OPEN
            self._opened_at = self.policy.clock()
            self._opened += 1
            self._failures = 0

    def metrics(self) -> Dict[str, float]:
        with self._lock:
            return {
                "ops_total": float(self._ops),
                "retries_total": float(self._retries),
                "unavailable_total": float(self._unavailable),
                "breaker_state": float(self._state_now()),
                "breaker_opened_total": float(self._opened),
                "breaker_rejected_total": float(self._rejected),
                "breaker_probe_successes": float(self._probe_successes),
                "breaker_probe_failures": float(self._probe_failures),
                "breaker_consecutive_failures": float(self._failures),
            }


class ExperimentStore:
    """A store of :class:`RunRecord` objects in the directory *root*
    (created, with an empty store, when it holds none).

    Safe for concurrent use from multiple processes: the backend
    serialises its writers with a flock, so simultaneous writers never
    lose each other's updates.

    All configuration is keyword-only: ``cache_size`` bounds the parsed
    record LRU, and ``auto_compact`` is the segment count past which a
    save folds the index into a new base generation (``0``/``None``
    disables).

    ``resilience`` controls the availability layer every backend call
    goes through (:meth:`_call` — transient-failure retry plus a circuit
    breaker, the only retry layer the store has): ``None``/``True`` arm
    it with default tunables, a
    :class:`~repro.resilience.policy.ResiliencePolicy` arms it with that
    policy, and ``False`` calls the backend directly, whose transient
    errors (``OSError``) then surface as they are.  Armed-but-idle it
    costs one guarded call per operation; its counters are exposed via
    :meth:`resilience_metrics`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        cache_size: int = _DEFAULT_CACHE_SIZE,
        auto_compact: Optional[int] = _DEFAULT_AUTO_COMPACT,
        resilience: Union[None, bool, ResiliencePolicy] = None,
    ):
        self._backend = FileBackend(root)
        self.root = self._backend.root
        self._cache = _RecordCache(cache_size)
        self._auto_compact = auto_compact or 0
        #: ``None`` when resilience is off: :meth:`_call` then goes
        #: straight to the backend.
        self._guard: Optional[_Guard] = None
        if resilience is not False:
            policy = resilience if isinstance(resilience, ResiliencePolicy) \
                else ResiliencePolicy()
            self._guard = _Guard(policy, self._backend.name)

    @property
    def backend(self) -> FileBackend:
        """The :class:`~repro.storage.file_backend.FileBackend` this store
        runs on, for callers that poke backend internals; calls made on
        it directly skip the retry layer."""
        return self._backend

    def close(self) -> None:
        """Release the store's in-process resources: the parsed-record
        LRU.  The object must not be used afterwards.  Idempotent — a
        pooled store may be evicted and closed more than once.
        """
        self._cache.clear()

    # ------------------------------------------------------------------
    # the guarded call
    # ------------------------------------------------------------------
    def _call(self, fn: Callable[..., T], *args, **kwargs) -> T:
        """``fn(*args, **kwargs)`` — one backend operation — guarded.

        * transient failures (EIO, EAGAIN) reach this call raw and the
          whole operation is retried with the policy's seeded backoff
          under its deadline, every retry counted;
        * an exhausted operation counts a breaker failure and raises
          :class:`StoreUnavailable` chained to the last ``OSError``;
          while the breaker is open, calls fail in microseconds without
          touching the backend;
        * domain errors — :class:`StoreError`, :class:`StoreCorruption` —
          pass through on the first strike and count as breaker
          successes (the store answered), and
          :class:`~repro.faults.io.SimulatedCrash` passes through
          untouched (nothing recovers from a kill).

        Retrying a whole operation is safe because the backend keeps its
        index effect atomic: a ``put`` that raised a transient error has
        not indexed the run (the segment rename is the commit point).
        """
        guard = self._guard
        if guard is None:
            return fn(*args, **kwargs)
        return guard.call(fn, args, kwargs)

    def resilience_metrics(self) -> Dict[str, float]:
        """Retry/breaker counters when resilience is armed, else ``{}``.

        Flat numeric values in the shape
        :func:`repro.obs.metrics.metrics_to_prometheus` renders.
        """
        return {} if self._guard is None else self._guard.metrics()

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
        the load cache as a *weak* entry: while the caller holds the
        record, :meth:`load` returns that same object (a campaign's
        post-save harvest never re-parses what it just wrote), and once
        the caller drops it the cache does not keep it alive — the next
        load parses it again.  Treat a record as immutable once saved.
        """
        meta = meta_for_record(record)  # outside the lock: pure CPU
        _seq, token = self._call(
            self._backend.put,
            record.run_id, record.encoded(), meta, overwrite=overwrite,
        )
        self._cache.put(record.run_id, token, record, weak=True)
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
        token = self._call(self._backend.record_token, run_id)
        cached = self._cache.get(run_id, token)
        if cached is not None:
            return cached
        try:
            payload = self._call(self._backend.get, run_id)
        except StoreCorruption:
            self._cache.evict(run_id)
            raise
        record = RunRecord.from_dict(payload)
        self._cache.put(run_id, token, record)
        return record

    def delete(self, run_id: str) -> None:
        self._cache.evict(run_id)
        self._call(self._backend.delete, run_id)

    def __contains__(self, run_id: str) -> bool:
        """Whether the index holds *run_id*, as ``save`` judges existence:
        an unindexed orphan payload is absent until ``rebuild`` adopts it."""
        return self._call(self._backend.query_summaries,
                          run_ids=[run_id])[run_id] is not None

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
        The metas are shared with the backend's index caches (each
        ``[hypothesis, focus]`` pair is one list across runs): treat
        them as read-only.
        """
        items = self._call(self._backend.query_summaries,
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

        The same code converts a store from an older release when it is
        first opened; rebuilding a segmented store folds
        everything into one fresh base generation.
        """
        self._cache.clear()
        return self._call(self._backend.rebuild)

    def compact(self) -> CompactionStats:
        """Fold accumulated index segments into a new base generation.

        Crash-safe (a writer killed mid-compaction leaves the store
        readable).  Saves trigger this automatically past the
        ``auto_compact`` threshold.
        """
        return self._call(self._backend.compact)

    def info(self) -> StoreInfo:
        """The store's identity and shape (``repro store stats``)."""
        return self._call(self._backend.info)

    # ------------------------------------------------------------------
    # harvest fast path
    # ------------------------------------------------------------------
    def harvest_evidence(self, app_name: Optional[str] = None) -> HarvestAggregate:
        """The :class:`~repro.core.extraction.HarvestAggregate` over the
        store's current runs (restricted to *app_name* when given).

        Served from the backend's persisted aggregate when it can prove
        one covers exactly the current index — one sidecar read plus a
        per-op fold of any segments sealed since it was last extended,
        instead of O(runs) — and otherwise computed by the full summary
        scan, so the result is the same either way.  Treat the returned
        aggregate as immutable: :meth:`HarvestAggregate.copy` before folding more
        runs into it.
        """
        agg = self._call(self._backend.harvest_aggregate, app_name)
        if agg is None:
            metas = self.summaries(app_name=app_name)
            agg = HarvestAggregate.of_summaries(
                meta["summary"] for meta in metas.values())
        return agg

    def index_token(self) -> Hashable:
        """An identity for the index's current contents — changes on any
        write by any process, so a harvest cached against it is valid
        exactly as long as the token is."""
        return self._call(self._backend.index_token)

    def _maybe_auto_compact(self) -> None:
        if self._auto_compact \
                and self._backend.segment_count() >= self._auto_compact:
            self.compact()

