"""StorePool: hot stores and harvest results shared across requests.

Opening an :class:`~repro.storage.store.ExperimentStore` parses the
index (every run's denormalized summary); harvesting extracts a
directive set from all of those summaries.  Both are pure functions of
the store's on-disk index state.  The pool keeps both warm (a facade
call with ``pool=None`` takes a pool of one for the call, which is the
one-shot: it recomputes both per call):

* an LRU of opened stores keyed by resolved path (a directory holds
  one store, opened with resilience armed at the defaults) — eviction
  and :meth:`close` call the store's ``close()``, which drops its
  record cache;
* a bounded harvest cache: one entry per owning store, application and
  extraction options, valid for the backend's **index state token**
  (:meth:`~repro.storage.store.ExperimentStore.index_token`) it was
  computed at.  Any writer — this process or another — changes the
  token, so invalidation needs no coordination, exactly like the record
  cache's per-record tokens; and a token never recurs once the store
  has been written, so the entry for a newer token replaces the older
  one instead of sitting beside it.

A miss asks :meth:`~repro.storage.store.ExperimentStore.harvest_evidence`
for the evidence (one read of the backend's rolling aggregate, which
every save extends) and finalizes it — unless the entry it replaces
was finalized from evidence that
:meth:`~repro.core.extraction.HarvestAggregate.same_evidence` the fresh
one.  The rules are unions and maxima, so they saturate: after a few
runs of one program a save usually teaches the history nothing new,
and the miss then hands back the cached
:class:`~repro.core.directives.DirectiveSet` object itself, re-keyed to
the new token (``harvest_reuses`` counts these), so ``begin()`` reuses
the set's names and indexes too.  The pool re-reads the index token
after extraction and only caches when it still matches the token the
computation started from — a concurrent writer mid-extraction would
otherwise poison the cache with directives for an index state the
token no longer names.

Thread-safe: the server's worker threads and any direct callers share
one pool under a single lock; the cached values themselves (stores,
directive sets and the evidence they came from) are treated as
immutable shared objects, the same contract the record cache already
imposes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..core.directives import DirectiveSet
from ..core.extraction import HarvestAggregate
from ..storage.store import ExperimentStore

__all__ = ["StorePool"]

StoreLike = Union[ExperimentStore, str, Path]

#: Harvest-cache entries kept before LRU eviction: one per (store, app,
#: options) asked for.  An entry is a whole directive set (1 400
#: directives for one Poisson run's history), so the bound is on
#: distinct askers, never on writes.
_HARVEST_CACHE_SIZE = 32


class StorePool:
    """A bounded pool of opened stores plus a harvest cache.

    ``get(path)`` opens a store once and returns the same instance for
    every later request of the same directory; an
    :class:`ExperimentStore` argument passes through untouched (the
    caller owns its lifecycle, the pool never closes it).  ``max_stores``
    bounds how many distinct stores stay open; the least recently used
    one is closed on overflow.
    """

    def __init__(self, max_stores: int = 8) -> None:
        if max_stores < 1:
            raise ValueError(f"max_stores must be >= 1, got {max_stores}")
        self.max_stores = max_stores
        self._lock = threading.RLock()
        self._stores: "OrderedDict[str, ExperimentStore]" = OrderedDict()
        # (id(store), app, options) -> (store, index token, directives,
        # the evidence they were finalized from)
        self._harvests: "OrderedDict[tuple, Tuple[ExperimentStore, object, DirectiveSet, HarvestAggregate]]" = \
            OrderedDict()
        self._closed = False
        self.store_hits = 0
        self.store_misses = 0
        self.evictions = 0
        self.harvest_hits = 0
        self.harvest_misses = 0
        self.harvest_reuses = 0

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------
    def get(self, store: StoreLike) -> ExperimentStore:
        """An open store for *store*, hot across calls.

        Path arguments are resolved (symlinks and relative prefixes
        collapse onto one pool entry) and opened at most once.
        Already-open stores pass through unchanged.
        """
        if isinstance(store, ExperimentStore):
            return store
        key = str(Path(store).resolve())
        with self._lock:
            if self._closed:
                raise RuntimeError("StorePool is closed")
            cached = self._stores.get(key)
            if cached is not None:
                self._stores.move_to_end(key)
                self.store_hits += 1
                return cached
            self.store_misses += 1
            opened = ExperimentStore(store)
            self._stores[key] = opened
            while len(self._stores) > self.max_stores:
                _k, evicted = self._stores.popitem(last=False)
                self.evictions += 1
                self._drop_harvests_for(evicted)
                evicted.close()
            return opened

    # ------------------------------------------------------------------
    # harvests
    # ------------------------------------------------------------------
    def harvest(
        self,
        store: StoreLike,
        *,
        app: Optional[str] = None,
        **options,
    ) -> DirectiveSet:
        """Directives extracted from *store*'s history, cached.

        Semantically identical to
        ``store.harvest_evidence(app).finalize(**options)`` (directives
        extracted from every summary in the store's index), but the
        result is cached against the store's index state token:
        the first diagnosis after a write reads the backend's rolling
        aggregate and finalizes it only when its evidence differs from
        what the cached set came from; every one until the next write
        is a hit.  Raises ``RuntimeError`` once the pool is closed.
        """
        opened = self.get(store)
        token = opened.index_token()
        key = (id(opened), app, tuple(sorted(options.items())))
        with self._lock:
            if self._closed:
                raise RuntimeError("StorePool is closed")
            entry = self._harvests.get(key)
            # Identity-check the owning store: id() alone could collide
            # after an evicted store is garbage collected.
            if entry is not None and entry[0] is not opened:
                entry = None
            if entry is not None and entry[1] == token:
                self._harvests.move_to_end(key)
                self.harvest_hits += 1
                return entry[2]
            self.harvest_misses += 1

        evidence = opened.harvest_evidence(app)
        if entry is not None and evidence.same_evidence(entry[3]):
            directives = entry[2]
            with self._lock:
                self.harvest_reuses += 1
        else:
            directives = evidence.finalize(**options)

        # Cache only when the index still looks exactly as it did when
        # extraction started; a write that landed mid-extraction would
        # otherwise pin these directives to a token they don't describe.
        if opened.index_token() == token:
            with self._lock:
                if self._closed:
                    return directives
                self._harvests[key] = (opened, token, directives, evidence)
                self._harvests.move_to_end(key)
                while len(self._harvests) > _HARVEST_CACHE_SIZE:
                    self._harvests.popitem(last=False)
        return directives

    def _drop_harvests_for(self, store: ExperimentStore) -> None:
        stale = [k for k, entry in self._harvests.items() if entry[0] is store]
        for k in stale:
            del self._harvests[k]

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled store.  Idempotent; the pool is unusable
        afterwards (pass-through stores were never owned and stay open)."""
        with self._lock:
            stores = list(self._stores.values())
            self._stores.clear()
            self._harvests.clear()
            self._closed = True
        for store in stores:
            store.close()

    def stats(self) -> Dict[str, int]:
        """Counters in the flat numeric shape the metrics exports render."""
        with self._lock:
            return {
                "stores_open": len(self._stores),
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "store_evictions": self.evictions,
                "harvest_entries": len(self._harvests),
                "harvest_hits": self.harvest_hits,
                "harvest_misses": self.harvest_misses,
                "harvest_reuses": self.harvest_reuses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._stores)

    def __enter__(self) -> "StorePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
