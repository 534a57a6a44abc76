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
* a bounded harvest cache: one entry per store directory, application
  and extraction options, holding the directive set and the
  :class:`~repro.core.extraction.HarvestAggregate` it was finalized
  from.

One rule says a cached set is current.  A harvest reads the evidence
once (:meth:`~repro.storage.store.ExperimentStore.harvest_evidence`,
which answers one object per index state, memoised against that
state) and compares it with the entry's:

* the identical aggregate object is a **hit** — the index has not
  moved since the set was finalized;
* an aggregate that
  :meth:`~repro.core.extraction.HarvestAggregate.same_evidence` the
  entry's is a **reuse** (``harvest_reuses``, counted among the
  misses): the rules are unions and maxima, so they saturate, and
  after a few runs of one program a save usually teaches the history
  nothing new — the miss hands back the cached
  :class:`~repro.core.directives.DirectiveSet` object itself, so
  ``begin()`` reuses the set's names and indexes too;
* anything else is finalized afresh.

The entry is keyed by content, so no write — by this process or
another, before, during or after the extraction — can make it answer
for evidence it was not finalized from: a set cached from evidence a
racing write has since replaced only misses on the next read.

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
        # (store root, app, options) -> (the evidence, the directives
        # finalized from it)
        self._harvests: "OrderedDict[tuple, Tuple[HarvestAggregate, DirectiveSet]]" = \
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
        result is cached against the evidence it came from: the same
        aggregate object is a hit, equal evidence a reuse, anything
        else a finalize (see the module docstring).  Raises
        ``RuntimeError`` once the pool is closed.
        """
        opened = self.get(store)
        key = (str(opened.root), app, tuple(sorted(options.items())))
        evidence = opened.harvest_evidence(app)
        with self._lock:
            if self._closed:
                raise RuntimeError("StorePool is closed")
            entry = self._harvests.get(key)
            if entry is not None and entry[0] is evidence:
                self._harvests.move_to_end(key)
                self.harvest_hits += 1
                return entry[1]
            self.harvest_misses += 1

        if entry is not None and evidence.same_evidence(entry[0]):
            directives = entry[1]
            with self._lock:
                self.harvest_reuses += 1
        else:
            directives = evidence.finalize(**options)
        with self._lock:
            if not self._closed:
                self._harvests[key] = (evidence, directives)
                self._harvests.move_to_end(key)
                while len(self._harvests) > _HARVEST_CACHE_SIZE:
                    self._harvests.popitem(last=False)
        return directives

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
