"""The one sharded LRU store under both serving caches.

:class:`~repro.service.plan_cache.PlanCache` and
:class:`~repro.service.result_cache.ResultCache` differ in what they key
on and what they hand back; how entries are held is the same and lives
here, once:

* **shards** -- the store is split into segments, each with its own lock,
  its own ``OrderedDict`` and its own share of ``max_entries``; the locks
  keep a store that callers share between threads consistent. Caches
  below ``2 * MIN_SHARD_ENTRIES`` entries stay one shard, which keeps
  exact global-LRU semantics where they are observable; at serving sizes
  the per-shard capacity split is the standard trade (a skewed key
  distribution may evict slightly early), and shard placement decides
  eviction order, hence hit counts;
* **routing** -- ``crc32`` of the caller's route string, not ``hash()``:
  ``str.__hash__`` is salted per process and shard placement (hence
  eviction order, hence hit ratios) must be reproducible across runs;
* **true LRU per shard** -- a hit and a re-store of an existing key both
  refresh the entry's recency, so under sustained traffic the hottest
  entries survive and the cold tail is what falls out;
* **one invalidation contract** -- every entry carries the base-leaf
  (``table:``) statistics signatures it was computed from;
  :meth:`ShardedLRU.invalidate` is the metastore listener both caches
  subscribe, and drops exactly the entries that name the signature.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["MAX_SHARDS", "MIN_SHARD_ENTRIES", "ShardedLRU"]

#: most lock segments a store is split into.
MAX_SHARDS = 4
#: a store gets one shard per this many entries (up to ``MAX_SHARDS``).
MIN_SHARD_ENTRIES = 32

V = TypeVar("V")


class _Shard:
    """One lock + one LRU segment."""

    __slots__ = ("lock", "entries", "capacity",
                 "hits", "misses", "invalidations")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        #: key -> (value, contributing signatures), oldest first.
        self.entries: OrderedDict[Hashable, tuple] = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0


class ShardedLRU(Generic[V]):
    """Thread-safe key -> value store: sharded, LRU-evicting, and
    invalidated by contributing statistics signature.

    ``route`` (on :meth:`get` / :meth:`put`) is the string that picks the
    shard. It need not be the key: the plan cache routes by block key
    alone so every fingerprint of one block shares a shard.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("a cache needs max_entries >= 1")
        self.max_entries = max_entries
        shard_count = max(1, min(MAX_SHARDS,
                                 max_entries // MIN_SHARD_ENTRIES))
        capacity = -(-max_entries // shard_count)  # ceil division
        self._shards = [_Shard(capacity) for _ in range(shard_count)]

    def _shard(self, route: str) -> _Shard:
        return self._shards[zlib.crc32(route.encode("utf-8"))
                            % len(self._shards)]

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.entries)
        return total

    def get(self, key: Hashable, route: str) -> V | None:
        """The value stored under ``key`` (now most recent), or None;
        counts a hit or a miss either way."""
        shard = self._shard(route)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            return entry[0]

    def put(self, key: Hashable, route: str, value: V,
            contributing: frozenset[str]) -> None:
        """Store ``value`` as the shard's most recent entry, evicting
        its least recent ones first to make room: a shard never holds
        more than its capacity, not even mid-``put``."""
        shard = self._shard(route)
        with shard.lock:
            if key not in shard.entries:
                while len(shard.entries) >= shard.capacity:
                    shard.entries.popitem(last=False)
            shard.entries[key] = (value, contributing)
            shard.entries.move_to_end(key)

    def invalidate(self, signature: str, stats: object = None) -> None:
        """Metastore listener: ``signature``'s statistics were
        (re)collected, or dropped (``stats is None`` -- a CDC delta).

        The payload is irrelevant: any change to a contributing
        signature's state voids what was computed under the old one, so
        every entry naming it goes. Only base-leaf signatures matter --
        ``intermediate:`` ones are per-query scratch that no entry's
        contributing set ever holds.
        """
        if not signature.startswith("table:"):
            return
        for shard in self._shards:
            with shard.lock:
                stale = [key for key, (_, contributing)
                         in shard.entries.items()
                         if signature in contributing]
                for key in stale:
                    del shard.entries[key]
                shard.invalidations += len(stale)

    def summary(self) -> dict[str, int]:
        """Entry count and hit/miss/invalidation totals over all shards."""
        totals = {"entries": 0, "hits": 0, "misses": 0, "invalidations": 0}
        for shard in self._shards:
            with shard.lock:
                totals["entries"] += len(shard.entries)
                totals["hits"] += shard.hits
                totals["misses"] += shard.misses
                totals["invalidations"] += shard.invalidations
        totals["shards"] = len(self._shards)
        return totals
