"""The one LRU store under both serving caches.

:class:`~repro.service.plan_cache.PlanCache` and
:class:`~repro.service.result_cache.ResultCache` differ in what they key
on and what they hand back; how entries are held is the same and lives
here, once:

* **one store** -- a single ``OrderedDict`` of at most ``max_entries``
  entries, oldest first. A hit and a re-store of an existing key both
  refresh the entry's recency, so under sustained traffic the hottest
  entries survive and the cold tail is what falls out;
* **one invalidation contract** -- every entry carries the base-leaf
  (``table:``) statistics signatures it was computed from;
  :meth:`LRU.invalidate` is the metastore listener both caches
  subscribe, and drops exactly the entries that name the signature.

Like everything in :mod:`repro`, the store is not thread-safe: one
driver thread owns it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["LRU"]

V = TypeVar("V")


class LRU(Generic[V]):
    """Key -> value store, LRU-evicting and invalidated by contributing
    statistics signature."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("a cache needs max_entries >= 1")
        self.max_entries = max_entries
        #: key -> (value, contributing signatures), oldest first.
        self._entries: OrderedDict[Hashable, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> V | None:
        """The value stored under ``key`` (now most recent), or None;
        counts a hit or a miss either way."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: V,
            contributing: frozenset[str]) -> None:
        """Store ``value`` as the most recent entry, evicting the least
        recent ones first to make room: the store never holds more than
        ``max_entries``, not even mid-``put``."""
        if key not in self._entries:
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
        self._entries[key] = (value, contributing)
        self._entries.move_to_end(key)

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
        stale = [key for key, (_, contributing) in self._entries.items()
                 if signature in contributing]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    def summary(self) -> dict[str, int]:
        """Entry count and hit/miss/invalidation totals."""
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "invalidations": self.invalidations}
