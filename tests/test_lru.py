"""LRU: the storage contract both serving caches stand on.

Every case runs against a small store (8 entries) and one the size of
the serving caches (128 entries); both are one ``OrderedDict`` whose
capacity is ``max_entries``.
"""

import pytest

from repro.service.lru import LRU
from repro.stats.metastore import StatisticsMetastore

T = frozenset({"table:t|"})


@pytest.fixture(params=[8, 128], ids=["cap8", "cap128"])
def sized(request):
    return LRU(request.param), request.param


def fill(lru, count):
    for index in range(count):
        lru.put(index, f"v{index}", T)


class TestEviction:
    def test_capacity_eviction_is_lru(self, sized):
        lru, capacity = sized
        fill(lru, capacity + 2)
        assert len(lru) == capacity
        assert lru.get(0) is None and lru.get(1) is None
        assert lru.get(2) == "v2"
        assert lru.get(capacity + 1) == f"v{capacity + 1}"

    def test_a_hit_refreshes_recency(self, sized):
        lru, capacity = sized
        fill(lru, capacity)
        assert lru.get(0) == "v0"  # oldest becomes newest
        lru.put("new", "v", T)
        assert lru.get(0) == "v0"
        assert lru.get(1) is None  # the next-oldest went instead

    def test_a_restore_refreshes_recency_and_replaces(self, sized):
        lru, capacity = sized
        fill(lru, capacity)
        lru.put(0, "again", T)
        lru.put("new", "v", T)
        assert len(lru) == capacity
        assert lru.get(0) == "again"
        assert lru.get(1) is None

    @pytest.mark.parametrize("max_entries", [1, 7, 64, 130, 256])
    def test_never_holds_more_than_max_entries(self, max_entries):
        """Overfilled with hits and re-stores mixed in, the store holds
        exactly ``max_entries`` (regression: per-segment capacities
        rounded up let a store of 130 hold 132)."""
        lru = LRU(max_entries)
        for step in range(1000):
            lru.put(f"k{step}", step, T)
            lru.get(f"k{step // 2}")
            if step % 3 == 0:
                lru.put(f"k{step // 3}", -step, T)
            assert len(lru) <= max_entries
        assert len(lru) == lru.summary()["entries"] == max_entries

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRU(0)


class TestInvalidation:
    @pytest.mark.parametrize("stats", [object(), None],
                             ids=["put", "stats-none"])
    def test_drops_exactly_the_dependent_entries(self, sized, stats):
        lru, _ = sized
        lru.put("a", 1, frozenset({"table:a|", "table:b|"}))
        lru.put("b", 2, frozenset({"table:b|"}))
        lru.put("c", 3, frozenset({"table:c|"}))
        lru.put("none", 4, frozenset())
        lru.invalidate("table:b|", stats)
        assert lru.summary()["invalidations"] == 2
        assert lru.get("a") is None and lru.get("b") is None
        assert lru.get("c") == 3 and lru.get("none") == 4
        # Nothing left to drop: the count does not move.
        lru.invalidate("table:b|", stats)
        assert lru.summary()["invalidations"] == 2

    def test_ignores_non_table_signatures(self, sized):
        lru, _ = sized
        lru.put("a", 1, frozenset({"intermediate:q.out", "table:a|"}))
        lru.invalidate("intermediate:q.out", None)
        assert lru.summary()["invalidations"] == 0
        assert lru.get("a") == 1


class TestSummary:
    def test_counts_every_probe_and_invalidation(self):
        lru = LRU(128)
        for index in range(40):
            key = f"key-{index}"
            lru.put(key, key, T)
            assert lru.get(key) == key
            assert lru.get(key + "?") is None
        lru.invalidate("table:t|")
        assert lru.summary() == {"entries": 0, "hits": 40, "misses": 40,
                                 "invalidations": 40}


class TestSingleDriver:
    def test_length_stays_within_capacity_inside_a_subscriber(self, sized):
        """The serving path on one thread: stores interleave with
        metastore puts, whose subscribers -- the store's invalidation
        listener, then a reader -- run mid-sequence. The reader never
        sees more than ``max_entries`` and agrees with ``summary()``."""
        lru, _ = sized
        metastore = StatisticsMetastore()
        seen = []
        metastore.subscribe(lru.invalidate)
        metastore.subscribe(
            lambda signature, stats: seen.append(
                (len(lru), lru.summary()["entries"])))
        for step in range(3 * lru.max_entries):
            key = f"k{step}"
            lru.put(key, step, frozenset({f"table:t{step % 7}|"}))
            metastore.put(f"table:t{step % 11}|", object())
        assert len(seen) == 3 * lru.max_entries
        assert all(length == entries <= lru.max_entries
                   for length, entries in seen)
        assert max(length for length, _ in seen) > 0
