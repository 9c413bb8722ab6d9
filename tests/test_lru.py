"""ShardedLRU: the storage contract both serving caches stand on.

Every case runs against a single-shard store (small caches: exact global
LRU) and a four-shard one (serving sizes). LRU cases pin one route so
all their keys share a shard; its capacity is then ``max_entries``
divided by the shard count.
"""

import json
import os
import subprocess
import sys
import threading
import zlib

import pytest

import repro
from repro.service.lru import MAX_SHARDS, MIN_SHARD_ENTRIES, ShardedLRU
from repro.stats.metastore import StatisticsMetastore

T = frozenset({"table:t|"})

#: (max_entries, shards it must be split into).
SIZES = [(8, 1), (MAX_SHARDS * MIN_SHARD_ENTRIES, MAX_SHARDS)]


@pytest.fixture(params=SIZES, ids=["one-shard", "four-shards"])
def sized(request):
    max_entries, shards = request.param
    lru = ShardedLRU(max_entries)
    assert lru.summary()["shards"] == shards
    return lru, max_entries // shards


def fill(lru, count, route="r"):
    for index in range(count):
        lru.put(index, route, f"v{index}", T)


class TestEviction:
    def test_capacity_eviction_is_lru(self, sized):
        lru, capacity = sized
        fill(lru, capacity + 2)
        assert len(lru) == capacity
        assert lru.get(0, "r") is None and lru.get(1, "r") is None
        assert lru.get(2, "r") == "v2"
        assert lru.get(capacity + 1, "r") == f"v{capacity + 1}"

    def test_a_hit_refreshes_recency(self, sized):
        lru, capacity = sized
        fill(lru, capacity)
        assert lru.get(0, "r") == "v0"  # oldest becomes newest
        lru.put("new", "r", "v", T)
        assert lru.get(0, "r") == "v0"
        assert lru.get(1, "r") is None  # the next-oldest went instead

    def test_a_restore_refreshes_recency_and_replaces(self, sized):
        lru, capacity = sized
        fill(lru, capacity)
        lru.put(0, "r", "again", T)
        lru.put("new", "r", "v", T)
        assert len(lru) == capacity
        assert lru.get(0, "r") == "again"
        assert lru.get(1, "r") is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ShardedLRU(0)


class TestInvalidation:
    @pytest.mark.parametrize("stats", [object(), None],
                             ids=["put", "stats-none"])
    def test_drops_exactly_the_dependent_entries(self, sized, stats):
        lru, _ = sized
        lru.put("a", "a", 1, frozenset({"table:a|", "table:b|"}))
        lru.put("b", "b", 2, frozenset({"table:b|"}))
        lru.put("c", "c", 3, frozenset({"table:c|"}))
        lru.put("none", "none", 4, frozenset())
        lru.invalidate("table:b|", stats)
        assert lru.summary()["invalidations"] == 2
        assert lru.get("a", "a") is None and lru.get("b", "b") is None
        assert lru.get("c", "c") == 3 and lru.get("none", "none") == 4
        # Nothing left to drop: the count does not move.
        lru.invalidate("table:b|", stats)
        assert lru.summary()["invalidations"] == 2

    def test_ignores_non_table_signatures(self, sized):
        lru, _ = sized
        lru.put("a", "a", 1, frozenset({"intermediate:q.out", "table:a|"}))
        lru.invalidate("intermediate:q.out", None)
        assert lru.summary()["invalidations"] == 0
        assert lru.get("a", "a") == 1


class TestRoutingAndSummary:
    def test_summary_aggregates_shards(self):
        lru = ShardedLRU(MAX_SHARDS * MIN_SHARD_ENTRIES)
        routes = [f"route-{index}" for index in range(40)]
        assert len({zlib.crc32(r.encode()) % MAX_SHARDS
                    for r in routes}) == MAX_SHARDS
        for route in routes:
            lru.put(route, route, route, T)
            assert lru.get(route, route) == route
            assert lru.get(route + "?", route) is None
        lru.invalidate("table:t|")
        assert lru.summary() == {"entries": 0, "hits": 40, "misses": 40,
                                 "invalidations": 40,
                                 "shards": MAX_SHARDS}

    def test_routing_ignores_the_process_hash_salt(self):
        """Which keys share a shard decides who evicts whom; it must not
        move with ``PYTHONHASHSEED`` (``str.__hash__`` does)."""
        script = (
            "from repro.service.lru import ShardedLRU\n"
            "lru = ShardedLRU(128)\n"
            "for i in range(300):\n"
            "    lru.put(f'k{i}', f'k{i}', i, frozenset())\n"
            "print([i for i in range(300)"
            " if lru.get(f'k{i}', f'k{i}') is not None])\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        survivors = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=source_root)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  check=True, timeout=60)
            survivors.add(done.stdout)
        assert len(survivors) == 1
        assert 0 < len(json.loads(survivors.pop())) <= 128


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
            lru.put(key, key, step, frozenset({f"table:t{step % 7}|"}))
            metastore.put(f"table:t{step % 11}|", object())
        assert len(seen) == 3 * lru.max_entries
        assert all(length == entries <= lru.max_entries
                   for length, entries in seen)
        assert max(length for length, _ in seen) > 0


class TestConcurrency:
    def test_hammered_store_keeps_its_invariants(self, sized):
        lru, _ = sized
        threads, rounds = 8, 400
        barrier = threading.Barrier(threads)
        failures = []

        def hammer(worker):
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    key = f"k{(worker * 7 + step) % 50}"
                    lru.put(key, key, step,
                            frozenset({f"table:t{step % 5}|"}))
                    lru.get(key, key)
                    if step % 20 == 0:
                        lru.invalidate(f"table:t{step % 5}|")
                    if len(lru) > lru.max_entries:
                        failures.append(len(lru))
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=hammer, args=(w,))
                       for w in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert failures == []
        summary = lru.summary()
        assert summary["hits"] + summary["misses"] == threads * rounds
        assert summary["entries"] == len(lru) <= lru.max_entries
