"""PlanCache regressions: LRU eviction, missing-leaf fingerprints,
bounded per-block hit attribution, and correction-token salting.

Three of these are failing-before/passing-after regressions:

* eviction used to be FIFO (plain dict insertion order, no refresh on
  hit or overwrite), so the *hottest* entry was the first evicted once
  the cache filled;
* ``statistics_fingerprint`` indexed ``leaf_stats[signature]`` directly
  and raised ``KeyError`` when a contributing leaf had no statistics
  (possible under concurrent invalidation), killing the driver thread
  instead of missing;
* ``hits_by_block`` grew without bound -- block names are per-query
  prefixed in the service, so a long-lived service leaked one entry per
  query forever.
"""

from dataclasses import replace

import pytest

from repro.core.dyno import Dyno
from repro.data.tpch import generate_tpch
from repro.service.plan_cache import (
    MAX_BLOCK_STATS,
    PlanCache,
    statistics_fingerprint,
)
from repro.stats.statistics import TableStats


@pytest.fixture(scope="module")
def dyno():
    return Dyno(generate_tpch(0.01, seed=2014).tables)


def make_block(dyno, region: str, name: str = "query"):
    """A two-leaf join block; ``region`` varies the canonical key."""
    sql = (
        "SELECT n.n_name AS n FROM nation n, region r "
        "WHERE n.n_regionkey = r.r_regionkey "
        f"AND r.r_name = '{region}'"
    )
    return dyno.prepare(sql, name=name).block


def stats_for(block):
    return {leaf.signature(): TableStats(100.0, 1000.0)
            for leaf in block.leaves}


class TestLruEviction:
    def test_hit_refreshes_recency(self, dyno):
        """Regression: FIFO evicted the oldest *stored* entry even when it
        was the most recently *used* one."""
        cache = PlanCache(max_entries=2)
        block_a = make_block(dyno, "ASIA")
        block_b = make_block(dyno, "EUROPE")
        block_c = make_block(dyno, "AFRICA")
        cache.store(block_a, stats_for(block_a), plan="plan-a", cost=1.0)
        cache.store(block_b, stats_for(block_b), plan="plan-b", cost=1.0)
        # Touch A: it is now the most recently used entry.
        assert cache.lookup(block_a, stats_for(block_a)) is not None
        # C evicts the LRU entry -- B, not A.
        cache.store(block_c, stats_for(block_c), plan="plan-c", cost=1.0)
        assert cache.lookup(block_a, stats_for(block_a)) is not None
        assert cache.lookup(block_b, stats_for(block_b)) is None
        assert cache.lookup(block_c, stats_for(block_c)) is not None

    def test_overwrite_refreshes_recency(self, dyno):
        cache = PlanCache(max_entries=2)
        block_a = make_block(dyno, "ASIA")
        block_b = make_block(dyno, "EUROPE")
        block_c = make_block(dyno, "AFRICA")
        cache.store(block_a, stats_for(block_a), plan="plan-a", cost=1.0)
        cache.store(block_b, stats_for(block_b), plan="plan-b", cost=1.0)
        # Re-storing A (same key) must move it to the MRU end.
        cache.store(block_a, stats_for(block_a), plan="plan-a2", cost=2.0)
        cache.store(block_c, stats_for(block_c), plan="plan-c", cost=1.0)
        refreshed = cache.lookup(block_a, stats_for(block_a))
        assert refreshed is not None and refreshed.plan == "plan-a2"
        assert cache.lookup(block_b, stats_for(block_b)) is None

    def test_capacity_is_enforced(self, dyno):
        cache = PlanCache(max_entries=3)
        regions = ["ASIA", "EUROPE", "AFRICA", "AMERICA", "MIDDLE EAST"]
        for region in regions:
            block = make_block(dyno, region)
            cache.store(block, stats_for(block), plan=region, cost=1.0)
        assert len(cache) == 3


class TestMissingLeafStatistics:
    def test_fingerprint_degrades_to_none(self, dyno):
        """Regression: a contributing leaf without statistics raised
        KeyError instead of reporting 'no fingerprint'."""
        block = make_block(dyno, "ASIA")
        incomplete = stats_for(block)
        incomplete.pop(next(iter(incomplete)))
        assert statistics_fingerprint(block, incomplete) is None
        assert statistics_fingerprint(block, {}) is None

    def test_lookup_becomes_a_miss_not_a_crash(self, dyno):
        cache = PlanCache()
        block = make_block(dyno, "ASIA")
        cache.store(block, stats_for(block), plan="plan", cost=1.0)
        assert cache.lookup(block, {}) is None
        assert cache.summary()["misses"] == 1
        # The complete mapping still hits: the entry was not disturbed.
        assert cache.lookup(block, stats_for(block)) is not None

    def test_store_without_statistics_is_a_noop(self, dyno):
        cache = PlanCache()
        block = make_block(dyno, "ASIA")
        cache.store(block, {}, plan="plan", cost=1.0)
        assert len(cache) == 0


class TestHitsByBlockBound:
    def test_many_prefixed_queries_stay_bounded(self, dyno):
        """Regression: per-query prefixed block names accumulated in
        ``hits_by_block`` forever (a slow leak in a long-lived service)."""
        cache = PlanCache()
        block = make_block(dyno, "ASIA")
        stats = stats_for(block)
        cache.store(block, stats, plan="plan", cost=1.0)
        for query in range(2000):
            prefixed = replace(block, name=f"b0.q{query:04d}.Q")
            assert cache.lookup(prefixed, stats) is not None
        assert len(cache.hits_by_block) <= MAX_BLOCK_STATS
        # Attribution still works for the *recent* (in-flight) names.
        assert cache.hits_for_prefix("b0.q1999.") == 1
        assert cache.summary()["hits"] == 2000


class TestCorrectionSalt:
    def test_salt_partitions_the_fingerprint(self, dyno):
        block = make_block(dyno, "ASIA")
        stats = stats_for(block)
        cache = PlanCache()
        cache.store(block, stats, plan="uncorrected", cost=1.0)
        # A corrected optimizer state must not see the uncorrected plan.
        assert cache.lookup(block, stats, salt="abc123") is None
        cache.store(block, stats, plan="corrected", cost=0.5, salt="abc123")
        hit = cache.lookup(block, stats, salt="abc123")
        assert hit is not None and hit.plan == "corrected"
        hit = cache.lookup(block, stats)
        assert hit is not None and hit.plan == "uncorrected"

    def test_empty_salt_matches_unsalted(self, dyno):
        block = make_block(dyno, "ASIA")
        stats = stats_for(block)
        assert statistics_fingerprint(block, stats, "") == \
            statistics_fingerprint(block, stats)
