"""Multi-tenant query scheduler and result cache: fairness, identity,
invalidation.

Three claim families from ISSUE 9:

* the deficit-weighted round-robin dispatcher is deterministic,
  per-tenant FIFO, weighted, and starvation-free under adversarial
  priorities;
* the result cache changes timing, never answers: cache on/off runs of
  the oracle workloads are byte-identical, and a recurring identity is
  served without executing;
* cached results invalidate on exactly the statistics-update path that
  invalidates cached plans.
"""

import json
import threading

import pytest

from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.service import (
    QueryRequest,
    QueryService,
    ResultCache,
    dispatch_order,
)
from repro.workloads.mixed import mixed_batch, mixed_tables
from repro.workloads.queries import q3
from repro.workloads.weblogs import weblog_engagement
from tests.serving import run_requests

SCALE = 0.02
EVENTS = 1200


def small_tables():
    return mixed_tables(SCALE, seed=2014, weblog_events=EVENTS)


def rows_bytes(rows):
    return json.dumps(rows, sort_keys=True, default=str).encode()


def entries_for(spec: dict[str, int], length: int):
    """Interleaved queue: ``length`` requests per tenant at the given
    priorities, submitted round-robin."""
    queue = []
    ticket = 0
    for _position in range(length):
        for tenant, priority in spec.items():
            queue.append((ticket, tenant, priority))
            ticket += 1
    return queue


class TestDispatchOrder:
    def test_single_tenant_is_fifo(self):
        entries = [(t, "a", 1) for t in range(20)]
        assert dispatch_order(entries) == list(range(20))

    def test_every_ticket_dispatched_exactly_once(self):
        entries = entries_for({"a": 1, "b": 7, "c": 3}, 11)
        order = dispatch_order(entries)
        assert sorted(order) == sorted(t for t, _, _ in entries)

    def test_deterministic_given_submission_order(self):
        entries = entries_for({"a": 2, "b": 5, "c": 1}, 9)
        assert dispatch_order(entries) == dispatch_order(entries)

    def test_per_tenant_fifo_is_preserved(self):
        entries = entries_for({"a": 4, "b": 1, "c": 2}, 13)
        order = dispatch_order(entries)
        position = {ticket: index for index, ticket in enumerate(order)}
        for tenant in ("a", "b", "c"):
            tickets = [t for t, owner, _ in entries if owner == tenant]
            dispatched = sorted(tickets, key=lambda t: position[t])
            assert dispatched == tickets, \
                f"tenant {tenant} dispatched out of submission order"

    def test_no_starvation_under_adversarial_priorities(self):
        """A priority-1 tenant behind a priority-100 flood still gets at
        least one dispatch per round: its first query cannot sit behind
        more than one full burst of the flooding tenant."""
        entries = [(t, "flood", 100) for t in range(50)]
        entries += [(50 + t, "meek", 1) for t in range(50)]
        order = dispatch_order(entries)
        first_meek = order.index(50)
        # Round 1: the flood tenant bursts its whole 50-query backlog at
        # priority 100, then the meek tenant must dispatch.
        assert first_meek <= 50
        # And the meek tenant's backlog drains in order afterwards.
        assert [t for t in order if t >= 50] == list(range(50, 100))

    def test_weighted_share_is_proportional(self):
        """Priorities 3:1 with deep backlogs alternate in exact 3:1
        bursts -- the deficit accrues quantum x priority per visit."""
        entries = [(t, "heavy" if t % 2 == 0 else "light",
                    3 if t % 2 == 0 else 1)
                   for t in range(24)]
        order = dispatch_order(entries)
        owners = ["heavy" if t % 2 == 0 else "light" for t in order]
        assert owners[:8] == ["heavy"] * 3 + ["light"] + \
            ["heavy"] * 3 + ["light"]

    def test_equal_priorities_round_robin(self):
        entries = entries_for({"a": 1, "b": 1, "c": 1}, 4)
        order = dispatch_order(entries)
        owners = [entries[t][1] for t in order]
        assert owners == ["a", "b", "c"] * 4

    def test_priority_floor_is_one(self):
        """Zero or negative priorities are clamped, not starved."""
        entries = [(0, "a", 0), (1, "b", -5), (2, "c", 1)]
        order = dispatch_order(entries)
        assert sorted(order) == [0, 1, 2]

    def test_emptied_tenant_forfeits_deficit(self):
        """A tenant with one high-priority query cannot bank the unused
        credit and burst ahead in a later call (anti-hoarding)."""
        deficits = {}
        dispatch_order([(0, "a", 100)], deficits=deficits)
        assert deficits["a"] == 0.0
        # A later round with fresh work starts from zero credit.
        order = dispatch_order(
            [(1, "a", 1), (2, "b", 1), (3, "a", 1)], deficits=deficits)
        assert order == [1, 2, 3]


class TestSchedulerQueue:
    def test_submit_drain_round_trip(self):
        service = QueryService(small_tables())
        scheduler = service.scheduler
        tickets = [scheduler.submit(QueryRequest.from_workload(q3())),
                   scheduler.submit(
                       QueryRequest.from_workload(weblog_engagement()))]
        assert scheduler.queue_depth() == 2
        outcomes = scheduler.drain(tickets)
        assert scheduler.queue_depth() == 0
        assert [o.error for o in outcomes] == [None, None]
        assert [o.index for o in outcomes] == [0, 1]

    def test_scoped_drain_leaves_other_submissions_queued(self):
        service = QueryService(small_tables())
        scheduler = service.scheduler
        mine = scheduler.submit(QueryRequest.from_workload(q3()))
        other = scheduler.submit(QueryRequest.from_workload(q3()))
        outcomes = scheduler.drain([mine])
        assert len(outcomes) == 1 and outcomes[0].ok
        assert scheduler.queue_depth() == 1
        leftovers = scheduler.drain()
        assert len(leftovers) == 1 and leftovers[0].ok
        assert leftovers[0].index == other

    def test_outcomes_return_in_submission_order_not_dispatch_order(self):
        """Tenant weights reorder dispatch; the caller still sees its
        submission order, with per-outcome tenant attribution."""
        service = QueryService(small_tables())
        requests = [QueryRequest.from_workload(
            q3(), tenant=f"t{i % 3}", priority=3 - i % 3)
            for i in range(6)]
        outcomes = run_requests(service, requests)
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.tenant for o in outcomes] == \
            [f"t{i % 3}" for i in range(6)]
        assert len({rows_bytes(o.rows) for o in outcomes}) == 1

    def test_run_sustained_drains_everything_in_order(self):
        service = QueryService(small_tables(), result_cache=True)
        requests = [QueryRequest.from_workload(
            q3(), tenant=f"t{i % 3}") for i in range(9)]
        outcomes = service.scheduler.run_sustained(requests, qps=200)
        assert [o.index for o in outcomes] == sorted(o.index
                                                     for o in outcomes)
        assert len(outcomes) == 9
        assert all(o.ok for o in outcomes)
        assert all(o.latency_seconds >= o.wait_seconds >= 0.0
                   for o in outcomes)

    def test_the_front_door_starts_no_thread(self, monkeypatch):
        """Paced three-tenant traffic and a submit/drain batch both run
        on the calling thread: they complete with ``Thread.start``
        made to raise."""
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        service = QueryService(small_tables(), result_cache=True)
        sustained = service.scheduler.run_sustained(
            [QueryRequest.from_workload(
                weblog_engagement() if i % 2 else q3(), tenant=f"t{i % 3}")
             for i in range(9)],
            qps=200)
        batch = run_requests(service, [
            QueryRequest.from_workload(q3(), tenant=f"t{i}")
            for i in range(3)])
        assert [o.error for o in sustained + batch] == [None] * 12
        assert all(o.result_cache_hit for o in batch)

    def test_queue_depth_and_wait_metrics_are_recorded(self):
        metrics = MetricsRegistry()
        service = QueryService(small_tables(), metrics=metrics)
        run_requests(service, [
            QueryRequest.from_workload(q3(), tenant="acme"),
            QueryRequest.from_workload(q3(), tenant="umbrella"),
        ])
        summary = metrics.summary()
        assert summary["observations"]["service.queue_depth"]["count"] > 0
        assert summary["counters"]["service.tenant_waits"] == 2
        assert "service.tenant_wait_s.acme" in summary["observations"]
        assert "service.tenant_wait_s.umbrella" in summary["observations"]

    def test_tenant_and_ticket_reach_the_tracer(self):
        sink = MemorySink()
        service = QueryService(small_tables(), tracer=Tracer(sink))
        run_requests(service, [QueryRequest.from_workload(
            q3(), tenant="acme", priority=2)])
        submits = [r for r in sink.records
                   if r["kind"] == "event"
                   and r["name"] == "service.submit"]
        admits = [r for r in sink.records
                  if r["kind"] == "event"
                  and r["name"] == "service.admit"]
        assert submits[0]["attrs"]["tenant"] == "acme"
        assert submits[0]["attrs"]["priority"] == 2
        assert isinstance(submits[0]["attrs"]["ticket"], int)
        assert admits[0]["attrs"]["tenant"] == "acme"
        assert admits[0]["attrs"]["index"] == 0


class TestResultCacheDifferential:
    """Cache on/off byte-identity across the oracle workloads -- the
    existing differential standard extended to the result cache."""

    @pytest.fixture(scope="class")
    def differential(self):
        requests, udfs = mixed_batch()
        baseline_service = QueryService(small_tables(), udfs=udfs)
        baseline = run_requests(baseline_service, requests)

        requests2, udfs2 = mixed_batch()
        cached_service = QueryService(small_tables(), udfs=udfs2,
                                      result_cache=True)
        first = run_requests(cached_service, requests2)
        requests3, _ = mixed_batch()
        second = run_requests(cached_service, requests3)
        return baseline, first, second, cached_service

    def test_cache_on_off_byte_identical(self, differential):
        baseline, first, second, _ = differential
        assert [o.error for o in baseline] == [None] * 7
        assert [rows_bytes(o.rows) for o in first] == \
            [rows_bytes(o.rows) for o in baseline]
        assert [rows_bytes(o.rows) for o in second] == \
            [rows_bytes(o.rows) for o in baseline]

    def test_recurrences_hit_without_executing(self, differential):
        _, first, second, service = differential
        assert all(o.result_cache_hit for o in second)
        assert all(o.execution is None for o in second)
        assert service.result_cache.summary()["hits"] >= 7
        assert not first[0].result_cache_hit

    def test_copy_on_read_protects_the_cache(self):
        service = QueryService(small_tables(), result_cache=True)
        run_requests(service, [QueryRequest.from_workload(q3())])
        (hit,) = run_requests(service, [QueryRequest.from_workload(q3())])
        assert hit.result_cache_hit
        hit.rows[0]["poisoned"] = True
        (again,) = run_requests(service, [QueryRequest.from_workload(q3())])
        assert again.result_cache_hit
        assert "poisoned" not in again.rows[0]


    def test_a_supplied_empty_cache_is_kept(self):
        """Regression: ``result_cache or None`` dropped a caller's fresh
        instance, because an empty cache has ``len() == 0``."""
        cache = ResultCache(max_entries=8)
        service = QueryService(small_tables(), result_cache=cache)
        assert service.result_cache is cache
        run_requests(service, [QueryRequest.from_workload(q3())])
        (repeat,) = run_requests(service, [QueryRequest.from_workload(q3())])
        assert repeat.result_cache_hit
        assert cache.summary()["hits"] == 1

    def test_sql_stage_is_parsed_once_per_request(self, monkeypatch):
        """Admission parses a SQL string once and hands the spec to both
        isolation and the result-cache identity; a SQL string and its
        repeat still share one cache entry."""
        from repro.core.dyno import Dyno

        parses = []
        original = Dyno.parse

        def counting_parse(self, sql, name="query"):
            parses.append(sql)
            return original(self, sql, name)

        monkeypatch.setattr(Dyno, "parse", counting_parse)
        sql = ("SELECT n.n_name AS n FROM nation n, region r "
               "WHERE n.n_regionkey = r.r_regionkey")
        service = QueryService(small_tables(), result_cache=True)
        (miss,) = run_requests(service, [QueryRequest.single("a", sql)])
        (hit,) = run_requests(service, [QueryRequest.single("b", sql)])
        assert miss.error is None and not miss.result_cache_hit
        assert hit.result_cache_hit
        assert rows_bytes(hit.rows) == rows_bytes(miss.rows)
        assert parses == [sql, sql]


class TestResultCacheInvalidation:
    def contributing_signature(self, service):
        names = [s for s in service.metastore
                 if s.startswith("table:customer")]
        assert names
        return names[0]

    def test_results_invalidate_exactly_when_plans_do(self):
        """One statistics put must evict both the dependent plans and
        the dependent results -- same listener path, same trigger."""
        service = QueryService(small_tables(), result_cache=True)
        run_requests(service, [QueryRequest.from_workload(q3())])
        assert len(service.result_cache) > 0
        assert len(service.plan_cache) > 0

        # Non-base signatures (intermediate scratch) touch neither cache.
        signature = self.contributing_signature(service)
        service.metastore.put("intermediate:scratch.out",
                              service.metastore.get(signature))
        assert service.result_cache.summary()["invalidations"] == 0
        assert service.plan_cache.summary()["invalidations"] == 0

        # A contributing base-leaf update evicts from both.
        service.metastore.put(signature,
                              service.metastore.get(signature))
        assert service.result_cache.summary()["invalidations"] > 0
        assert service.plan_cache.summary()["invalidations"] > 0
        assert len(service.result_cache) == 0

    def test_stale_identity_misses_and_recomputes_correctly(self):
        service = QueryService(small_tables(), result_cache=True)
        (first,) = run_requests(service, [QueryRequest.from_workload(q3())])
        signature = self.contributing_signature(service)
        service.metastore.put(signature,
                              service.metastore.get(signature))
        (second,) = run_requests(service, [QueryRequest.from_workload(q3())])
        assert not second.result_cache_hit
        assert rows_bytes(second.rows) == rows_bytes(first.rows)


class TestResultCacheUnit:
    def test_lru_capacity_per_shard(self):
        cache = ResultCache(max_entries=4)
        for key in "abcdef":
            cache.store(key, [{"k": key}], frozenset({"table:t"}))
        assert len(cache) == 4
        assert cache.lookup("a") is None
        assert cache.lookup("f") == [{"k": "f"}]

    def test_summary_aggregates_shards(self):
        cache = ResultCache(max_entries=128)
        for index in range(16):
            cache.store(f"key-{index}", [], frozenset())
        summary = cache.summary()
        assert summary["entries"] == 16
        assert summary["shards"] == 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
