"""QueryService: batches, statistics reuse, plan caching, faults.

The acceptance scenario of the serving layer: a mixed TPC-H + weblogs
batch with repeated queries must produce byte-identical results to
standalone runs, with tracer-verifiable evidence that repeats ran zero
pilot jobs and hit the plan cache -- also with three tenants under an
armed fault plan.
"""

import json

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.dyno import Dyno
from repro.errors import PlanError
from repro.obs import MemorySink, Tracer
from repro.service import PlanCache, QueryRequest, QueryService
from repro.workloads.mixed import (
    MIXED_SEQUENCE,
    mixed_batch,
    mixed_tables,
    mixed_tenant_batch,
)
from repro.workloads.queries import q3
from repro.workloads.weblogs import weblog_engagement
from tests.oracle import canonical_rows, plan_named
from tests.serving import run_requests

SCALE = 0.02
EVENTS = 1200


def small_tables():
    return mixed_tables(SCALE, seed=2014, weblog_events=EVENTS)


def rows_bytes(rows):
    """Canonical byte encoding for 'byte-identical' comparisons."""
    return json.dumps(rows, sort_keys=True, default=str).encode()


def events(sink, name):
    return [r for r in sink.records
            if r["kind"] == "event" and r["name"] == name]


class TestBatchCorrectness:
    @pytest.fixture(scope="class")
    def batch_outcomes(self):
        requests, udfs = mixed_batch()
        service = QueryService(small_tables(), udfs=udfs)
        return run_requests(service, requests)

    def test_all_queries_succeed(self, batch_outcomes):
        assert [o.error for o in batch_outcomes] == [None] * 7

    def test_outcomes_in_submission_order(self, batch_outcomes):
        assert [o.index for o in batch_outcomes] == list(range(7))
        assert [o.name for o in batch_outcomes] == \
            [factory().name for factory in MIXED_SEQUENCE]

    def test_byte_identical_to_standalone_runs(self, batch_outcomes):
        """Each batch member matches a fresh serial single-query Dyno."""
        for outcome, factory in zip(batch_outcomes, MIXED_SEQUENCE):
            workload = factory()
            dyno = Dyno(small_tables(), udfs=workload.udfs)
            standalone = dyno.execute_multi(workload.stages)
            assert rows_bytes(outcome.rows) == rows_bytes(standalone.rows), \
                f"{outcome.name} diverged from its standalone run"

    def test_repeats_run_zero_pilots(self, batch_outcomes):
        # Indices 2, 3 and 6 repeat earlier queries (see MIXED_SEQUENCE).
        for index in (2, 3, 6):
            assert batch_outcomes[index].pilot_jobs == 0
            assert batch_outcomes[index].pilots_skipped > 0
        for index in (0, 1):
            assert batch_outcomes[index].pilot_jobs > 0
            assert batch_outcomes[index].pilots_skipped == 0

    def test_repeats_hit_the_plan_cache(self, batch_outcomes):
        for index in (2, 3, 6):
            assert batch_outcomes[index].plan_cache_hits > 0
        assert batch_outcomes[0].plan_cache_hits == 0


class TestDeterminism:
    def run_mixed(self):
        requests, udfs = mixed_batch()
        service = QueryService(small_tables(), udfs=udfs)
        return run_requests(service, requests)

    def test_repeated_batches_are_reproducible(self):
        first = self.run_mixed()
        second = self.run_mixed()
        assert [rows_bytes(o.rows) for o in first] == \
            [rows_bytes(o.rows) for o in second]
        assert [(o.pilot_jobs, o.pilots_skipped, o.plan_cache_hits)
                for o in first] == \
            [(o.pilot_jobs, o.pilots_skipped, o.plan_cache_hits)
             for o in second]


class TestTracerEvidence:
    def test_pilot_skipped_and_plan_cache_events(self):
        sink = MemorySink()
        requests, udfs = mixed_batch()
        service = QueryService(small_tables(), udfs=udfs,
                               tracer=Tracer(sink))
        outcomes = run_requests(service, requests)

        admits = events(sink, "service.admit")
        assert len(admits) == 7
        # Cold queries run their pilots; repeats find every signature
        # in the metastore and run none.
        assert outcomes[0].pilot_jobs > 0
        for index in (2, 3, 6):
            assert outcomes[index].pilot_jobs == 0
            assert outcomes[index].pilots_skipped > 0

        skipped = events(sink, "pilot_skipped")
        assert len(skipped) == sum(o.pilots_skipped for o in outcomes)
        for record in skipped:
            assert record["attrs"]["signature"].startswith("table:")

        cache_events = events(sink, "plan_cache")
        assert any(record["attrs"]["hit"] for record in cache_events)
        assert any(not record["attrs"]["hit"] for record in cache_events)

        completes = events(sink, "service.complete")
        assert len(completes) == 7


class TestSection41Reuse:
    """Same query twice against a persistent metastore: the second run
    performs zero pilot jobs and returns byte-identical rows -- including
    across a save/load round-trip of the metastore file."""

    def run_twice(self, service):
        request = QueryRequest.from_workload(q3())
        (first,) = run_requests(service, [request])
        (second,) = run_requests(service, [QueryRequest.from_workload(q3())])
        return first, second

    def test_second_run_reuses_statistics(self):
        sink = MemorySink()
        service = QueryService(small_tables(), tracer=Tracer(sink))
        first, second = self.run_twice(service)
        assert first.pilot_jobs == 3 and first.pilots_skipped == 0
        assert second.pilot_jobs == 0 and second.pilots_skipped == 3
        assert rows_bytes(first.rows) == rows_bytes(second.rows)
        # Tracer agrees: every skip is an event, and the second query's
        # pilot phase launched no pilot.leaf jobs.
        skipped = events(sink, "pilot_skipped")
        assert len(skipped) == 3
        pilot_leaves = events(sink, "pilot.leaf")
        assert all(record["attrs"]["signature"].startswith("table:")
                   for record in pilot_leaves)
        assert len(pilot_leaves) == 3  # all from the first run

    def test_reuse_survives_save_load_round_trip(self, tmp_path):
        path = tmp_path / "stats.json"
        first_service = QueryService(small_tables())
        (first,) = run_requests(first_service,
                                [QueryRequest.from_workload(q3())])
        first_service.dyno.save_statistics(path)

        second_service = QueryService(small_tables())
        assert second_service.dyno.load_statistics(path) > 0
        (second,) = run_requests(second_service,
                                 [QueryRequest.from_workload(q3())])
        assert second.pilot_jobs == 0
        assert second.pilots_skipped == 3
        assert rows_bytes(first.rows) == rows_bytes(second.rows)


class TestSingleFlightClaims:
    def test_identical_cold_queries_share_one_pilot_pass(self):
        """Two copies of one cold query in a batch: the first runs the
        pilots, the second runs after it and reuses their statistics."""
        service = QueryService(small_tables())
        outcomes = run_requests(service, [
            QueryRequest.from_workload(q3()),
            QueryRequest.from_workload(q3()),
        ])
        assert [o.pilot_jobs for o in outcomes] == [3, 0]
        assert [o.pilots_skipped for o in outcomes] == [0, 3]

    def test_unparseable_query_fails_alone(self):
        """A query that cannot even parse becomes an errored outcome; the
        rest of the batch is untouched."""
        service = QueryService(small_tables())
        broken = QueryRequest.single(
            "broken",
            "SELECT c.c_name AS n FROM customer c "
            "WHERE no_such_udf(c.c_name)",
        )
        outcomes = run_requests(service,
                                [broken, QueryRequest.from_workload(q3())])
        assert outcomes[0].error is not None
        assert outcomes[1].error is None and outcomes[1].rows

    def test_failed_owner_does_not_deadlock_waiters(self):
        """A query that shares Q3's leaf signatures and dies mid-pilot
        stores nothing; the Q3 after it finds the metastore empty and
        runs the pilots itself."""
        from repro.jaql.functions import Udf, UdfRegistry

        def poison(_value):
            raise RuntimeError("boom")

        udfs = UdfRegistry()
        udfs.register(Udf("poison", poison))
        service = QueryService(small_tables(), udfs=udfs)
        # Same customer/orders predicates as Q3, so this query pilots
        # the signatures Q3 needs -- then its lineitem pilot explodes.
        broken = QueryRequest.single(
            "broken",
            "SELECT o.o_orderkey AS k "
            "FROM customer c, orders o, lineitem l "
            "WHERE c.c_mktsegment = 'BUILDING' "
            "AND c.c_custkey = o.o_custkey "
            "AND l.l_orderkey = o.o_orderkey "
            "AND o.o_orderdate <= '1995-03-15' "
            "AND l.l_shipdate >= '1995-03-15' "
            "AND poison(l.l_comment)",
        )
        good = QueryRequest.from_workload(q3())
        outcomes = run_requests(service, [broken, good])
        assert outcomes[0].error is not None
        assert "RuntimeError" in outcomes[0].error
        assert outcomes[1].error is None
        assert outcomes[1].rows
        # The waiter had to run its own pilots (the owner stored nothing).
        assert outcomes[1].pilot_jobs == 3


class TestPlanCacheIntegration:
    def test_caller_supplied_empty_cache_is_used(self):
        """Regression: an empty PlanCache is falsy (len == 0); `or` used
        to silently replace it, detaching the caller's handle."""
        cache = PlanCache()
        service = QueryService(small_tables(), plan_cache=cache)
        assert service.plan_cache is cache
        assert service.dyno.executor.plan_cache is cache
        run_requests(service, [QueryRequest.from_workload(q3())])
        assert cache.summary()["misses"] > 0

    def test_stats_update_invalidates_dependent_entries(self):
        service = QueryService(small_tables())
        cache = service.plan_cache
        run_requests(service, [QueryRequest.from_workload(q3())])
        assert len(cache) > 0
        before = len(cache)
        # Re-collecting statistics for a contributing leaf must evict the
        # plans that were costed with the old statistics.
        entry = next(iter(service.metastore))
        contributing = [
            signature for signature in service.metastore
            if signature.startswith("table:customer")
        ]
        assert contributing, f"no customer leaf among {entry!r}..."
        service.metastore.put(
            contributing[0], service.metastore.get(contributing[0])
        )
        assert cache.summary()["invalidations"] > 0
        assert len(cache) < before

    def test_cold_and_warm_runs_share_entries(self):
        """A cold run's block (pilot outputs substituted) and a warm
        repeat's block (base leaves intact) canonicalize identically, so
        the *first* repeat already hits."""
        service = QueryService(small_tables())
        outcomes = run_requests(service, [
            QueryRequest.from_workload(q3()),
            QueryRequest.from_workload(q3()),
        ])
        assert outcomes[1].plan_cache_hits > 0


class TestServiceGuards:
    def test_rejects_zero_workers(self):
        """One driver thread is the contract: the keyword accepts 1 only."""
        for workers in (0, 2):
            with pytest.raises(PlanError, match="one thread"):
                QueryService(small_tables(), workers=workers)

    def test_single_worker_fault_plans_run_and_stay_invisible(self):
        """An armed fault plan runs through the service and, per the
        recovery oracle, returns exactly the rows of a fault-free
        service."""
        from repro.cluster.faults import FaultPlan

        plan = FaultPlan(seed=7, name="t", task_failure_rate=0.1,
                         straggler_rate=0.05)
        config = DEFAULT_CONFIG.with_fault_plan(plan)
        faulted = QueryService(small_tables(), config=config)
        (outcome,) = run_requests(faulted,
                                  [QueryRequest.from_workload(q3())])
        assert outcome.error is None

        clean = QueryService(small_tables())
        (baseline,) = run_requests(clean,
                                   [QueryRequest.from_workload(q3())])
        assert rows_bytes(outcome.rows) == rows_bytes(baseline.rows)

    def test_empty_stage_list_is_an_errored_outcome(self):
        service = QueryService(small_tables())
        (outcome,) = run_requests(service, [QueryRequest("empty", [])])
        assert outcome.error is not None
        assert "PlanError" in outcome.error


class TestFaultsUnderTenants:
    def test_three_tenant_mixed_batch_under_chaos_matches_fault_free(self):
        """Multi-tenant traffic with every fault channel armed: the
        dispatcher interleaves tenants, faults fire inside their jobs,
        and every request still returns the fault-free rows."""
        def run(config):
            requests, udfs = mixed_tenant_batch(len(MIXED_SEQUENCE) * 3, 3)
            service = QueryService(small_tables(), config=config, udfs=udfs)
            return service, run_requests(service, requests)

        faulted, chaos = run(DEFAULT_CONFIG.with_fault_plan(
            plan_named("chaos")))
        _, clean = run(DEFAULT_CONFIG)
        assert [o.error for o in chaos] == [None] * len(clean)
        assert [(o.name, o.tenant) for o in chaos] == \
            [(o.name, o.tenant) for o in clean]
        # Recovery may re-plan, so float sums may be reassociated: the
        # fault matrix's canonical form (order-free, 6 places) applies.
        assert [canonical_rows(o.rows) for o in chaos] == \
            [canonical_rows(o.rows) for o in clean]
        assert faulted.dyno.runtime.fault_injector.events, \
            "the chaos plan never fired"


class TestIsolation:
    def test_concurrent_copies_never_collide_in_the_namespace(self):
        """Four copies of the same multi-way query in one batch:
        per-query prefixes keep DFS files, counters and spans apart, so
        all copies return the same (correct) rows."""
        service = QueryService(small_tables())
        outcomes = run_requests(service, [
            QueryRequest.from_workload(weblog_engagement())
            if index % 2 else QueryRequest.from_workload(q3())
            for index in range(4)
        ])
        q3_rows = [rows_bytes(o.rows) for o in outcomes[::2]]
        weblog_rows = [rows_bytes(o.rows) for o in outcomes[1::2]]
        assert len(set(q3_rows)) == 1
        assert len(set(weblog_rows)) == 1
        names = [o.query_name for o in outcomes]
        assert len(set(names)) == len(names)

    def test_multi_stage_intermediates_are_prefixed(self):
        """TPC-H Q2 (two dependent blocks): its intermediate table is
        renamed per query, so two copies in one batch do not clobber each
        other's q2mincost."""
        from repro.workloads.queries import q2

        service = QueryService(small_tables())
        outcomes = run_requests(service, [
            QueryRequest.from_workload(q2()),
            QueryRequest.from_workload(q2()),
        ])
        assert [o.error for o in outcomes] == [None, None]
        assert rows_bytes(outcomes[0].rows) == rows_bytes(outcomes[1].rows)
        # Both prefixed copies of the intermediate landed in the catalog.
        names = [name for name in service.dyno.tables if "q2mincost" in name]
        assert len(names) == 2 and all("." in name for name in names)
