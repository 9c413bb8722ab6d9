"""Memory-governed execution: spill join, accounting, backpressure.

The PR-5 acceptance scenario: a workload whose broadcast build side lands
between ``task_memory_bytes`` and ``spill_overflow_factor`` times it must
complete through the spillable hybrid hash join with zero replans -- the
trace shows ``spill`` events and no ``BroadcastBuildOverflowError`` --
and produce exactly the rows of a repartition-only plan. Around that
scenario, these tests pin down each layer: the coherent memory config,
the hybrid cost formulas, the optimizer's choice, the runtime's
degrade-in-place and the scheduler's cluster memory pool.
"""

import json

import pytest

from repro.cluster.counters import Counters
from repro.cluster.job import BroadcastBuild, MapReduceJob
from repro.cluster.runtime import ClusterRuntime
from repro.cluster.scheduler import ScheduledJob, SlotScheduler
from repro.config import DEFAULT_CONFIG, ClusterConfig, DynoConfig
from repro.core.dyno import Dyno
from repro.core.dynopt import MODE_DYNOPT
from repro.data.schema import INT, STRING, Schema
from repro.errors import BroadcastBuildOverflowError, JobError
from repro.obs import MemorySink, Tracer
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.plans import summarize_plan
from repro.optimizer.search import JoinOptimizer
from repro.storage.dfs import DistributedFileSystem
from tests.jobs import record_mapper

SCHEMA = Schema.of(key=INT, value=STRING)

SPILL_SQL = """
    SELECT o.o_orderkey AS okey, c.c_name AS cname
    FROM orders o, customer c
    WHERE o.o_custkey = c.c_custkey
"""


def canonical(rows):
    return sorted(json.dumps(row, sort_keys=True, default=str)
                  for row in rows)


def trace_events(sink, name):
    return [record for record in sink.records
            if record["kind"] == "event" and record["name"] == name]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestMemoryConfig:
    def test_with_memory_moves_both_budgets(self):
        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=8192)
        assert config.cluster.task_memory_bytes == 8192
        assert config.optimizer.max_broadcast_bytes == 8192

    def test_with_memory_sets_cluster_pool(self):
        config = DEFAULT_CONFIG.with_memory(cluster_memory_bytes=123456)
        assert config.cluster.effective_cluster_memory_bytes == 123456

    def test_default_pool_is_slots_times_task_memory(self):
        cluster = DEFAULT_CONFIG.cluster
        assert cluster.cluster_memory_bytes == 0
        assert cluster.effective_cluster_memory_bytes == \
            cluster.total_map_slots * cluster.task_memory_bytes

    def test_with_memory_rejects_nonpositive_task_budget(self):
        with pytest.raises(ValueError, match="task_memory_bytes"):
            DEFAULT_CONFIG.with_memory(task_memory_bytes=0)


# ---------------------------------------------------------------------------
# hybrid join cost model
# ---------------------------------------------------------------------------


class TestHybridCostModel:
    def model(self, mmax=8192):
        from dataclasses import replace

        return JoinCostModel(
            replace(DEFAULT_CONFIG.optimizer, max_broadcast_bytes=mmax)
        )

    def test_spilled_fraction_zero_when_fitting(self):
        model = self.model()
        assert model.spilled_fraction(1000.0) == 0.0

    def test_spilled_fraction_grows_with_build(self):
        model = self.model()
        small = model.spilled_fraction(10_000.0)
        large = model.spilled_fraction(20_000.0)
        assert 0.0 < small < large < 1.0

    def test_fits_with_spill_is_wider_than_memory(self):
        model = self.model()
        build = 12_000.0  # over Mmax, within 4x margin
        assert not model.fits_in_memory(build)
        assert model.fits_with_spill(build)
        assert not model.fits_with_spill(40_000.0)

    def test_cost_ordering_broadcast_hybrid_repartition(self):
        """For a marginally oversized build the hybrid join must sit
        strictly between broadcast and repartition, so the optimizer
        degrades rather than jumping straight to repartition."""
        model = self.model()
        probe, build, out = 100_000.0, 12_000.0, 50_000.0
        assert model.broadcast_cost(probe, build, out) \
            < model.hybrid_cost(probe, build, out) \
            < model.repartition_cost(probe, build, out)

    def test_hybrid_equals_broadcast_when_nothing_spills(self):
        model = self.model()
        assert model.hybrid_cost(1000.0, 500.0, 100.0) == \
            model.broadcast_cost(1000.0, 500.0, 100.0)


class TestHybridPlanChoice:
    def optimize(self, dyno_factory, mmax, banned=frozenset()):
        from repro.core.baselines import oracle_leaf_stats

        dyno = dyno_factory()
        spec = dyno.parse(SPILL_SQL, name="QSPILL")
        block = dyno.prepare(spec).block
        stats = oracle_leaf_stats(dyno.tables, block)
        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=mmax)
        optimizer = JoinOptimizer(block, stats, config.optimizer,
                                  banned_broadcast=banned)
        return optimizer.optimize()

    def test_marginal_build_chooses_hybrid(self, dyno_factory):
        result = self.optimize(dyno_factory, mmax=8192)
        summary = summarize_plan(result.plan)
        assert summary.hybrid_joins == 1
        assert summary.repartition_joins == 0

    def test_tiny_budget_falls_back_to_repartition(self, dyno_factory):
        result = self.optimize(dyno_factory, mmax=1024)
        summary = summarize_plan(result.plan)
        assert summary.hybrid_joins == 0
        assert summary.repartition_joins == 1

    def test_large_budget_still_broadcasts(self, dyno_factory):
        result = self.optimize(dyno_factory, mmax=96 * 1024)
        summary = summarize_plan(result.plan)
        assert summary.broadcast_joins == 1
        assert summary.hybrid_joins == 0

    def test_ban_covers_hybrid_joins_too(self, dyno_factory):
        """PR-2's ban-and-replan must exclude the hybrid variant as well:
        after a pathological overflow the replanned join may not retry
        any in-memory hash build over the banned aliases."""
        result = self.optimize(dyno_factory, mmax=8192)
        banned = frozenset({frozenset(result.plan.aliases)})
        rebanned = self.optimize(dyno_factory, mmax=8192, banned=banned)
        summary = summarize_plan(rebanned.plan)
        assert summary.hybrid_joins == 0
        assert summary.broadcast_joins == 0
        assert summary.repartition_joins == 1


# ---------------------------------------------------------------------------
# runtime degrade-in-place
# ---------------------------------------------------------------------------


def spill_runtime(task_memory=4096):
    config = DynoConfig(cluster=ClusterConfig(block_size_bytes=256,
                                              task_memory_bytes=task_memory))
    dfs = DistributedFileSystem(config.cluster.block_size_bytes)
    dfs.write_rows(
        "probe", SCHEMA,
        [{"key": i % 50, "value": f"p{i}"} for i in range(200)],
    )
    dfs.write_rows(
        "build", SCHEMA,
        [{"key": i, "value": "b" * 40} for i in range(50)],
    )
    return ClusterRuntime(dfs, config), config


def join_job(runtime):
    build = BroadcastBuild("build", lambda batch: batch)

    @record_mapper
    def mapper(context, source: str, rows) -> None:
        table = {row["key"]: row for row in build.built_rows()}
        for row in rows:
            match = table.get(row["key"])
            if match is not None:
                context.emit(None, {**row, "build_value": match["value"]})

    return MapReduceJob("join", ["probe"], mapper, "out", SCHEMA,
                        broadcast_builds=[build])


class TestRuntimeSpill:
    def test_marginal_overflow_spills_instead_of_dying(self):
        runtime, config = spill_runtime(task_memory=2048)
        result = runtime.execute(join_job(runtime))
        assert result.spilled_bytes > 0
        assert result.in_memory_build_bytes == 2048
        assert result.counters.get("map", Counters.SPILLED_BYTES) == \
            result.spilled_bytes
        assert runtime.dfs.spill_bytes_written == result.spilled_bytes
        assert runtime.dfs.spill_bytes_read == result.spilled_bytes

    def test_spill_output_matches_in_memory_run(self):
        spilling, _ = spill_runtime(task_memory=2048)
        roomy, _ = spill_runtime(task_memory=1024 * 1024)
        spilled = spilling.execute(join_job(spilling))
        in_memory = roomy.execute(join_job(roomy))
        assert in_memory.spilled_bytes == 0
        assert canonical(spilling.dfs.read_all("out")) == \
            canonical(roomy.dfs.read_all("out"))
        assert spilled.output_rows == in_memory.output_rows

    def test_spilling_costs_extra_time(self):
        spilling, _ = spill_runtime(task_memory=2048)
        roomy, _ = spill_runtime(task_memory=1024 * 1024)
        slow = spilling.execute(join_job(spilling))
        fast = roomy.execute(join_job(roomy))
        assert sum(slow.map_task_seconds) > sum(fast.map_task_seconds)

    def test_pathological_overflow_still_raises(self):
        runtime, _ = spill_runtime(task_memory=256)  # build >> 4x budget
        with pytest.raises(BroadcastBuildOverflowError):
            runtime.execute(join_job(runtime))

    def test_fitting_build_neither_spills_nor_charges(self):
        runtime, _ = spill_runtime(task_memory=1024 * 1024)
        result = runtime.execute(join_job(runtime))
        assert result.spilled_bytes == 0
        assert result.counters.get("map", Counters.SPILLED_BYTES) == 0
        assert runtime.dfs.spill_bytes_written == 0


# ---------------------------------------------------------------------------
# scheduler memory pool
# ---------------------------------------------------------------------------


class TestSchedulerMemoryPool:
    def test_pool_serializes_overcommitted_jobs(self):
        jobs = [
            ScheduledJob("a", [10.0], memory_bytes=60),
            ScheduledJob("b", [10.0], memory_bytes=60),
        ]
        free = SlotScheduler(4, 4).schedule(jobs)
        governed = SlotScheduler(4, 4, memory_pool_bytes=100).schedule(jobs)
        assert free.makespan < governed.makespan
        assert governed.timelines["b"].memory_wait_seconds > 0.0
        assert governed.timelines["a"].memory_wait_seconds == 0.0

    def test_fitting_jobs_run_concurrently(self):
        jobs = [
            ScheduledJob("a", [10.0], memory_bytes=40),
            ScheduledJob("b", [10.0], memory_bytes=40),
        ]
        result = SlotScheduler(4, 4, memory_pool_bytes=100).schedule(jobs)
        assert result.timelines["b"].memory_wait_seconds == 0.0

    def test_zero_demand_jobs_ignore_the_pool(self):
        jobs = [
            ScheduledJob("a", [10.0]),
            ScheduledJob("b", [10.0]),
        ]
        result = SlotScheduler(4, 4, memory_pool_bytes=1).schedule(jobs)
        assert result.makespan == pytest.approx(10.0)

    def test_oversized_demand_is_clamped_to_run_alone(self):
        """A job declaring more than the whole pool must still run --
        alone -- rather than wait forever."""
        jobs = [
            ScheduledJob("big", [10.0], memory_bytes=10_000),
            ScheduledJob("small", [10.0], memory_bytes=50),
        ]
        result = SlotScheduler(4, 4, memory_pool_bytes=100).schedule(jobs)
        assert result.timelines["big"].finish_time > 0.0
        assert result.timelines["small"].memory_wait_seconds > 0.0

    def test_fifo_queue_admits_no_bypass(self):
        """A later small job may not overtake an earlier blocked one."""
        jobs = [
            ScheduledJob("first", [10.0], memory_bytes=80),
            ScheduledJob("second", [10.0], memory_bytes=80),
            ScheduledJob("third", [10.0], memory_bytes=10),
        ]
        result = SlotScheduler(4, 4, memory_pool_bytes=100).schedule(jobs)
        assert result.timelines["third"].start_time >= \
            result.timelines["second"].start_time

    def test_negative_pool_is_rejected(self):
        with pytest.raises(JobError, match="memory"):
            SlotScheduler(1, 1, memory_pool_bytes=-1)


# ---------------------------------------------------------------------------
# end-to-end acceptance: spill join under DYNOPT
# ---------------------------------------------------------------------------


class TestEndToEndSpill:
    def run(self, tables, task_memory, tracer=None):
        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=task_memory)
        dyno = Dyno(tables, config=config, tracer=tracer)
        spec = dyno.parse(SPILL_SQL, name="QSPILL")
        return dyno.execute(spec, mode=MODE_DYNOPT, strategy="UNC-1")

    @pytest.fixture(scope="class")
    def spill_run(self, tpch_tables):
        sink = MemorySink()
        execution = self.run(tpch_tables, 8192, tracer=Tracer(sink))
        return execution, sink

    def test_completes_via_hybrid_with_zero_replans(self, spill_run):
        execution, _ = spill_run
        block = execution.block_results[0]
        assert block.replanned_failures == []
        final = summarize_plan(block.plans[-1])
        assert final.hybrid_joins == 1

    def test_trace_shows_spill_and_no_overflow(self, spill_run):
        _, sink = spill_run
        spills = trace_events(sink, "spill")
        assert spills, "expected at least one spill event"
        for event in spills:
            attrs = event["attrs"]
            assert attrs["spilled_bytes"] > 0
            assert attrs["in_memory_build_bytes"] == \
                attrs["task_memory_bytes"]
        assert not [record for record in sink.records
                    if "BroadcastBuildOverflowError" in json.dumps(record)]

    def test_rows_identical_to_repartition_only_plan(self, spill_run,
                                                     tpch_tables):
        execution, _ = spill_run
        repartition = self.run(tpch_tables, 1024)
        summary = summarize_plan(repartition.block_results[0].plans[-1])
        assert summary.repartition_joins == 1
        assert summary.hybrid_joins == 0
        assert canonical(execution.rows) == canonical(repartition.rows)
