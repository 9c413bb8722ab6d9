"""Memory-governed execution: one task budget and its degrade-in-place net.

The optimizer plans the paper's two joins (plus skew): a build side that
does not fit ``Mmax`` is repartitioned, never planned to spill. The
runtime keeps one safety net for builds the optimizer *underestimated*:
a broadcast build between ``task_memory_bytes`` and
``spill_overflow_factor`` times it degrades in place by spilling instead
of failing the job. These tests pin down each layer: the coherent memory
config, the optimizer's choice under a marginal budget and the runtime's
degrade-in-place.
"""

import json

import pytest

from repro.cluster.counters import Counters
from repro.cluster.job import BroadcastBuild, MapReduceJob
from repro.cluster.runtime import ClusterRuntime
from repro.config import DEFAULT_CONFIG, ClusterConfig, DynoConfig
from repro.core.dyno import Dyno
from repro.core.dynopt import MODE_DYNOPT
from repro.data.schema import INT, STRING, Schema
from repro.errors import BroadcastBuildOverflowError
from repro.obs import MemorySink, Tracer
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


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestMemoryConfig:
    def test_with_memory_moves_both_budgets(self):
        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=8192)
        assert config.cluster.task_memory_bytes == 8192

    def test_with_memory_rejects_nonpositive_task_budget(self):
        with pytest.raises(ValueError, match="task_memory_bytes"):
            DEFAULT_CONFIG.with_memory(task_memory_bytes=0)


# ---------------------------------------------------------------------------
# plan choice under a marginal budget
# ---------------------------------------------------------------------------


class TestMarginalBuildPlanChoice:
    def optimize(self, dyno_factory, mmax, banned=frozenset()):
        from repro.core.baselines import oracle_leaf_stats

        dyno = dyno_factory()
        spec = dyno.parse(SPILL_SQL, name="QSPILL")
        block = dyno.prepare(spec).block
        stats = oracle_leaf_stats(dyno.tables, block)
        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=mmax)
        optimizer = JoinOptimizer(block, stats, config.optimizer,
                                  config.cluster, banned_broadcast=banned)
        return optimizer.optimize()

    def test_tiny_budget_falls_back_to_repartition(self, dyno_factory):
        result = self.optimize(dyno_factory, mmax=1024)
        summary = summarize_plan(result.plan)
        assert summary.repartition_joins == 1

    def test_large_budget_still_broadcasts(self, dyno_factory):
        result = self.optimize(dyno_factory, mmax=96 * 1024)
        summary = summarize_plan(result.plan)
        assert summary.broadcast_joins == 1

    def test_ban_forces_repartition(self, dyno_factory):
        """After a pathological overflow the replanned join may not retry
        any in-memory hash build over the banned aliases."""
        result = self.optimize(dyno_factory, mmax=96 * 1024)
        assert summarize_plan(result.plan).broadcast_joins == 1
        banned = frozenset({frozenset(result.plan.aliases)})
        rebanned = self.optimize(dyno_factory, mmax=96 * 1024, banned=banned)
        summary = summarize_plan(rebanned.plan)
        assert summary.broadcast_joins == 0
        assert summary.skew_joins == 0
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
        job = join_job(runtime)
        result = runtime.execute(job)
        # The build keeps exactly the budget resident and spills the rest;
        # the probe side stages the same share of every split.
        loaded = job.broadcast_builds[0].loaded_bytes
        build_spill = loaded - config.cluster.task_memory_bytes
        fraction = build_spill / loaded
        probe_spill = sum(int(split.size_bytes * fraction)
                          for split in runtime.dfs.file_splits("probe"))
        assert build_spill > 0
        assert result.spilled_bytes == build_spill + probe_spill
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
# end-to-end: a marginal build under DYNOPT
# ---------------------------------------------------------------------------


class TestMarginalBuildEndToEnd:
    def run(self, tables, task_memory, tracer=None):
        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=task_memory)
        dyno = Dyno(tables, config=config, tracer=tracer)
        spec = dyno.parse(SPILL_SQL, name="QSPILL")
        return dyno.execute(spec, mode=MODE_DYNOPT, strategy="UNC-1")

    @pytest.fixture(scope="class")
    def tight_run(self, tpch_tables):
        return self.run(tpch_tables, 8192, tracer=Tracer(MemorySink()))

    def test_plans_repartition_with_zero_replans(self, tight_run):
        block = tight_run.block_results[0]
        assert block.replanned_failures == []
        final = summarize_plan(block.plans[-1])
        assert final.repartition_joins == 1
        assert final.broadcast_joins == 0

    def test_rows_identical_to_roomy_run(self, tight_run, tpch_tables):
        roomy = self.run(tpch_tables, 96 * 1024)
        summary = summarize_plan(roomy.block_results[0].plans[-1])
        assert summary.broadcast_joins == 1
        assert canonical(tight_run.rows) == canonical(roomy.rows)

    def test_untraced_rows_equal_traced(self, tight_run, tpch_tables):
        untraced = self.run(tpch_tables, 8192)
        assert canonical(untraced.rows) == canonical(tight_run.rows)
