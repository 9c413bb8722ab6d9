"""Section 8's dynamic join operator: ``execute_switching_plan``.

A caller's plan runs join by join through the one executor loop; a
repartition join whose inputs turn out to fit in task memory switches to
a broadcast join just before it launches.
"""

import pytest

from repro.cluster.faults import FaultPlan
from repro.config import DEFAULT_CONFIG, ClusterConfig, OptimizerConfig
from repro.core.baselines import oracle_leaf_stats, relopt_plan
from repro.core.dyno import Dyno
from repro.core.dynopt import (
    SWITCH_PENALTY_SECONDS,
    _lowest_ready_join,
    _rebind,
)
from repro.jaql.blocks import SOURCE_INTERMEDIATE, SOURCE_TABLE, BlockLeaf
from repro.jaql.expr import JoinCondition, ref
from repro.obs.tracer import MemorySink, Tracer
from repro.optimizer.plans import BROADCAST, PhysJoin, PhysLeaf, \
    summarize_plan
from repro.optimizer.search import JoinOptimizer
from repro.workloads.queries import q9_prime, q10
from tests.conftest import assert_same_rows
from tests.oracle import SKEWED_WORKLOADS, skewed_oracle_tables


def optimized_plan(dyno, block, stats=None):
    stats = stats or oracle_leaf_stats(dyno.tables, block)
    return JoinOptimizer(block, stats, dyno.config.optimizer,
                         dyno.config.cluster).optimize().plan


def conservative_plan(dyno, block):
    """The all-repartition plan: no build side is allowed 8 bytes."""
    stats = oracle_leaf_stats(dyno.tables, block)
    return JoinOptimizer(
        block, stats, OptimizerConfig(), ClusterConfig(task_memory_bytes=8)
    ).optimize().plan


def all_repartition_setup(dyno_factory, selectivity=0.05):
    workload = q9_prime(udf_selectivity=selectivity)
    dyno = dyno_factory(udfs=workload.udfs)
    block = dyno.prepare(workload.final_spec).block
    return dyno, block, conservative_plan(dyno, block)


def q10_conservative(dyno_factory, config=DEFAULT_CONFIG):
    workload = q10()
    dyno = dyno_factory(udfs=workload.udfs, config=config)
    block = dyno.prepare(workload.final_spec).block
    return dyno, block, conservative_plan(dyno, block)


class TestExecution:
    def test_results_match_plain_execution(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        plan = optimized_plan(dyno, block)
        plain = dyno.executor.execute_physical_plan(block, plan)
        plain_rows = dyno.dfs.read_all(plain.output_file)

        dyno2 = dyno_factory(udfs=workload.udfs)
        block2 = dyno2.prepare(workload.final_spec).block
        plan2 = optimized_plan(dyno2, block2)
        dynamic = dyno2.executor.execute_switching_plan(block2, plan2)
        dynamic_rows = dyno2.dfs.read_all(dynamic.output_file)
        assert_same_rows(dynamic_rows, plain_rows)

    def test_switches_conservative_repartition_plan(self, dyno_factory):
        """RELOPT's UDF-blind plan repartitions dimensions that actually
        fit in memory; the dynamic operator flips them at runtime."""
        workload = q9_prime(udf_selectivity=0.001)
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        plan, _ = relopt_plan(block, dyno.tables, dyno.config)
        assert summarize_plan(plan).repartition_joins >= 2
        result = dyno.executor.execute_switching_plan(block, plan)
        assert len(result.switched_joins) >= 1
        assert result.output_file

    def test_switching_saves_time_on_all_repartition_plan(
            self, dyno_factory):
        """An ultra-conservative plan (everything repartitioned) executed
        with dynamic switching beats the same plan executed as planned:
        the runtime discovers the inputs actually fit in memory."""
        dyno_a, block_a, plan_a = all_repartition_setup(dyno_factory)
        assert summarize_plan(plan_a).broadcast_joins == 0
        plain = dyno_a.executor.execute_physical_plan(block_a, plan_a,
                                                      strategy="SIMPLE_SO")

        dyno_b, block_b, plan_b = all_repartition_setup(dyno_factory)
        dynamic = dyno_b.executor.execute_switching_plan(block_b, plan_b)

        assert len(dynamic.switched_joins) >= 2
        assert dynamic.execution_seconds < plain.execution_seconds

    def test_no_switch_when_nothing_fits(self, dyno_factory):
        # Task memory so small that nothing can ever switch.
        dyno, block, plan = q10_conservative(
            dyno_factory, DEFAULT_CONFIG.with_memory(task_memory_bytes=8))
        assert summarize_plan(plan).repartition_joins >= 1
        result = dyno.executor.execute_switching_plan(block, plan)
        assert result.switched_joins == []
        assert result.output_file

    def test_plan_signatures_recorded(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        plan = optimized_plan(dyno, block)
        result = dyno.executor.execute_switching_plan(block, plan)
        assert len(result.plans) >= 1
        assert len(result.iterations) >= 1
        assert all(record.plan_signature for record in result.iterations)


class TestFilterFirstObservation:
    def test_filtered_leaves_materialized_before_switch(self, dyno_factory):
        dyno, block, plan = all_repartition_setup(dyno_factory)
        assert summarize_plan(plan).broadcast_joins == 0
        result = dyno.executor.execute_switching_plan(block, plan)
        # Filter jobs materialized the UDF-filtered dimensions, whose
        # observed sizes enabled the broadcast switches: each filtered
        # leaf under a switched join ran alone in an earlier round.
        assert len(result.switched_joins) >= 2
        rounds = [record.plan_signature for record in result.iterations]
        switched = [index for index, signature in enumerate(rounds)
                    if "./b" in signature]
        assert len(switched) == len(result.switched_joins)
        filtered = {leaf.alias for leaf in block.base_leaves()
                    if leaf.predicates}
        for index, aliases in zip(switched, result.switched_joins):
            below = filtered & set(aliases.split(","))
            assert below
            for alias in below:
                assert alias in rounds[:index]

    def test_switch_penalty_accounted(self, dyno_factory):
        dyno, block, plan = all_repartition_setup(dyno_factory)
        result = dyno.executor.execute_switching_plan(block, plan)
        makespans = sum(r.makespan_seconds for r in result.iterations)
        assert result.execution_seconds == pytest.approx(
            makespans + len(result.switched_joins) * SWITCH_PENALTY_SECONDS)
        assert result.execution_seconds > \
            len(result.switched_joins) * SWITCH_PENALTY_SECONDS

    def test_rows_match_plain_execution(self, dyno_factory):
        dyno_a, block_a, plan_a = all_repartition_setup(dyno_factory)
        plain = dyno_a.executor.execute_physical_plan(block_a, plan_a)
        plain_rows = dyno_a.dfs.read_all(plain.output_file)

        dyno_b, block_b, plan_b = all_repartition_setup(dyno_factory)
        dynamic = dyno_b.executor.execute_switching_plan(block_b, plan_b)
        dynamic_rows = dyno_b.dfs.read_all(dynamic.output_file)
        assert len(dynamic_rows) == len(plain_rows)


class TestOneLoop:
    """What the executor loop gives this path: recovery, audit, trace."""

    @pytest.fixture()
    def fault_free_rows(self, dyno_factory):
        dyno, block, plan = q10_conservative(dyno_factory)
        result = dyno.executor.execute_switching_plan(block, plan)
        assert result.switched_joins
        return dyno.dfs.read_all(result.output_file)

    def run_faulted(self, dyno_factory, plan):
        dyno, block, physical = q10_conservative(
            dyno_factory, DEFAULT_CONFIG.with_fault_plan(plan))
        result = dyno.executor.execute_switching_plan(block, physical)
        return result, dyno.dfs.read_all(result.output_file)

    def test_node_loss_recovers(self, dyno_factory, fault_free_rows):
        result, rows = self.run_faulted(dyno_factory, FaultPlan(
            seed=37, name="node-loss", node_loss_rate=1.0,
            max_node_losses=2))
        assert result.lost_outputs
        assert result.recovered_jobs
        assert_same_rows(rows, fault_free_rows)

    def test_doomed_broadcast_replans_to_repartition(
            self, dyno_factory, fault_free_rows):
        result, rows = self.run_faulted(dyno_factory, FaultPlan(
            seed=67, name="doomed", broadcast_failure_rate=1.0))
        assert result.replanned_failures
        assert summarize_plan(result.plans[-1]).broadcast_joins == 0
        assert_same_rows(rows, fault_free_rows)

    def test_banned_hash_builds_of_the_plan_run_as_repartition(self):
        """The caller's own skew and broadcast joins, doomed, fall back to
        repartition joins instead of failing until the replans run out."""
        tables = skewed_oracle_tables()
        workload = SKEWED_WORKLOADS["SkewFunnel"]()
        rows = []
        for config in (DEFAULT_CONFIG, DEFAULT_CONFIG.with_fault_plan(
                FaultPlan(seed=41, name="broadcast-doom",
                          broadcast_failure_rate=1.0))):
            dyno = Dyno(tables, config=config, udfs=workload.udfs)
            block = dyno.prepare(workload.final_spec).block
            plan = optimized_plan(dyno, block)
            summary = summarize_plan(plan)
            assert summary.skew_joins and summary.broadcast_joins
            result = dyno.executor.execute_switching_plan(block, plan)
            rows.append(dyno.dfs.read_all(result.output_file))
        assert len(result.replanned_failures) == 2
        last = summarize_plan(result.plans[-1])
        assert last.skew_joins == last.broadcast_joins == 0
        assert_same_rows(rows[1], rows[0])

    def test_ci_chaos_plan_matches_fault_free(self, dyno_factory,
                                              fault_free_rows):
        _, rows = self.run_faulted(dyno_factory, FaultPlan(
            seed=67, name="ci-chaos", task_failure_rate=0.15,
            job_failure_rate=0.3, node_loss_rate=0.5, max_node_losses=1,
            straggler_rate=0.2))
        assert_same_rows(rows, fault_free_rows)

    def test_every_job_is_traced_and_audited(self, tpch_tables):
        workload = q10()
        sink = MemorySink()
        dyno = Dyno(tpch_tables, udfs=workload.udfs, tracer=Tracer(sink))
        block = dyno.prepare(workload.final_spec).block
        plan = conservative_plan(dyno, block)
        result = dyno.executor.execute_switching_plan(block, plan)
        jobs = [job for record in result.iterations
                for job in record.jobs_executed]
        assert jobs
        executed = [job for record in sink.records
                    if record["kind"] == "span_start"
                    and record["name"] == "execute"
                    for job in record["attrs"]["jobs"]]
        audited = [record["attrs"]["job"] for record in sink.records
                   if record["kind"] == "event"
                   and record["name"] == "estimate"]
        assert executed == jobs
        assert audited == jobs


def leaf(alias):
    block_leaf = BlockLeaf(frozenset((alias,)), SOURCE_TABLE, alias)
    return PhysLeaf(aliases=frozenset((alias,)), est_rows=1.0,
                    est_bytes=10.0, cost=0.0, leaf=block_leaf)


def intermediate(aliases, name):
    aliases = frozenset(aliases)
    return PhysLeaf(aliases=aliases, est_rows=2.0, est_bytes=20.0,
                    cost=0.0,
                    leaf=BlockLeaf(aliases, SOURCE_INTERMEDIATE, name))


def join(left, right):
    condition = JoinCondition(
        ref(sorted(left.aliases)[0], "k"), ref(sorted(right.aliases)[0], "k")
    )
    return PhysJoin(aliases=left.aliases | right.aliases, est_rows=1.0,
                    est_bytes=10.0, cost=0.0, method=BROADCAST,
                    left=left, right=right, conditions=(condition,))


class TestLowestReadyJoin:
    def test_left_deep_returns_bottom(self):
        plan = join(join(leaf("a"), leaf("b")), leaf("c"))
        assert _lowest_ready_join(plan).aliases == {"a", "b"}

    def test_right_nested(self):
        plan = join(leaf("a"), join(leaf("b"), leaf("c")))
        assert _lowest_ready_join(plan).aliases == {"b", "c"}

    def test_single_join(self):
        plan = join(leaf("a"), leaf("b"))
        assert _lowest_ready_join(plan) is plan

    def test_leaf_plan_is_its_own_last_step(self):
        plan = leaf("a")
        assert _lowest_ready_join(plan) is plan


class TestRebind:
    def test_replaces_matching_aliases(self):
        plan = join(join(leaf("a"), leaf("b")), leaf("c"))
        replacement = intermediate(("a", "b"), "out1")
        updated = _rebind(plan, {replacement.aliases: replacement})
        assert isinstance(updated.left, PhysLeaf)
        assert updated.left.leaf.source_name == "out1"
        assert updated.right.aliases == {"c"}

    def test_untouched_when_no_match(self):
        plan = join(leaf("a"), leaf("b"))
        replacement = intermediate(("z",), "z")
        updated = _rebind(plan, {replacement.aliases: replacement})
        assert updated.aliases == {"a", "b"}

    def test_whole_plan_replaceable(self):
        plan = join(leaf("a"), leaf("b"))
        replacement = intermediate(("a", "b"), "all")
        updated = _rebind(plan, {replacement.aliases: replacement})
        assert updated is replacement
