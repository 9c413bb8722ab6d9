"""Physical plan nodes, rendering, summaries."""

import pytest

from repro.errors import PlanError
from repro.jaql.blocks import SOURCE_INTERMEDIATE, SOURCE_TABLE, BlockLeaf
from repro.jaql.expr import Comparison, JoinCondition, ref
from repro.optimizer.plans import (
    BROADCAST,
    REPARTITION,
    PhysJoin,
    PhysLeaf,
    compact_plan,
    plan_signature,
    render_plan,
    summarize_plan,
)


def leaf(alias, table=None, predicates=()):
    block_leaf = BlockLeaf(frozenset((alias,)), SOURCE_TABLE,
                           table or alias, tuple(predicates))
    return PhysLeaf(aliases=frozenset((alias,)), est_rows=10.0,
                    est_bytes=100.0, cost=0.0, leaf=block_leaf)


def join(left, right, method=BROADCAST, chained=False, predicates=()):
    condition = JoinCondition(
        ref(sorted(left.aliases)[0], "k"), ref(sorted(right.aliases)[0], "k")
    )
    return PhysJoin(
        aliases=left.aliases | right.aliases, est_rows=5.0, est_bytes=50.0,
        cost=1.0, method=method, left=left, right=right,
        conditions=(condition,), chained=chained,
        applied_predicates=tuple(predicates),
    )


class TestInvariants:
    def test_leaf_requires_block_leaf(self):
        with pytest.raises(PlanError):
            PhysLeaf(aliases=frozenset(("a",)), est_rows=1.0,
                     est_bytes=1.0, cost=0.0, leaf=None)

    def test_leaf_alias_mismatch_rejected(self):
        block_leaf = BlockLeaf(frozenset(("a",)), SOURCE_TABLE, "t")
        with pytest.raises(PlanError):
            PhysLeaf(aliases=frozenset(("b",)), est_rows=1.0,
                     est_bytes=1.0, cost=0.0, leaf=block_leaf)

    def test_join_requires_conditions(self):
        with pytest.raises(PlanError):
            PhysJoin(aliases=frozenset(("a", "b")), est_rows=1.0,
                     est_bytes=1.0, cost=0.0, method=BROADCAST,
                     left=leaf("a"), right=leaf("b"), conditions=())

    def test_join_alias_consistency(self):
        condition = JoinCondition(ref("a", "k"), ref("b", "k"))
        with pytest.raises(PlanError):
            PhysJoin(aliases=frozenset(("a", "b", "z")), est_rows=1.0,
                     est_bytes=1.0, cost=0.0, method=BROADCAST,
                     left=leaf("a"), right=leaf("b"),
                     conditions=(condition,))

    def test_only_broadcast_chains(self):
        with pytest.raises(PlanError):
            join(leaf("a"), leaf("b"), method=REPARTITION, chained=True)

    def test_unknown_method_rejected(self):
        with pytest.raises(PlanError):
            join(leaf("a"), leaf("b"), method="sort-merge")


class TestTraversal:
    def test_join_count(self):
        plan = join(join(leaf("a"), leaf("b")), leaf("c"))
        assert plan.join_count() == 2
        assert leaf("z").join_count() == 0

    def test_leaves_in_order(self):
        plan = join(join(leaf("a"), leaf("b")), leaf("c"))
        assert [l.label() for l in plan.leaves()] == ["a", "b", "c"]

    def test_probe_build_aliases(self):
        plan = join(leaf("big"), leaf("small"))
        assert plan.probe.aliases == {"big"}
        assert plan.build.aliases == {"small"}


class TestRendering:
    def test_compact_plan(self):
        plan = join(join(leaf("a"), leaf("b"), method=REPARTITION),
                    leaf("c"), chained=False)
        assert compact_plan(plan) == "((a ./r b) ./b c)"

    def test_chained_marker(self):
        plan = join(join(leaf("a"), leaf("b")), leaf("c"), chained=True)
        assert "./b+" in compact_plan(plan)

    def test_signature_ignores_estimates(self):
        from dataclasses import replace

        plan = join(leaf("a"), leaf("b"))
        altered = replace(plan, est_rows=999.0, cost=123.0)
        assert plan_signature(plan) == plan_signature(altered)

    def test_render_shows_predicates_and_estimates(self):
        pred = Comparison(ref("a", "x"), "=", 1)
        plan = join(leaf("a"), leaf("b"), predicates=(pred,))
        text = render_plan(plan, show_estimates=True)
        assert "then filter (a.x = 1)" in text
        assert "rows" in text

    def test_render_intermediate_leaf(self):
        block_leaf = BlockLeaf(frozenset(("a", "b")), SOURCE_INTERMEDIATE,
                               "file1")
        node = PhysLeaf(aliases=frozenset(("a", "b")), est_rows=1.0,
                        est_bytes=1.0, cost=0.0, leaf=block_leaf)
        assert "file1" in render_plan(node)


class TestSummary:
    def test_counts(self):
        plan = join(
            join(leaf("a"), leaf("b"), method=REPARTITION),
            leaf("c"), chained=False,
        )
        summary = summarize_plan(plan)
        assert summary.joins == 2
        assert summary.repartition_joins == 1
        assert summary.broadcast_joins == 1
        assert summary.is_left_deep
        assert summary.max_depth == 2

    def test_bushy_detection(self):
        plan = join(leaf("a"), join(leaf("b"), leaf("c")))
        assert not summarize_plan(plan).is_left_deep

    def test_leaf_labels(self):
        plan = join(leaf("x"), leaf("y"))
        assert summarize_plan(plan).leaf_labels == ("x", "y")


class TestPlanDiff:
    def test_identical_plans_no_changes(self):
        from repro.optimizer.plans import plan_diff

        plan = join(leaf("a"), leaf("b"))
        assert plan_diff(plan, plan) == []

    def test_method_flip_reported(self):
        from dataclasses import replace

        from repro.optimizer.plans import plan_diff

        before = join(leaf("a"), leaf("b"), method=REPARTITION)
        after = replace(before, method=BROADCAST)
        changes = plan_diff(before, after)
        assert any("repartition -> broadcast" in c for c in changes)

    def test_chain_change_reported(self):
        from dataclasses import replace

        from repro.optimizer.plans import plan_diff

        inner = join(leaf("a"), leaf("b"))
        before = join(inner, leaf("c"), chained=False)
        after = replace(before, chained=True)
        changes = plan_diff(before, after)
        assert any("now chained" in c for c in changes)

    def test_build_side_swap_reported(self):
        from repro.optimizer.plans import plan_diff

        before = join(leaf("a"), leaf("b"))
        after = join(leaf("b"), leaf("a"))
        changes = plan_diff(before, after)
        assert any("build side" in c for c in changes)

    def test_materialization_reported(self):
        from repro.jaql.blocks import SOURCE_INTERMEDIATE, BlockLeaf
        from repro.optimizer.plans import plan_diff

        inner = join(leaf("a"), leaf("b"))
        before = join(inner, leaf("c"))
        merged = PhysLeaf(
            aliases=frozenset(("a", "b")), est_rows=5.0, est_bytes=50.0,
            cost=0.0,
            leaf=BlockLeaf(frozenset(("a", "b")), SOURCE_INTERMEDIATE,
                           "t1.out"),
        )
        after = join(merged, leaf("c"))
        changes = plan_diff(before, after)
        assert any("no longer exists" in c for c in changes)
        assert any("materialized as t1.out" in c for c in changes)

    def test_dynopt_iterations_diff_cleanly(self, ):
        """plan_diff narrates a real DYNOPT run without crashing."""
        from repro.core.dyno import Dyno
        from repro.data.tpch import generate_tpch
        from repro.optimizer.plans import plan_diff
        from repro.workloads.queries import q8_prime

        tables = generate_tpch(0.05, seed=2014).tables
        workload = q8_prime()
        from repro.config import DEFAULT_CONFIG

        config = DEFAULT_CONFIG.with_memory(task_memory_bytes=8 * 1024)
        dyno = Dyno(tables, config=config, udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode="dynopt")
        plans = execution.block_results[0].plans
        assert len(plans) >= 2
        narration = plan_diff(plans[0], plans[1])
        assert isinstance(narration, list)
