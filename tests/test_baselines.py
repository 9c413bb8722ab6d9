"""Baselines: static enumeration, Jaql heuristics, RELOPT failure modes."""

import pytest

from repro.core.baselines import (
    RELOPT_SAFETY_FACTOR,
    build_left_deep_plan,
    enumerate_connected_orders,
    jaql_file_size_stats,
    oracle_leaf_stats,
    rank_orders_by_oracle,
    relopt_leaf_stats,
    relopt_plan,
)
from repro.errors import PlanError
from repro.optimizer.plans import BROADCAST, summarize_plan
from repro.workloads.queries import q8_prime, q9_prime, q10


def q10_block(dyno_factory):
    workload = q10()
    dyno = dyno_factory(udfs=workload.udfs)
    return dyno, dyno.prepare(workload.final_spec).block


class TestEnumeration:
    def test_chain_order_count(self, dyno_factory):
        dyno, block = q10_block(dyno_factory)
        orders = list(enumerate_connected_orders(block))
        # Q10's join graph: c-o, o-l, c-n (a tree on 4 nodes).
        assert len(orders) == len({tuple(o) for o in orders})
        assert all(len(order) == len(block.leaves) for order in orders)

    def test_every_order_is_connected_prefixwise(self, dyno_factory):
        from repro.optimizer.joingraph import JoinGraph

        dyno, block = q10_block(dyno_factory)
        graph = JoinGraph.build(block)
        for order in enumerate_connected_orders(block):
            for cut in range(1, len(order) + 1):
                assert graph.is_connected(frozenset(order[:cut]))

    def test_single_leaf_block(self):
        from repro.jaql.blocks import SOURCE_TABLE, BlockLeaf, JoinBlock

        block = JoinBlock(
            "one",
            (BlockLeaf(frozenset(("a",)), SOURCE_TABLE, "t"),), (),
        )
        assert list(enumerate_connected_orders(block)) == [(0,)]


class TestStaticPlans:
    def test_methods_follow_file_size_rule(self, dyno_factory):
        dyno, block = q10_block(dyno_factory)
        stats = jaql_file_size_stats(dyno.tables, block)
        sizes = {leaf.source_name: dyno.dfs.file_size(leaf.source_name)
                 for leaf in block.base_leaves()}
        order = next(enumerate_connected_orders(block))
        plan = build_left_deep_plan(block, order, stats, sizes, dyno.config)

        budget = dyno.config.cluster.task_memory_bytes

        def visit(node):
            from repro.optimizer.plans import PhysJoin, PhysLeaf

            if isinstance(node, PhysJoin):
                build = node.right
                assert isinstance(build, PhysLeaf)  # left-deep
                file_size = sizes[build.leaf.source_name]
                if node.method == BROADCAST:
                    assert file_size <= budget
                else:
                    assert file_size > budget
                visit(node.left)

        visit(plan)

    def test_left_deep_shape(self, dyno_factory):
        dyno, block = q10_block(dyno_factory)
        stats = jaql_file_size_stats(dyno.tables, block)
        sizes = {leaf.source_name: dyno.dfs.file_size(leaf.source_name)
                 for leaf in block.base_leaves()}
        order = next(enumerate_connected_orders(block))
        plan = build_left_deep_plan(block, order, stats, sizes, dyno.config)
        assert summarize_plan(plan).is_left_deep

    def test_invalid_order_rejected(self, dyno_factory):
        dyno, block = q10_block(dyno_factory)
        stats = jaql_file_size_stats(dyno.tables, block)
        with pytest.raises(PlanError):
            build_left_deep_plan(block, (0, 1), stats, {}, dyno.config)

    def test_cartesian_order_rejected(self, dyno_factory):
        dyno, block = q10_block(dyno_factory)
        stats = jaql_file_size_stats(dyno.tables, block)
        order = None
        # Find a permutation that is NOT connected prefix-wise.
        import itertools

        valid = set(enumerate_connected_orders(block))
        for candidate in itertools.permutations(range(len(block.leaves))):
            if candidate not in valid:
                order = candidate
                break
        assert order is not None
        with pytest.raises(PlanError):
            build_left_deep_plan(block, order, stats, {}, dyno.config)

    def test_ranking_is_sorted_and_complete(self, dyno_factory):
        dyno, block = q10_block(dyno_factory)
        jaql_stats = jaql_file_size_stats(dyno.tables, block)
        oracle = oracle_leaf_stats(dyno.tables, block)
        sizes = {leaf.source_name: dyno.dfs.file_size(leaf.source_name)
                 for leaf in block.base_leaves()}
        ranked = rank_orders_by_oracle(block, jaql_stats, oracle, sizes,
                                       dyno.config)
        costs = [entry.oracle_cost for entry in ranked]
        assert costs == sorted(costs)
        assert len(ranked) == len(list(enumerate_connected_orders(block)))


class TestStatisticsFlavours:
    def test_oracle_reflects_predicates(self, dyno_factory, tpch_tables):
        dyno, block = q10_block(dyno_factory)
        oracle = oracle_leaf_stats(dyno.tables, block)
        lineitem = block.leaf_for("l")
        truth = sum(1 for row in tpch_tables["lineitem"].rows
                    if row["l_returnflag"] == "R")
        assert oracle[lineitem.signature()].row_count == truth

    def test_jaql_stats_ignore_predicates(self, dyno_factory, tpch_tables):
        dyno, block = q10_block(dyno_factory)
        stats = jaql_file_size_stats(dyno.tables, block)
        lineitem = block.leaf_for("l")
        assert stats[lineitem.signature()].row_count == \
            len(tpch_tables["lineitem"])

    def test_relopt_multiplies_independent_selectivities(
            self, dyno_factory, tpch_tables):
        """Q8''s correlated zone/region predicates: RELOPT underestimates
        by the region predicate's selectivity (the paper's Section 4.1
        failure mode)."""
        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        relopt = relopt_leaf_stats(dyno.tables, block)
        oracle = oracle_leaf_stats(dyno.tables, block)
        orders = block.leaf_for("o")
        believed = relopt[orders.signature()].row_count
        truth = oracle[orders.signature()].row_count
        # zone implies region; independence divides by ~4 (regions).
        assert believed < truth
        assert truth / max(believed, 1e-9) == pytest.approx(4.0, rel=0.5)

    def test_relopt_udfs_are_opaque(self, dyno_factory, tpch_tables):
        workload = q9_prime(udf_selectivity=0.01)
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        relopt = relopt_leaf_stats(dyno.tables, block)
        part = block.leaf_for("p")
        # UDF selectivity defaults to 1.0: full table size believed.
        assert relopt[part.signature()].row_count == \
            len(tpch_tables["part"])


class TestReloptPlan:
    def test_q9_relopt_plan_avoids_broadcasts_of_udf_dims(
            self, dyno_factory):
        """Figure 3: with UDF selectivity unknown, the dimensions look too
        big and the conservative optimizer repartitions them."""
        workload = q9_prime(udf_selectivity=0.001)
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        plan, _ = relopt_plan(block, dyno.tables, dyno.config)
        summary = summarize_plan(plan)
        # part/partsupp/orders cannot be broadcast under RELOPT's beliefs;
        # only genuinely small tables (nation/supplier) may be.
        assert summary.repartition_joins >= 2

    def test_safety_factor_is_conservative(self):
        assert RELOPT_SAFETY_FACTOR > 1.5
