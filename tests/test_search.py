"""Memo exploration and top-down search: optimality and plan shapes."""

import hashlib
from dataclasses import replace
from itertools import product

import pytest

from repro.config import DEFAULT_CONFIG, ClusterConfig, OptimizerConfig
from repro.core.baselines import oracle_leaf_stats
from repro.core.dyno import Dyno
from repro.errors import OptimizerError, UnsupportedQueryError
from repro.jaql.blocks import SOURCE_TABLE, BlockLeaf, JoinBlock
from repro.jaql.expr import JoinCondition, UdfPredicate, ref
from repro.jaql.functions import Udf
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.memo import LogicalJoin, LogicalLeaf, Memo
from repro.optimizer.plans import (
    BROADCAST,
    PhysJoin,
    PhysLeaf,
    summarize_plan,
)
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.search import JoinOptimizer, simulated_optimizer_seconds
from repro.stats.statistics import ColumnStats, TableStats
from repro.workloads.skewed import SKEWED_WORKLOADS
from tests.oracle import (
    ORACLE_WORKLOADS,
    oracle_tables,
    skewed_oracle_tables,
)


def leaf(alias, table=None):
    # Distinct table per alias: leaves sharing a table (and predicates)
    # share a statistics signature, which these tests don't want.
    return BlockLeaf(frozenset((alias,)), SOURCE_TABLE, table or alias)


def chain_block(n, name="chain"):
    leaves = tuple(leaf(chr(ord("a") + i)) for i in range(n))
    conditions = tuple(
        JoinCondition(ref(chr(ord("a") + i), "k"),
                      ref(chr(ord("a") + i + 1), "k"))
        for i in range(n - 1)
    )
    return JoinBlock(name, leaves, conditions)


def stats_for(block, sizes):
    """sizes: alias -> (rows, bytes); join keys get key-like DVs."""
    result = {}
    for block_leaf in block.leaves:
        alias = block_leaf.alias
        rows, size = sizes[alias]
        columns = {}
        for condition in block.conditions:
            for side in (condition.left, condition.right):
                if side.alias == alias:
                    columns[side.qualified] = ColumnStats(
                        side.qualified, max(rows, 1.0)
                    )
        result[block_leaf.signature()] = TableStats(rows, size, columns)
    return result


def optimize(block, sizes, task_memory_bytes=96 * 1024, **config_kwargs):
    config = OptimizerConfig(**config_kwargs)
    cluster = ClusterConfig(task_memory_bytes=task_memory_bytes)
    return JoinOptimizer(block, stats_for(block, sizes), config,
                         cluster).optimize()


class TestMemo:
    def test_leaf_group(self):
        graph = JoinGraph.build(chain_block(3))
        memo = Memo(graph)
        group = memo.explore(frozenset((1,)))
        assert group.expressions == [LogicalLeaf(1)]

    def test_pair_group_has_both_orders(self):
        graph = JoinGraph.build(chain_block(2))
        memo = Memo(graph)
        group = memo.explore(frozenset((0, 1)))
        joins = {(expr.left, expr.right) for expr in group.expressions
                 if isinstance(expr, LogicalJoin)}
        assert (frozenset((0,)), frozenset((1,))) in joins
        assert (frozenset((1,)), frozenset((0,))) in joins

    def test_disconnected_splits_excluded(self):
        graph = JoinGraph.build(chain_block(3))
        memo = Memo(graph)
        group = memo.explore(frozenset((0, 1, 2)))
        for expr in group.expressions:
            assert isinstance(expr, LogicalJoin)
            # {0,2} is disconnected, never a side.
            assert expr.left != frozenset((0, 2))
            assert expr.right != frozenset((0, 2))

    def test_exploration_idempotent(self):
        graph = JoinGraph.build(chain_block(3))
        memo = Memo(graph)
        first = memo.explore(frozenset((0, 1)))
        count = len(first.expressions)
        second = memo.explore(frozenset((0, 1)))
        assert len(second.expressions) == count

    def test_empty_group_key_rejected(self):
        memo = Memo(JoinGraph.build(chain_block(2)))
        with pytest.raises(OptimizerError):
            memo.group(frozenset())


def brute_force_best_cost(block, leaf_stats, config, cluster):
    """Exhaustively enumerate all bushy plans and return the best cost."""
    from repro.optimizer.cardinality import CardinalityModel
    from repro.optimizer.rules import JoinContext, join_candidates

    graph = JoinGraph.build(block)
    cardinality = CardinalityModel(block, leaf_stats)
    cost_model = JoinCostModel(config, cluster)

    def plans(members):
        if len(members) == 1:
            index = next(iter(members))
            block_leaf = graph.leaf(index)
            stats = cardinality.leaf_stats(block_leaf)
            yield PhysLeaf(aliases=block_leaf.aliases,
                           est_rows=stats.row_count,
                           est_bytes=stats.size_bytes, cost=0.0,
                           leaf=block_leaf)
            return
        members_list = sorted(members)
        anchorless = members_list[1:]
        for mask in range(0, 1 << len(anchorless)):
            subset = frozenset(
                [members_list[0]] + [anchorless[i]
                                     for i in range(len(anchorless))
                                     if mask & (1 << i)]
            )
            complement = members - subset
            if not complement:
                continue
            for left_key, right_key in ((subset, complement),
                                        (complement, subset)):
                if not (graph.is_connected(left_key)
                        and graph.is_connected(complement)
                        and graph.edges_between(left_key, right_key)):
                    continue
                left_aliases = graph.aliases_of(left_key)
                right_aliases = graph.aliases_of(right_key)
                combined = left_aliases | right_aliases
                estimate = cardinality.estimate(combined)
                context = JoinContext(
                    combined, estimate.rows, estimate.bytes,
                    block.conditions_between(left_aliases, right_aliases),
                    (),
                )
                for left_plan in plans(left_key):
                    for right_plan in plans(right_key):
                        yield from join_candidates(left_plan, right_plan,
                                                   context, cost_model)

    all_members = frozenset(range(graph.size))
    return min(plan.cost for plan in plans(all_members))


class TestOptimality:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force_on_chains(self, n):
        block = chain_block(n)
        sizes = {chr(ord("a") + i): (100.0 * (i + 1), 1000.0 * (i + 1))
                 for i in range(n)}
        config = OptimizerConfig()
        cluster = ClusterConfig(task_memory_bytes=1500)
        leaf_stats = stats_for(block, sizes)
        result = JoinOptimizer(block, leaf_stats, config, cluster).optimize()
        best = brute_force_best_cost(block, leaf_stats, config, cluster)
        assert result.cost == pytest.approx(best)

    def test_pruned_search_matches_brute_force_on_five_leaves(self):
        block = chain_block(5)
        sizes = {chr(ord("a") + i): (50.0 * (i + 2), 700.0 * (i + 2))
                 for i in range(5)}
        config, cluster = OptimizerConfig(), ClusterConfig()
        leaf_stats = stats_for(block, sizes)
        result = JoinOptimizer(block, leaf_stats, config, cluster).optimize()
        best = brute_force_best_cost(block, leaf_stats, config, cluster)
        assert result.cost == pytest.approx(best)


class TestPlanShapes:
    def test_single_leaf_block(self):
        block = JoinBlock("one", (leaf("a"),), ())
        result = optimize(block, {"a": (10.0, 100.0)})
        assert isinstance(result.plan, PhysLeaf)
        assert result.cost == 0.0

    def test_small_builds_become_broadcast(self):
        block = chain_block(3)
        sizes = {"a": (10000.0, 500000.0), "b": (10.0, 100.0),
                 "c": (10.0, 100.0)}
        result = optimize(block, sizes, task_memory_bytes=1000)
        summary = summarize_plan(result.plan)
        assert summary.broadcast_joins == 2
        assert summary.repartition_joins == 0

    def test_large_builds_become_repartition(self):
        block = chain_block(2)
        sizes = {"a": (10000.0, 500000.0), "b": (10000.0, 500000.0)}
        result = optimize(block, sizes, task_memory_bytes=1000)
        assert summarize_plan(result.plan).repartition_joins == 1

    def test_probe_is_big_side_build_is_small_side(self):
        block = chain_block(2)
        sizes = {"a": (10000.0, 500000.0), "b": (10.0, 100.0)}
        result = optimize(block, sizes, task_memory_bytes=1000)
        plan = result.plan
        assert isinstance(plan, PhysJoin)
        assert plan.method == BROADCAST
        assert plan.build.aliases == {"b"}

    def test_star_produces_chain(self):
        leaves = (leaf("f"),) + tuple(leaf(f"d{i}") for i in range(3))
        conditions = tuple(
            JoinCondition(ref("f", f"k{i}"), ref(f"d{i}", "k"))
            for i in range(3)
        )
        block = JoinBlock("star", leaves, conditions)
        sizes = {"f": (100000.0, 5_000_000.0)}
        sizes.update({f"d{i}": (10.0, 100.0) for i in range(3)})
        result = optimize(block, sizes, task_memory_bytes=1000)
        summary = summarize_plan(result.plan)
        assert summary.broadcast_joins == 3
        assert summary.chained_joins == 2  # one map-only job

    def test_bushy_plan_produced_when_cheaper(self):
        # Two big relations each with a tiny dimension: joining the two
        # reduced sides is cheaper bushy than any left-deep order.
        leaves = (leaf("r"), leaf("s"), leaf("dr"), leaf("ds"))
        conditions = (
            JoinCondition(ref("r", "k"), ref("s", "k")),
            JoinCondition(ref("r", "a"), ref("dr", "a")),
            JoinCondition(ref("s", "b"), ref("ds", "b")),
        )
        block = JoinBlock("bushy", leaves, conditions)
        sizes = {"r": (50000.0, 3_000_000.0), "s": (50000.0, 3_000_000.0),
                 "dr": (5.0, 50.0), "ds": (5.0, 50.0)}
        result = optimize(block, sizes, task_memory_bytes=1000)
        assert not summarize_plan(result.plan).is_left_deep

    def test_cyclic_block_rejected(self):
        leaves = (leaf("a"), leaf("b"), leaf("c"))
        conditions = (
            JoinCondition(ref("a", "k"), ref("b", "k")),
            JoinCondition(ref("b", "j"), ref("c", "j")),
            JoinCondition(ref("c", "i"), ref("a", "i")),
        )
        block = JoinBlock("cycle", leaves, conditions)
        sizes = {x: (10.0, 100.0) for x in "abc"}
        with pytest.raises(UnsupportedQueryError):
            optimize(block, sizes)

    def test_non_local_predicate_placed_at_covering_join(self):
        block = chain_block(3)
        pred = UdfPredicate(Udf("u", lambda x, y: True),
                            (ref("a", "x"), ref("c", "y")))
        block = JoinBlock(block.name, block.leaves, block.conditions,
                          (pred,))
        sizes = {"a": (100.0, 1000.0), "b": (100.0, 1000.0),
                 "c": (100.0, 1000.0)}
        result = optimize(block, sizes)
        # The predicate must appear exactly once, at a join covering a+c.
        placements = []

        def visit(node):
            if isinstance(node, PhysJoin):
                if pred in node.applied_predicates:
                    placements.append(node)
                visit(node.left)
                visit(node.right)

        visit(result.plan)
        assert len(placements) == 1
        assert {"a", "c"} <= placements[0].aliases

    def test_diagnostics_populated(self):
        block = chain_block(4)
        sizes = {chr(ord("a") + i): (100.0, 1000.0) for i in range(4)}
        result = optimize(block, sizes)
        assert result.groups_explored >= 4
        assert result.plans_considered > 0
        assert result.simulated_seconds == pytest.approx(
            simulated_optimizer_seconds(4)
        )

    def test_simulated_seconds_grow_exponentially(self):
        assert simulated_optimizer_seconds(8) / \
            simulated_optimizer_seconds(5) == pytest.approx(27.0)


# -- plan choice across budgets, safety factors and the chain ablation ---------

SWEEP_QUERIES = ("Q7", "Q8'", "Q9'", "Q10", "SkewJoin", "SkewFunnel")
SWEEP_BUDGETS_KIB = (1, 8, 24, 96, 400)
SWEEP_CHAIN_RULE = (True, False)
SWEEP_SAFETY_FACTORS = (1.0, 1.3, 3.0)

#: sha256 of the sweep's ``(query, budget, chain, safety, signature,
#: repr(cost), plans_considered)`` rows, taken before the three join
#: rules and the optimizer's costing post-pass merged into one candidate
#: generator and one cost formula, and re-pinned once when the skew join
#: began to peel every key that would straggle a reducer. Re-pin after an
#: intended change with ``PYTHONPATH=src python -m tests.test_search``.
SWEEP_DIGEST = "6f821ea66f79e5f30d52b99ca10b57c782c6b6e0e8693019de864f020c30c9bc"


def optimizer_sweep() -> list[tuple]:
    """Optimize every sweep query under oracle leaf statistics.

    Asserts on the way that each winner is already chain-marked and
    costed the way :meth:`JoinCostModel.apply_chain_rule` would mark and
    cost it, so no costing pass after the search could change it.
    """
    tpch, skewed = oracle_tables(), skewed_oracle_tables()
    rows = []
    for query in SWEEP_QUERIES:
        tables = skewed if query in SKEWED_WORKLOADS else tpch
        workload = ORACLE_WORKLOADS[query]()
        dyno = Dyno(tables, udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec, query).block
        stats = oracle_leaf_stats(tables, block)
        for kib, chain, safety in product(SWEEP_BUDGETS_KIB,
                                          SWEEP_CHAIN_RULE,
                                          SWEEP_SAFETY_FACTORS):
            config = replace(DEFAULT_CONFIG.optimizer,
                             enable_chain_rule=chain,
                             broadcast_safety_factor=safety)
            cluster = replace(DEFAULT_CONFIG.cluster,
                              task_memory_bytes=kib * 1024)
            result = JoinOptimizer(block, stats, config, cluster).optimize()
            model = JoinCostModel(config, cluster)
            assert (model.apply_chain_rule(result.plan)
                    == result.plan), (query, kib, chain, safety)
            rows.append((query, kib, chain, safety, result.signature,
                         repr(result.cost), result.plans_considered))
    return rows


def sweep_digest(rows: list[tuple]) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_plans_match_digest_taken_before_the_rules_merged():
    rows = optimizer_sweep()
    assert len(rows) == 180
    assert sweep_digest(rows) == SWEEP_DIGEST


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    print(sweep_digest(optimizer_sweep()))
