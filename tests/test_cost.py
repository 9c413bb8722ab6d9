"""Join cost formulas and the broadcast-chain rule."""

import pytest

from repro.config import ClusterConfig, OptimizerConfig
from repro.jaql.blocks import SOURCE_TABLE, BlockLeaf
from repro.jaql.expr import JoinCondition, ref
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.plans import (
    BROADCAST,
    REPARTITION,
    SKEW,
    PhysJoin,
    PhysLeaf,
    pipeline_build_bytes,
    summarize_plan,
)

CONFIG = OptimizerConfig(cjob=0.0)
#: the broadcast and chain rules' budget Mmax.
CLUSTER = ClusterConfig(task_memory_bytes=1000)


def leaf(alias, rows=100.0, size=1000.0, table="t"):
    block_leaf = BlockLeaf(frozenset((alias,)), SOURCE_TABLE, table)
    return PhysLeaf(aliases=frozenset((alias,)), est_rows=rows,
                    est_bytes=size, cost=0.0, leaf=block_leaf)


def join(left, right, method=BROADCAST, rows=10.0, size=100.0,
         chained=False, cost=0.0):
    condition = JoinCondition(
        ref(sorted(left.aliases)[0], "k"), ref(sorted(right.aliases)[0], "k")
    )
    return PhysJoin(
        aliases=left.aliases | right.aliases, est_rows=rows, est_bytes=size,
        cost=cost, method=method, left=left, right=right,
        conditions=(condition,), chained=chained,
    )


class TestFormulas:
    def test_repartition_formula(self):
        model = JoinCostModel(CONFIG, CLUSTER)
        expected = CONFIG.crep * (100 + 50) + CONFIG.cout * 30
        cost = model.join_cost(REPARTITION, leaf("a", size=100),
                               leaf("b", size=50), 30)
        assert cost == pytest.approx(expected)

    def test_broadcast_formula(self):
        model = JoinCostModel(CONFIG, CLUSTER)
        expected = (CONFIG.cprobe * 100 + CONFIG.cbuild * 50
                    + CONFIG.cout * 30)
        cost = model.join_cost(BROADCAST, leaf("a", size=100),
                               leaf("b", size=50), 30)
        assert cost == pytest.approx(expected)

    def test_skew_formula(self):
        """Heavy probe bytes pay broadcast rates, the tails repartition."""
        model = JoinCostModel(CONFIG, CLUSTER)
        expected = (CONFIG.crep * (0.6 * 100 + 0.9 * 50)
                    + CONFIG.cprobe * 0.4 * 100 + CONFIG.cbuild * 50
                    + CONFIG.cout * 30)
        cost = model.join_cost(SKEW, leaf("a", size=100),
                               leaf("b", size=50), 30,
                               heavy_probe_fraction=0.4,
                               heavy_build_fraction=0.1)
        assert cost == pytest.approx(expected)

    def test_broadcast_cheaper_when_build_fits(self):
        """The paper's crep >> cprobe ordering."""
        model = JoinCostModel(CONFIG, CLUSTER)
        probe, build = leaf("a", size=1000), leaf("b", size=100)
        assert (model.join_cost(BROADCAST, probe, build, 50)
                < model.join_cost(REPARTITION, probe, build, 50))

    def test_job_constant_added(self):
        with_job = OptimizerConfig(cjob=500.0)
        model = JoinCostModel(with_job, CLUSTER)
        cost = model.join_cost(REPARTITION, leaf("a", size=0),
                               leaf("b", size=0), 0)
        assert cost == pytest.approx(500.0)

    def test_fits_in_memory_uses_safety_factor(self):
        tight = OptimizerConfig(broadcast_safety_factor=2.0)
        model = JoinCostModel(tight, CLUSTER)
        assert model.fits_in_memory(499)
        assert not model.fits_in_memory(501)


class TestChainRule:
    def test_consecutive_broadcasts_chain_when_fitting(self):
        # ((a ./b b) ./b c): builds 300 + 300 <= 1000 -> chain.
        inner = join(leaf("a", size=5000), leaf("b", size=300))
        outer = join(inner, leaf("c", size=300))
        marked = JoinCostModel(CONFIG, CLUSTER).apply_chain_rule(outer)
        summary = summarize_plan(marked)
        assert summary.chained_joins == 1

    def test_chain_breaks_on_budget(self):
        inner = join(leaf("a", size=5000), leaf("b", size=600))
        outer = join(inner, leaf("c", size=600))  # 600+600 > 1000
        marked = JoinCostModel(CONFIG, CLUSTER).apply_chain_rule(outer)
        assert summarize_plan(marked).chained_joins == 0

    def test_three_join_chain_budget_is_cumulative(self):
        j1 = join(leaf("a", size=5000), leaf("b", size=400))
        j2 = join(j1, leaf("c", size=400))
        j3 = join(j2, leaf("d", size=400))  # 1200 > 1000: must break here
        marked = JoinCostModel(CONFIG, CLUSTER).apply_chain_rule(j3)
        summary = summarize_plan(marked)
        assert summary.chained_joins == 1  # only j2 chains with j1

    def test_chains_off_under_the_ablation(self):
        inner = join(leaf("a", size=5000), leaf("b", size=300))
        ablated = OptimizerConfig(enable_chain_rule=False)
        assert JoinCostModel(CONFIG, CLUSTER).chains(inner, 300)
        assert not JoinCostModel(ablated, CLUSTER).chains(inner, 300)

    def test_repartition_breaks_chain(self):
        inner = join(leaf("a", size=5000), leaf("b", size=100),
                     method=REPARTITION)
        outer = join(inner, leaf("c", size=100))
        marked = JoinCostModel(CONFIG, CLUSTER).apply_chain_rule(outer)
        assert summarize_plan(marked).chained_joins == 0

    def test_chained_cost_is_lower(self):
        model = JoinCostModel(CONFIG, CLUSTER)
        inner = join(leaf("a", size=5000), leaf("b", size=300),
                     rows=50, size=4000)
        outer = join(inner, leaf("c", size=300), rows=10, size=500)
        chained_plan = model.apply_chain_rule(outer)

        # Force-unchain by separating with a huge budget violation.
        no_chain_config = OptimizerConfig(cjob=0.0)
        unchained = PhysJoin(
            aliases=outer.aliases, est_rows=10, est_bytes=500, cost=0.0,
            method=BROADCAST, left=inner, right=leaf("c", size=2000),
            conditions=outer.conditions,
        )
        unchained_plan = JoinCostModel(no_chain_config, CLUSTER).apply_chain_rule(
            unchained)
        assert chained_plan.cost < unchained_plan.cost

    def test_chain_formula_matches_paper(self):
        """C(chain) = cprobe|R| + cbuild sum|Si| + cout|final| (+cjob)."""
        model = JoinCostModel(CONFIG, CLUSTER)
        inner = join(leaf("a", size=5000), leaf("b", size=300),
                     rows=50, size=4000)
        outer = join(inner, leaf("c", size=300), rows=10, size=500)
        plan = model.apply_chain_rule(outer)
        expected = (CONFIG.cprobe * 5000
                    + CONFIG.cbuild * (300 + 300)
                    + CONFIG.cout * 500)
        assert plan.cost == pytest.approx(expected)

    def test_chain_rule_idempotent(self):
        model = JoinCostModel(CONFIG, CLUSTER)
        inner = join(leaf("a", size=5000), leaf("b", size=300))
        outer = join(inner, leaf("c", size=300))
        once = model.apply_chain_rule(outer)
        twice = model.apply_chain_rule(once)
        assert once.cost == pytest.approx(twice.cost)
        assert summarize_plan(once).chained_joins == \
            summarize_plan(twice).chained_joins


class TestPipelineBuildBytes:
    def test_leaf_is_zero(self):
        assert pipeline_build_bytes(leaf("a")) == 0.0

    def test_unchained_broadcast_counts_own_build(self):
        j = join(leaf("a"), leaf("b", size=300))
        assert pipeline_build_bytes(j) == 300.0

    def test_chained_accumulates(self):
        inner = join(leaf("a"), leaf("b", size=300))
        outer = join(inner, leaf("c", size=200), chained=True)
        assert pipeline_build_bytes(outer) == 500.0

    def test_repartition_is_zero(self):
        j = join(leaf("a"), leaf("b"), method=REPARTITION)
        assert pipeline_build_bytes(j) == 0.0
