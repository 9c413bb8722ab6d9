"""Plan compiler: job-graph shapes and execution correctness."""

import pytest

from repro.core.baselines import oracle_leaf_stats
from repro.jaql.compiler import PlanCompiler
from repro.jaql.expr import Aggregate, GroupBy, ref
from repro.optimizer.plans import summarize_plan
from repro.optimizer.search import JoinOptimizer
from tests.conftest import assert_same_rows


def prepare(dyno, workload):
    extracted = dyno.prepare(workload.final_spec)
    stats = oracle_leaf_stats(dyno.tables, extracted.block)
    optimizer = JoinOptimizer(extracted.block, stats,
                              dyno.config.optimizer, dyno.config.cluster)
    plan = optimizer.optimize().plan
    compiler = PlanCompiler(dyno.dfs, dyno.config, "test")
    return extracted, plan, compiler.compile_block(plan)


def run_graph(dyno, graph):
    completed = set()
    while len(completed) < graph.job_count:
        ready = graph.leaf_jobs(completed)
        assert ready, "job graph made no progress"
        for compiled in ready:
            dyno.runtime.execute(compiled.job)
            completed.add(compiled.name)
    return dyno.dfs.read_all(graph.final_output)


class TestGraphShapes:
    def test_chain_collapses_into_few_jobs(self, dyno_factory):
        from repro.workloads.queries import q9_prime

        workload = q9_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        _, plan, graph = prepare(dyno, workload)
        summary = summarize_plan(plan)
        # One job per unchained join, plus pre-filter jobs for big builds.
        unchained = summary.joins - summary.chained_joins
        assert graph.job_count >= unchained
        assert graph.job_count <= summary.joins + len(plan.leaves())

    def test_final_output_job_marked(self, dyno_factory):
        from repro.workloads.queries import q10

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, graph = prepare(dyno, workload)
        finals = [c for c in graph.jobs if c.final]
        assert len(finals) == 1
        assert finals[0].job.output_name == graph.final_output

    def test_dependencies_reference_graph_jobs(self, dyno_factory):
        from repro.workloads.queries import q8_prime

        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, graph = prepare(dyno, workload)
        names = {compiled.name for compiled in graph.jobs}
        for compiled in graph.jobs:
            assert set(compiled.depends_on) <= names

    def test_uncertainty_metric_counts_joins(self, dyno_factory):
        from repro.workloads.queries import q10

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        _, plan, graph = prepare(dyno, workload)
        assert (sum(compiled.join_count for compiled in graph.jobs)
                == summarize_plan(plan).joins)

    def test_describe_lists_jobs(self, dyno_factory):
        from repro.workloads.queries import q10

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, graph = prepare(dyno, workload)
        text = graph.describe()
        for compiled in graph.jobs:
            assert compiled.name in text


class TestExecutionCorrectness:
    @pytest.mark.parametrize("factory_name",
                             ["q7", "q8_prime", "q9_prime", "q10"])
    def test_optimizer_plan_matches_interpreter(self, dyno_factory,
                                                tpch_tables, factory_name):
        import repro.workloads.queries as queries

        workload = getattr(queries, factory_name)()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted, _, graph = prepare(dyno, workload)
        rows = run_graph(dyno, graph)

        # Reference: interpreter over the join block only (no stages).
        from repro.jaql.rewrites import push_down_filters

        spec = workload.final_spec
        pushed = push_down_filters(spec.root)
        # Strip stages (Project/OrderBy/GroupBy) to reach the join tree.
        from repro.jaql.expr import GroupBy as G, OrderBy as O, Project as P

        node = pushed
        while isinstance(node, (G, O, P)):
            node = node.children()[0]
        from repro.jaql.interpreter import Interpreter

        expected = Interpreter(tpch_tables).evaluate(node)
        assert_same_rows(rows, expected)

    def test_every_left_deep_order_is_correct(self, dyno_factory,
                                              tpch_tables):
        """Any valid order the compiler executes returns the same rows."""
        from repro.core.baselines import (
            build_left_deep_plan,
            enumerate_connected_orders,
            jaql_file_size_stats,
        )
        from repro.workloads.queries import q10

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        block = extracted.block
        stats = jaql_file_size_stats(dyno.tables, block)
        file_sizes = {
            leaf.source_name: dyno.dfs.file_size(leaf.source_name)
            for leaf in block.base_leaves()
        }
        orders = list(enumerate_connected_orders(block))[:4]
        results = []
        for index, order in enumerate(orders):
            plan = build_left_deep_plan(block, order, stats, file_sizes,
                                        dyno.config)
            compiler = PlanCompiler(dyno.dfs, dyno.config, f"ord{index}")
            graph = compiler.compile_block(plan)
            results.append(run_graph(dyno, graph))
        for rows in results[1:]:
            assert_same_rows(rows, results[0])


class TestGroupByJob:
    def test_group_by_job_matches_interpreter(self, dyno_factory,
                                              tpch_tables):
        dyno = dyno_factory()
        # Materialize a qualified scan of orders, then group by priority.
        rows = [
            {"o.o_orderpriority": row["o_orderpriority"],
             "o.o_totalprice": row["o_totalprice"]}
            for row in tpch_tables["orders"].rows
        ]
        from repro.core.dyno import infer_schema

        dyno.dfs.write_rows("qualified_orders", infer_schema(rows), rows)
        stage = GroupBy(
            None,  # child unused by compile_group_by
            (ref("o", "o_orderpriority"),),
            (Aggregate("count", None, "n"),
             Aggregate("sum", ref("o", "o_totalprice"), "total")),
        )
        compiler = PlanCompiler(dyno.dfs, dyno.config, "gb")
        compiled = compiler.compile_group_by("qualified_orders", stage)
        dyno.runtime.execute(compiled.job)
        output = dyno.dfs.read_all(compiled.job.output_name)

        from collections import defaultdict

        counts = defaultdict(int)
        totals = defaultdict(float)
        for row in rows:
            counts[row["o.o_orderpriority"]] += 1
            totals[row["o.o_orderpriority"]] += row["o.o_totalprice"]
        assert {r["o.o_orderpriority"]: r["n"] for r in output} == counts
        for row in output:
            assert row["total"] == pytest.approx(
                totals[row["o.o_orderpriority"]]
            )
