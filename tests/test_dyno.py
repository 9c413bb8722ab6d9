"""Dyno facade: SQL execution, stages, multi-block queries."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.dyno import Dyno, infer_schema
from repro.errors import PlanError
from repro.jaql.expr import OrderBy, Project, QuerySpec, ref
from repro.workloads.queries import q1_restaurants, q2, q10
from tests.conftest import assert_same_rows, reference_rows


class TestSqlPath:
    def test_execute_sql_string(self, dyno_factory, tpch_tables):
        dyno = dyno_factory()
        execution = dyno.execute(
            "SELECT n.n_name AS name, r.r_name AS region "
            "FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'",
            name="asia",
        )
        assert execution.query_name == "asia"
        asia_nations = sum(
            1 for row in tpch_tables["nation"].rows
            if row["n_regionkey"] == 2
        )
        assert len(execution.rows) == asia_nations
        assert all(row["region"] == "ASIA" for row in execution.rows)

    def test_single_table_query(self, dyno_factory, tpch_tables):
        dyno = dyno_factory()
        execution = dyno.execute(
            "SELECT c.c_name AS name FROM customer c "
            "WHERE c.c_mktsegment = 'BUILDING'"
        )
        expected = sum(1 for row in tpch_tables["customer"].rows
                       if row["c_mktsegment"] == "BUILDING")
        assert len(execution.rows) == expected

    def test_group_order_limit_pipeline(self, dyno_factory, tpch_tables):
        dyno = dyno_factory()
        execution = dyno.execute(
            "SELECT o.o_orderpriority AS priority, count(*) AS n "
            "FROM orders o GROUP BY o.o_orderpriority "
            "ORDER BY n DESC LIMIT 3"
        )
        assert len(execution.rows) == 3
        counts = [row["n"] for row in execution.rows]
        assert counts == sorted(counts, reverse=True)
        assert execution.stage_seconds > 0  # the group-by ran as a job

    def test_restaurant_q1(self, dyno_factory, restaurant_tables):
        workload = q1_restaurants()
        dyno = dyno_factory(udfs=workload.udfs, tables=restaurant_tables)
        execution = dyno.execute(workload.final_spec)
        expected = reference_rows(restaurant_tables, workload.final_spec)
        assert_same_rows(execution.rows, expected)


class TestClientBoundary:
    """Rows are engine-wide immutable and shared between DFS files, the
    per-alias scan memo and later queries' outputs; what ``Dyno`` hands a
    caller is the caller's own."""

    SQL = ("SELECT n.n_name AS name FROM nation n, region r "
           "WHERE n.n_regionkey = r.r_regionkey")

    def core(self, dyno, ordered):
        """The join without its projection (a standing query's core)."""
        node = dyno.parse(self.SQL).root
        while isinstance(node, Project):
            node = node.children()[0]
        if ordered:  # a tail that only re-orders the file's dicts
            node = OrderBy(node, (ref("n", "n_name"),))
        return QuerySpec("core", node)

    @pytest.mark.parametrize("ordered", [False, True],
                             ids=["file-rows", "re-ordered"])
    def test_mutating_a_result_row_reaches_no_file(self, dyno_factory,
                                                   ordered):
        dyno = dyno_factory()
        core = self.core(dyno, ordered)
        first = dyno.execute(core)
        original = dict(first.rows[0])
        first.rows[0]["n.n_name"] = "MUTATED"
        for name in dyno.dfs.list_files():
            assert all(row.get("n.n_name") != "MUTATED"
                       and row.get("n_name") != "MUTATED"
                       for row in dyno.dfs.open(name).rows), name
        assert dyno.execute(core).rows[0] == original

class TestStages:
    def test_q10_full_pipeline(self, dyno_factory, tpch_tables):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec)
        expected = reference_rows(tpch_tables, workload.final_spec)
        # Limit 20: interpreter sorts by the same key; revenue sets match.
        assert len(execution.rows) == len(expected)
        assert sorted(round(r["revenue"], 2) for r in execution.rows) == \
            sorted(round(r["revenue"], 2) for r in expected)

    def test_timing_properties(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec)
        assert execution.total_seconds == pytest.approx(
            execution.pilot_seconds + execution.optimizer_seconds
            + execution.execution_seconds
        )
        assert execution.plans


class TestMultiBlock:
    def test_q2_matches_manual_two_phase_reference(self, dyno_factory,
                                                   tpch_tables):
        workload = q2()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute_multi(workload.stages)

        # Reference: run the inner block through the interpreter, register
        # its output, then interpret the outer query.
        from repro.data.table import Table
        from repro.jaql.interpreter import Interpreter
        from repro.jaql.rewrites import push_down_filters
        from repro.jaql.expr import QuerySpec

        inner_spec, inner_name = workload.stages[0]
        inner_rows = Interpreter(tpch_tables).run(
            QuerySpec("i", push_down_filters(inner_spec.root))
        )
        extended = dict(tpch_tables)
        extended[inner_name] = Table(inner_name, infer_schema(inner_rows),
                                     inner_rows)
        outer_spec, _ = workload.stages[1]
        expected = Interpreter(extended).run(
            QuerySpec("o", push_down_filters(outer_spec.root))
        )
        assert_same_rows(execution.rows, expected)
        assert len(execution.block_results) == 2

    def test_multi_requires_final_stage_unnamed(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        with pytest.raises(PlanError):
            dyno.execute_multi([(workload.final_spec, "oops")])

    def test_multi_requires_intermediate_names(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        with pytest.raises(PlanError):
            dyno.execute_multi([
                (workload.final_spec, None),
                (workload.final_spec, None),
            ])

    def test_empty_stage_list_rejected(self, dyno_factory):
        with pytest.raises(PlanError):
            dyno_factory().execute_multi([])


class TestInferSchema:
    def test_types_inferred(self):
        schema = infer_schema([
            {"a": 1, "b": "x", "c": 1.5, "d": True},
        ])
        assert schema.type_of("a").kind == "int"
        assert schema.type_of("b").kind == "string"
        assert schema.type_of("c").kind == "float"
        assert schema.type_of("d").kind == "bool"

    def test_first_non_null_wins(self):
        schema = infer_schema([{"a": None}, {"a": 3}])
        assert schema.type_of("a").kind == "int"

    def test_union_of_fields(self):
        schema = infer_schema([{"a": 1}, {"b": 2}])
        assert set(schema.names) == {"a", "b"}


class TestRegisterTable:
    def test_registered_table_is_queryable(self, dyno_factory):
        from repro.data.schema import INT, Schema
        from repro.data.table import Table

        dyno = dyno_factory()
        dyno.register_table("tiny", Table(
            "tiny", Schema.of(k=INT), [{"k": 1}, {"k": 2}]
        ))
        execution = dyno.execute("SELECT t.k AS k FROM tiny t")
        assert sorted(row["k"] for row in execution.rows) == [1, 2]


class TestExplain:
    def test_explain_with_pilots(self, dyno_factory):
        from repro.workloads.queries import q10 as q10_factory

        workload = q10_factory()
        dyno = dyno_factory(udfs=workload.udfs)
        report = dyno.explain(workload.final_spec)
        assert "join block" in report
        assert "pilot runs:" in report
        assert "best plan" in report
        assert "job graph:" in report
        assert "then: groupby stage" in report

    def test_explain_with_oracle(self, dyno_factory):
        from repro.workloads.queries import q10 as q10_factory

        workload = q10_factory()
        dyno = dyno_factory(udfs=workload.udfs)
        report = dyno.explain(workload.final_spec, run_pilots=False)
        assert "oracle" in report
        assert "./" in report  # a join operator was rendered

    def test_explain_does_not_execute_the_plan(self, dyno_factory):
        dyno = dyno_factory()
        report = dyno.explain(
            "SELECT n.n_name AS x FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey",
            run_pilots=False,
        )
        assert report
        # Only base tables live in the DFS: nothing was materialized.
        outputs = [f for f in dyno.dfs.list_files() if ".out" in f]
        assert outputs == []


    def test_explain_plans_like_execute_under_learned_corrections(
            self, tpch_tables, tmp_path):
        """Explain goes through the executor's planning call, so a store
        with an active correction shapes the reported plan exactly as it
        shapes the plan ``execute`` runs next -- and explaining leaves
        the store as it found it."""
        from repro.feedback import FeedbackStore, block_feedback_context
        from repro.workloads.queries import q10 as q10_factory

        workload = q10_factory()
        feedback = FeedbackStore()
        dyno = Dyno(tpch_tables, udfs=workload.udfs, feedback=feedback)
        for run in range(3):
            dyno.execute(workload.final_spec, name=f"warm{run}")
        block = dyno.prepare(workload.final_spec).block
        context = block_feedback_context(block)
        assert feedback.correction_token(context.alias_identity), \
            "three runs should have left an active correction"

        feedback.save(tmp_path / "before.json")
        report = dyno.explain(workload.final_spec)
        feedback.save(tmp_path / "after.json")
        # Explaining must not teach: no audit, no recorded plan choice.
        assert (tmp_path / "after.json").read_text() == \
            (tmp_path / "before.json").read_text()

        executed = dyno.execute(workload.final_spec, name="after")
        root = executed.block_results[0].plans[0]
        assert (f"[~{root.est_rows:.0f} rows, cost {root.cost:.1f}]"
                in report.split("best plan")[1].splitlines()[1])


class TestStatisticsPersistence:
    def test_round_trip_skips_pilots(self, dyno_factory, tmp_path):
        from repro.workloads.queries import q10 as q10_factory

        workload = q10_factory()
        first = dyno_factory(udfs=workload.udfs)
        first.execute(workload.final_spec)
        path = tmp_path / "stats.json"
        first.save_statistics(path)

        second = dyno_factory(udfs=workload.udfs)
        count = second.load_statistics(path)
        assert count > 0
        execution = second.execute(workload.final_spec)
        # Every base-leaf signature was found: no pilot jobs ran.
        assert execution.pilot_seconds == 0.0


class TestSharedMetastore:
    def test_an_initially_empty_shared_store_is_shared(self, tpch_tables):
        """Regression: ``metastore or StatisticsMetastore()`` replaced a
        caller's *empty* store (``len() == 0``) with a private one, so
        the statistics of one Dyno never reached the other."""
        from repro.core.dyno import Dyno
        from repro.stats.metastore import StatisticsMetastore
        from repro.workloads.queries import q10 as q10_factory

        workload = q10_factory()
        shared = StatisticsMetastore()
        first = Dyno(tpch_tables, udfs=workload.udfs, metastore=shared)
        second = Dyno(tpch_tables, udfs=workload.udfs, metastore=shared)
        assert first.metastore is shared and second.metastore is shared
        assert first.execute(workload.final_spec).pilot_seconds > 0.0
        # Every base-leaf signature is already there: no pilot jobs run.
        assert second.execute(workload.final_spec).pilot_seconds == 0.0


def test_the_engine_imports_no_numpy():
    """``pyproject.toml`` declares ``dependencies = []``: importing the
    package and running a query end to end must not pull numpy in, even
    where it is installed (only ``benchmarks.suite run`` imports it, to
    record its version)."""
    script = (
        "import sys\n"
        "import repro\n"
        "dyno = repro.Dyno(repro.generate_tpch(0.01).tables)\n"
        "rows = dyno.execute(\n"
        "    'SELECT n.n_name AS name FROM nation n, region r '\n"
        "    'WHERE n.n_regionkey = r.r_regionkey AND n.n_nationkey > 3'\n"
        ").rows\n"
        "assert rows\n"
        "print('numpy' in sys.modules)\n"
    )
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=source_root),
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout.strip() == "False"
