"""SQL-dialect parser: clauses, paths, UDFs, join-tree heuristic."""

import pytest

from repro.errors import ParseError, PlanError
from repro.jaql.expr import (
    Filter,
    GroupBy,
    Join,
    Or,
    OrderBy,
    Project,
    Scan,
    UdfPredicate,
    walk,
)
from repro.jaql.functions import Udf, UdfRegistry
from repro.jaql.parser import parse_query
from tests.conftest import reference_rows


def registry():
    reg = UdfRegistry()
    reg.register(Udf("check", lambda *args: True))
    return reg


def scans_of(spec):
    return [node for node in walk(spec.root) if isinstance(node, Scan)]


class TestBasics:
    def test_simple_select(self):
        spec = parse_query("SELECT t.a FROM tbl t")
        assert isinstance(spec.root, Project)
        assert isinstance(spec.root.child, Scan)
        assert spec.alias_tables == {"t": "tbl"}

    def test_alias_defaults_to_table_name(self):
        spec = parse_query("SELECT tbl.a FROM tbl")
        assert scans_of(spec)[0].alias == "tbl"

    def test_select_alias(self):
        spec = parse_query("SELECT t.a AS label FROM tbl t")
        assert spec.root.outputs[0][1] == "label"

    def test_where_comparison_literal_types(self):
        spec = parse_query(
            "SELECT t.a FROM tbl t "
            "WHERE t.a = 5 AND t.b = 1.5 AND t.c = 'text'"
        )
        predicates = [node.predicate for node in walk(spec.root)
                      if isinstance(node, Filter)]
        literals = {pred.right for pred in predicates}
        assert literals == {5, 1.5, "text"}

    def test_nested_path(self):
        spec = parse_query(
            "SELECT r.name FROM restaurant r WHERE r.addr[0].zip = 94301"
        )
        predicate = next(node.predicate for node in walk(spec.root)
                         if isinstance(node, Filter))
        assert predicate.left.steps == (0, "zip")
        assert predicate.left.column == "addr"

    def test_string_escape(self):
        spec = parse_query("SELECT t.a FROM tbl t WHERE t.a = 'it\\'s'")
        predicate = next(node.predicate for node in walk(spec.root)
                         if isinstance(node, Filter))
        assert predicate.right == "it's"

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_negative_numeric_literals(self, op):
        """No arithmetic in the dialect: a sign before digits is a
        negative literal, with or without a space after the operator."""
        spec = parse_query(
            f"SELECT t.a FROM tbl t WHERE t.a {op} -808.93 AND t.b {op}-7"
        )
        predicates = [node.predicate for node in walk(spec.root)
                      if isinstance(node, Filter)]
        assert {(pred.op, repr(pred.right)) for pred in predicates} == \
            {(op, "-808.93"), (op, "-7")}

    def test_negative_supplier_balances_can_be_queried(self, tpch_tables):
        """End to end: TPC-H account balances go below zero."""
        spec = parse_query(
            "SELECT s.s_name AS name, s.s_acctbal AS balance "
            "FROM supplier s, nation n "
            "WHERE s.s_nationkey = n.n_nationkey AND s.s_acctbal >= -808.93 "
            "AND s.s_acctbal < -0.5"
        )
        rows = reference_rows(tpch_tables, spec)
        assert rows and all(-808.93 <= row["balance"] < -0.5 for row in rows)

    def test_counts_stay_unsigned(self):
        with pytest.raises(ParseError, match="LIMIT"):
            parse_query("SELECT t.a FROM tbl t LIMIT -1")
        with pytest.raises(ParseError, match="LIMIT"):
            parse_query("SELECT t.a FROM tbl t LIMIT 2.5")
        with pytest.raises(ParseError, match="array index"):
            parse_query("SELECT t.a[-1] FROM tbl t")

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError):
            parse_query("SELECT FROM tbl t")
        with pytest.raises(ParseError):
            parse_query("SELECT t.a FROM tbl t WHERE")
        with pytest.raises(ParseError):
            parse_query("SELECT t.a FROM tbl t trailing nonsense ???")


class TestJoins:
    def test_two_way_join(self):
        spec = parse_query(
            "SELECT a.x FROM t1 a, t2 b WHERE a.id = b.aid"
        )
        joins = [n for n in walk(spec.root) if isinstance(n, Join)]
        assert len(joins) == 1
        assert joins[0].conditions[0].describe() == "a.id = b.aid"

    def test_from_order_heuristic_avoids_cartesian(self):
        # b has no condition with a, but c does; Jaql picks c first.
        spec = parse_query(
            "SELECT a.x FROM t1 a, t2 b, t3 c "
            "WHERE a.id = c.aid AND c.id = b.cid"
        )
        aliases = [scan.alias for scan in scans_of(spec)]
        assert aliases == ["a", "c", "b"]

    def test_pure_cartesian_rejected(self):
        with pytest.raises(PlanError):
            parse_query("SELECT a.x FROM t1 a, t2 b")

    def test_self_join_aliases(self):
        spec = parse_query(
            "SELECT n1.name FROM nation n1, nation n2, link l "
            "WHERE n1.id = l.left AND n2.id = l.right"
        )
        aliases = {scan.alias for scan in scans_of(spec)}
        assert aliases == {"n1", "n2", "l"}

    def test_multi_condition_join_collected_together(self):
        spec = parse_query(
            "SELECT a.x FROM t1 a, t2 b "
            "WHERE a.k1 = b.k1 AND a.k2 = b.k2"
        )
        join = next(n for n in walk(spec.root) if isinstance(n, Join))
        assert len(join.conditions) == 2

    def test_filter_equality_between_same_alias_is_filter(self):
        spec = parse_query(
            "SELECT a.x FROM t1 a, t2 b WHERE a.id = b.aid AND a.x = a.y"
        )
        filters = [n for n in walk(spec.root) if isinstance(n, Filter)]
        assert len(filters) == 1


class TestUdfSyntax:
    def test_udf_call(self):
        spec = parse_query(
            "SELECT t.a FROM tbl t WHERE check(t.a, t.b)", udfs=registry()
        )
        predicate = next(node.predicate for node in walk(spec.root)
                         if isinstance(node, Filter))
        assert isinstance(predicate, UdfPredicate)
        assert [arg.describe() for arg in predicate.args] == ["t.a", "t.b"]

    def test_udf_equals_label_sugar(self):
        spec = parse_query(
            "SELECT t.a FROM tbl t WHERE check(t.a) = positive",
            udfs=registry(),
        )
        predicate = next(node.predicate for node in walk(spec.root)
                         if isinstance(node, Filter))
        assert isinstance(predicate, UdfPredicate)

    def test_unknown_udf_rejected(self):
        with pytest.raises(PlanError):
            parse_query("SELECT t.a FROM tbl t WHERE nosuch(t.a)")


class TestOrGroups:
    def test_parenthesized_disjunction(self):
        spec = parse_query(
            "SELECT a.x FROM t1 a, t2 b WHERE a.id = b.aid AND "
            "((a.x = 1 AND b.y = 2) OR (a.x = 2 AND b.y = 1))"
        )
        predicate = next(node.predicate for node in walk(spec.root)
                         if isinstance(node, Filter))
        assert isinstance(predicate, Or)
        assert len(predicate.parts) == 2

    def test_single_branch_group_unwraps(self):
        spec = parse_query(
            "SELECT t.a FROM tbl t WHERE (t.a = 1 AND t.b = 2)"
        )
        predicates = [n.predicate for n in walk(spec.root)
                      if isinstance(n, Filter)]
        assert len(predicates) == 1
        assert not isinstance(predicates[0], Or)


class TestGroupOrder:
    def test_group_by_with_aggregates(self):
        spec = parse_query(
            "SELECT t.a, sum(t.b) AS total, count(*) AS n "
            "FROM tbl t GROUP BY t.a"
        )
        group = next(n for n in walk(spec.root) if isinstance(n, GroupBy))
        assert [k.describe() for k in group.keys] == ["t.a"]
        assert [a.output_name for a in group.aggregates] == ["total", "n"]

    def test_count_star_only_for_count(self):
        with pytest.raises(ParseError):
            parse_query("SELECT sum(*) FROM tbl t")

    def test_order_by_desc_limit(self):
        spec = parse_query(
            "SELECT t.a FROM tbl t ORDER BY t.a DESC LIMIT 7"
        )
        order = next(n for n in walk(spec.root) if isinstance(n, OrderBy))
        assert order.descending
        assert order.limit == 7

    def test_order_by_bare_output_name(self):
        spec = parse_query(
            "SELECT t.a, sum(t.b) AS total FROM tbl t "
            "GROUP BY t.a ORDER BY total DESC"
        )
        order = next(n for n in walk(spec.root) if isinstance(n, OrderBy))
        assert order.keys[0].qualified == "total"

    def test_aggregate_without_group_by(self):
        spec = parse_query("SELECT count(*) AS n FROM tbl t")
        group = next(n for n in walk(spec.root) if isinstance(n, GroupBy))
        assert group.keys == ()


class TestPaperQueries:
    def test_q1_from_the_paper_parses(self):
        from repro.jaql.functions import default_registry

        spec = parse_query(
            """
            SELECT rs.name
            FROM restaurant rs, review rv, tweet t
            WHERE rs.id = rv.rsid AND rv.tid = t.id
            AND rs.addr[0].zip = 94301 AND rs.addr[0].state = 'CA'
            AND sentanalysis(rv.text) = positive
            AND checkid(t.verified, rv.stars)
            """,
            name="Q1", udfs=default_registry(),
        )
        assert spec.name == "Q1"
        assert len(scans_of(spec)) == 3

    def test_all_tpch_workloads_parse(self):
        from repro.workloads.queries import TPCH_WORKLOADS

        for factory in TPCH_WORKLOADS.values():
            workload = factory()
            assert workload.stages
