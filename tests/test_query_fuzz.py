"""Queries nobody wrote: seeded random joins vs the interpreter.

Every other differential sweep runs the hand-written paper workloads. Here
a seeded generator draws the query: a connected, acyclic subgraph of 2-5
tables of the TPC-H foreign-key graph (a cyclic join graph is a documented
``UnsupportedQueryError``), listed in a shuffled FROM order, with local
predicates whose literals are values the column actually holds (negative
account balances included) and a projection, ``count(*)`` or GROUP BY
tail. The SQL goes through the parser like a user's would, and ``Dyno``
is held to the interpreter by ``repro.validation`` (the comparison
``verify_workload`` makes) under DYNOPT and under DYNOPT-SIMPLE -- and
once more through the front door: one ``QueryService`` with the result
cache on and the chaos fault plan armed takes each query from three
tenants in one drain; the first copy must agree with the interpreter and
the other two must be result-cache hits with byte-identical rows.

A draw whose oracle result is empty is rejected and redrawn: matching
empty against empty would pass whatever the engine did. A seed that fails
is a finding -- fix the engine, or check the seed's SQL in as a strict
xfail; never change the seed list to make it go away.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro import Dyno, generate_tpch
from repro.config import DEFAULT_CONFIG
from repro.data.schema import FLOAT, INT
from repro.data.tpch import TPCH_SCHEMAS
from repro.jaql.parser import parse_query
from repro.service import QueryRequest, QueryService
from repro.validation import compare_rows, interpret
from tests.oracle import plan_named

#: (referencing table, its column, referenced table, its key).
FOREIGN_KEYS = [
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
]
ALIASES = {"region": "r", "nation": "n", "supplier": "s", "customer": "c",
           "part": "p", "partsupp": "ps", "orders": "o", "lineitem": "l"}
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

SEEDS = range(24)
MODES = {
    "dynopt": dict(mode="dynopt", strategy="UNC-1"),
    "simple": dict(mode="simple", strategy="SIMPLE_MO"),
}
#: redraws allowed per seed before the generator itself is suspect.
MAX_DRAWS = 50


def literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "\\'") + "'"
    return repr(value)


def draw_sql(rng: random.Random, tables) -> str:
    """One random query over ``tables``, rendered as SQL."""
    chosen = [rng.choice(sorted(ALIASES))]
    joins = []
    for _ in range(rng.randint(1, 4)):
        # Growing by one foreign key into a table not yet chosen keeps
        # the join graph a tree: connected, acyclic, no self-joins.
        key = rng.choice([fk for fk in FOREIGN_KEYS
                          if (fk[0] in chosen) != (fk[2] in chosen)])
        chosen.append(key[2] if key[0] in chosen else key[0])
        sides = [f"{ALIASES[key[0]]}.{key[1]}", f"{ALIASES[key[2]]}.{key[3]}"]
        rng.shuffle(sides)
        joins.append(" = ".join(sides))

    def column(of_types=None):
        """A random column of a chosen table (every table has an INT)."""
        table = rng.choice(chosen)
        return table, rng.choice([
            name for name, ftype in TPCH_SCHEMAS[table].fields
            if of_types is None or ftype in of_types])

    predicates = []
    for _ in range(rng.randint(0, 3)):
        table, name = column()
        value = rng.choice(tables[table].rows)[name]
        predicates.append(f"{ALIASES[table]}.{name} {rng.choice(OPERATORS)} "
                          f"{literal(value)}")

    def ref(table_and_name):
        table, name = table_and_name
        return f"{ALIASES[table]}.{name}"

    tail = rng.choice(["project", "count", "group"])
    group_by = ""
    if tail == "project":
        select = ", ".join(f"{ref(column())} AS c{i}"
                           for i in range(rng.randint(1, 3)))
    elif tail == "count":
        select = "count(*) AS n"
    else:
        key = ref(column())
        # min/max over floats are exact; a float sum would depend on
        # accumulation order in its last digits.
        aggregates = ["count(*) AS n",
                      f"sum({ref(column({INT}))}) AS total",
                      f"min({ref(column({INT, FLOAT}))}) AS low",
                      f"max({ref(column({INT, FLOAT}))}) AS high"]
        select = ", ".join([f"{key} AS k"]
                           + rng.sample(aggregates, rng.randint(1, 2)))
        group_by = f" GROUP BY {key}"

    from_order = chosen[:]
    rng.shuffle(from_order)
    where = joins + predicates
    rng.shuffle(where)
    return (f"SELECT {select} FROM "
            + ", ".join(f"{table} {ALIASES[table]}" for table in from_order)
            + " WHERE " + " AND ".join(where) + group_by)


@pytest.fixture(scope="module")
def tables():
    return generate_tpch(0.02, seed=7).tables


@pytest.fixture(scope="module")
def drawn():
    """seed -> (SQL, oracle rows): both modes of a seed run the same
    query against one interpreter evaluation."""
    return {}


def query_for(seed: int, tables, drawn) -> tuple[str, list]:
    if seed not in drawn:
        rng = random.Random(f"query-fuzz/{seed}")
        for _ in range(MAX_DRAWS):
            sql = draw_sql(rng, tables)
            expected = interpret(tables, parse_query(sql))
            if expected:
                drawn[seed] = sql, expected
                break
        else:
            pytest.fail(f"seed {seed}: {MAX_DRAWS} draws, all empty")
    return drawn[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
def test_fuzzed_query_matches_interpreter(tables, drawn, mode, seed):
    sql, expected = query_for(seed, tables, drawn)
    execution = Dyno(tables).execute(sql, **MODES[mode])
    report = compare_rows(execution.rows, expected)
    assert report.matches, f"seed {seed}: {sql}\n{report.describe()}"


@pytest.fixture(scope="module")
def service(tables):
    """One front door for every seed: result cache on, chaos armed.

    Hadoop's four attempts per task would make the size of a job, not
    recovery, the test: seed 16's GROUP BY reads a 61 MB join in 3,790
    splits, and at chaos's 15 % task failure rate it dies on 85 % of
    submissions, so all nine allowed submissions fail about one time in
    four. Eight attempts keep every channel of the plan and make that a
    one-in-a-thousand event per submission.
    """
    config = replace(DEFAULT_CONFIG,
                     cluster=replace(DEFAULT_CONFIG.cluster,
                                     max_task_attempts=8))
    return QueryService(tables,
                        config=config.with_fault_plan(plan_named("chaos")),
                        result_cache=True)


def digest(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_query_through_the_service(tables, drawn, service, seed):
    sql, expected = query_for(seed, tables, drawn)
    scheduler = service.scheduler
    first, *repeats = scheduler.drain([
        scheduler.submit(QueryRequest.single(f"fuzz{seed}", sql,
                                             tenant=f"tenant-{tenant}"))
        for tenant in range(3)])
    assert first.ok, f"seed {seed}: {sql}\n{first.error}"
    report = compare_rows(first.rows, expected)
    assert report.matches, f"seed {seed}: {sql}\n{report.describe()}"
    assert [(o.ok, o.result_cache_hit, digest(o.rows)) for o in repeats] \
        == [(True, True, digest(first.rows))] * 2, f"seed {seed}: {sql}"
