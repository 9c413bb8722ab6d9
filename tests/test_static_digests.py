"""Parent-pinned digests of the paths that never re-optimize.

DYNOPT-SIMPLE (SO and MO), static-plan replay (``execute_with_plan``)
and the Hive replay all walk the executor's one job-graph loop. The
paper-figure scripts read their rows, their ``IterationRecord`` lists
and their ``execution_seconds``, so a fault-free run must reproduce --
to the last float digit -- what the separately written walkers produced
before they were merged. The digests below were taken at that commit.

To re-pin after an intended change:
``PYTHONPATH=src python -m tests.test_static_digests``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.baselines import oracle_leaf_stats
from repro.core.dyno import Dyno
from repro.core.hive import replay_plan_in_hive
from repro.optimizer.search import JoinOptimizer
from tests.oracle import (
    ORACLE_WORKLOADS,
    canonical_rows,
    oracle_tables,
    run_workload,
    skewed_oracle_tables,
)

QUERIES = ("Q7", "Q10", "Q8'", "SkewFunnel")
PATHS = ("simple-so", "simple-mo", "with-plan", "hive-replay")

PINNED = {
    ("Q7", "simple-so"): "10345540ef6dcdbe",
    ("Q7", "simple-mo"): "2a363f31eb8b4208",
    ("Q7", "with-plan"): "3bb2469985632ca1",
    ("Q7", "hive-replay"): "f683ad2042c29ea5",
    ("Q10", "simple-so"): "e15288ae64873e87",
    ("Q10", "simple-mo"): "e15288ae64873e87",
    ("Q10", "with-plan"): "32ffb320a31bfc77",
    ("Q10", "hive-replay"): "986d3176be306fdb",
    ("Q8'", "simple-so"): "13e25a4d3a7efe0c",
    ("Q8'", "simple-mo"): "13e25a4d3a7efe0c",
    ("Q8'", "with-plan"): "c739f59527421d8c",
    ("Q8'", "hive-replay"): "31a45e0a762e542e",
    ("SkewFunnel", "simple-so"): "1fb72d78e79588fb",
    ("SkewFunnel", "simple-mo"): "b1a3ab3d5475cf26",
    ("SkewFunnel", "with-plan"): "ec01ba2e6cb3b43d",
    ("SkewFunnel", "hive-replay"): "29c662f2dcc981b8",
}


def static_plan(dyno: Dyno, block):
    """A plan over base leaves only, so a fresh cluster can replay it."""
    stats = oracle_leaf_stats(dyno.tables, block)
    return JoinOptimizer(block, stats, dyno.config.optimizer).optimize().plan


def summary(rows, block_results, execution_seconds: float) -> list:
    """Everything the figure scripts read, floats at full precision."""
    return [
        canonical_rows(rows, float_places=12),
        [[(record.jobs_executed, repr(record.makespan_seconds),
           repr(record.optimizer_seconds), record.collected_statistics)
          for record in result.iterations]
         for result in block_results],
        repr(execution_seconds),
    ]


def run_path(tables, query: str, path: str) -> list:
    if path.startswith("simple"):
        strategy = "SIMPLE_SO" if path == "simple-so" else "SIMPLE_MO"
        _, execution = run_workload(tables, query, strategy, mode="simple")
        return summary(execution.rows, execution.block_results,
                       execution.execution_seconds)
    workload = ORACLE_WORKLOADS[query]()
    dyno = Dyno(tables, udfs=workload.udfs)
    block = dyno.prepare(workload.final_spec, query).block
    plan = static_plan(dyno, block)
    if path == "with-plan":
        execution = dyno.execute_with_plan(workload.final_spec, plan,
                                           name=query)
        return summary(execution.rows, execution.block_results,
                       execution.execution_seconds)
    result = replay_plan_in_hive(tables, block, plan, udfs=workload.udfs)
    return summary([], [result], result.execution_seconds)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def load_datasets() -> dict:
    tpch, skewed = oracle_tables(), skewed_oracle_tables()
    return {query: skewed if query == "SkewFunnel" else tpch
            for query in QUERIES}


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("query", QUERIES)
def test_matches_digest_taken_before_the_walkers_merged(datasets, query,
                                                        path):
    observed = run_path(datasets[query], query, path)
    assert digest(observed) == PINNED[(query, path)], (
        f"{query}/{path} drifted; iterations and seconds now: "
        f"{observed[1:]}")


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    for query, data in load_datasets().items():
        for path in PATHS:
            print(f'    ("{query}", "{path}"): '
                  f'"{digest(run_path(data, query, path))}",')
