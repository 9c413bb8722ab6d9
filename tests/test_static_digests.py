"""Parent-pinned digests of the paths that never re-optimize.

DYNOPT-SIMPLE (SO and MO), static-plan replay (``execute_with_plan``)
and the Hive replay all walk the executor's one job-graph loop. The
paper-figure scripts read their rows, their ``IterationRecord`` lists
and their ``execution_seconds``, so a fault-free run must reproduce --
to the last float digit -- what the separately written walkers produced
before they were merged. The digests below were taken at that commit,
and the non-Hive ones re-pinned when the GROUP BY stage job began to
aggregate map-side (its stage seconds fall and its float sums
re-associate per split; the Hive replay runs no stage job). The four
SkewFunnel digests were re-pinned once more when the skew join began
to peel every key that would straggle a reducer (same rows; its
``sjoin`` job's seconds fall). The three non-Hive SkewFunnel digests
were re-pinned again when the skew join began to slice its heavy-key
build once, in a map-only job submitted with the ``sjoin`` (same rows,
same job names in the iteration records; the ``sjoin`` round's seconds
fall). The Hive replay does not slice: the DistributedCache already
amortizes the build load, so its digest held.

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
    ("Q7", "simple-so"): "aa879f75f640cb5e",
    ("Q7", "simple-mo"): "5d34428fbf46a58d",
    ("Q7", "with-plan"): "104a88aff5e01c03",
    ("Q7", "hive-replay"): "f683ad2042c29ea5",
    ("Q10", "simple-so"): "049417e23fbb1c71",
    ("Q10", "simple-mo"): "049417e23fbb1c71",
    ("Q10", "with-plan"): "6e1d9535a33d7557",
    ("Q10", "hive-replay"): "986d3176be306fdb",
    ("Q8'", "simple-so"): "d93c0e1194b1182b",
    ("Q8'", "simple-mo"): "d93c0e1194b1182b",
    ("Q8'", "with-plan"): "c60991f4d1808a44",
    ("Q8'", "hive-replay"): "31a45e0a762e542e",
    ("SkewFunnel", "simple-so"): "22342cb01d155b3d",
    ("SkewFunnel", "simple-mo"): "7e5a88f83ad4db66",
    ("SkewFunnel", "with-plan"): "5aea2ce151db50ea",
    ("SkewFunnel", "hive-replay"): "1005093e30c2bb46",
}


def static_plan(dyno: Dyno, block):
    """A plan over base leaves only, so a fresh cluster can replay it."""
    stats = oracle_leaf_stats(dyno.tables, block)
    return JoinOptimizer(block, stats, dyno.config.optimizer,
                         dyno.config.cluster).optimize().plan


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
