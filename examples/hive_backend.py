"""Replaying DYNO's plans under the Hive backend (paper Section 6.6).

Hive 0.12's map join ships its build side via MapReduce's DistributedCache,
loading it once per *node* instead of once per *task* like Jaql. The paper
hand-ports DYNO's plans to Hive and observes the same trends with larger
speedups for broadcast-heavy queries (Q9': 3.98x vs 1.88x).

This example optimizes Q9' once, executes the same physical plan under
both backends, and reports the difference.

Run:  python examples/hive_backend.py
"""

from repro import Dyno, generate_tpch, summarize_plan
from repro.core.baselines import oracle_leaf_stats
from repro.core.hive import replay_plan_in_hive
from repro.optimizer.search import JoinOptimizer
from repro.workloads.queries import q9_prime


def main() -> None:
    dataset = generate_tpch(0.25)
    workload = q9_prime()
    dyno = Dyno(dataset.tables, udfs=workload.udfs)

    extracted = dyno.prepare(workload.final_spec)
    stats = oracle_leaf_stats(dyno.tables, extracted.block)
    plan = JoinOptimizer(extracted.block, stats, dyno.config.optimizer,
                         dyno.config.cluster).optimize().plan
    summary = summarize_plan(plan)
    print(f"Q9' plan: {summary.broadcast_joins} broadcast joins "
          f"({summary.chained_joins} chained), "
          f"{summary.repartition_joins} repartition joins")

    jaql_result = dyno.executor.execute_physical_plan(
        extracted.block, plan, label="jaql"
    )
    hive_result = replay_plan_in_hive(dataset.tables, extracted.block,
                                      plan, udfs=workload.udfs)

    jaql_seconds = jaql_result.execution_seconds
    hive_seconds = hive_result.execution_seconds
    print(f"\nJaql backend: {jaql_seconds:8.1f} s (build side loaded by "
          f"every map task)")
    print(f"Hive backend: {hive_seconds:8.1f} s (DistributedCache: build "
          f"loaded once per node)")
    print(f"Hive advantage on this plan: "
          f"{jaql_seconds / hive_seconds:.2f}x")


if __name__ == "__main__":
    main()
