"""Adaptive re-planning on Q8' -- reproducing the paper's Figure 2.

Q8' is TPC-H Q8 plus (a) a UDF over the orders x customer join result and
(b) two correlated predicates on orders. Both defeat static estimation:
the UDF's selectivity is unknown until the join actually runs, which is
exactly when DYNOPT's re-optimization points pay off.

The script prints the plan a traditional relational optimizer (DBMS-X
stand-in) picks, then DYNO's plan at every re-optimization point, like the
paper's Figure 2.

Run:  python examples/adaptive_replanning.py
"""

from repro import Dyno, generate_tpch, render_plan
from repro.config import DEFAULT_CONFIG
from repro.core.baselines import relopt_optimizer_config, relopt_plan
from repro.workloads.queries import q8_prime


def main() -> None:
    dataset = generate_tpch(0.25)  # the paper's SF=100 equivalent
    workload = q8_prime()

    # Force multi-job plans so re-optimization points exist at this scale.
    config = DEFAULT_CONFIG.with_memory(task_memory_bytes=32 * 1024)
    dyno = Dyno(dataset.tables, config=config, udfs=workload.udfs)

    extracted = dyno.prepare(workload.final_spec)
    plan, believed = relopt_plan(extracted.block, dyno.tables, dyno.config)
    print("== plan by traditional optimizer (DBMS-X stand-in) ==")
    print(render_plan(plan))
    orders_leaf = extracted.block.leaf_for("o")
    print(f"\n  DBMS-X believes the filtered orders relation has "
          f"{believed[orders_leaf.signature()].row_count:.0f} rows "
          f"(correlated zone/region predicates multiplied independently).")

    print("\n== DYNO execution (pilot runs + re-optimization) ==")
    execution = dyno.execute(workload.final_spec, mode="dynopt",
                             strategy="UNC-1")
    result = execution.block_results[0]
    for record in result.iterations:
        print(f"\n-- DYNO plan{record.index + 1} "
              f"(executed {record.jobs_executed}, "
              f"{record.makespan_seconds:.1f}s simulated) --")
        print(record.plan_text)

    from repro.optimizer.plans import plan_diff

    for index, (before, after) in enumerate(zip(result.plans,
                                                result.plans[1:])):
        print(f"\nwhat re-optimization {index + 1} changed:")
        for change in plan_diff(before, after) or ["(plan shape unchanged)"]:
            print(f"  - {change}")
    print(f"\nre-optimizations: {result.reoptimization_count}, "
          f"plan changes: {result.plan_changes}")
    print(f"result rows: {len(execution.rows)}; "
          f"simulated total {execution.total_seconds:.1f}s")


if __name__ == "__main__":
    main()
