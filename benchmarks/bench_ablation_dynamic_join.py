"""Ablation: the Section-8 dynamic join operator vs fixed execution.

How much of DYNOPT's benefit does pure method-switching (no
re-optimization, no pilot runs) recover? We execute an ultra-conservative
all-repartition Q9' plan as planned and again with the dynamic operator
flipping joins whose inputs actually fit in memory.
"""

from repro.bench.harness import dataset_for_paper_sf
from repro.config import ClusterConfig, OptimizerConfig
from repro.core.baselines import oracle_leaf_stats
from repro.core.dyno import Dyno
from repro.optimizer.search import JoinOptimizer
from repro.workloads.queries import q9_prime

from .conftest import record, run_once


def _conservative_setup():
    tables = dataset_for_paper_sf(300).tables
    workload = q9_prime()
    dyno = Dyno(tables, udfs=workload.udfs)
    block = dyno.prepare(workload.final_spec).block
    stats = oracle_leaf_stats(dyno.tables, block)
    # Planned under an 8-byte Mmax, run on the default cluster.
    plan = JoinOptimizer(
        block, stats, OptimizerConfig(), ClusterConfig(task_memory_bytes=8)
    ).optimize().plan
    return dyno, block, plan


def test_ablation_dynamic_join(benchmark):
    def run():
        dyno_a, block_a, plan_a = _conservative_setup()
        plain = dyno_a.executor.execute_physical_plan(
            block_a, plan_a, strategy="SIMPLE_SO"
        )
        dyno_b, block_b, plan_b = _conservative_setup()
        dynamic = dyno_b.executor.execute_switching_plan(block_b, plan_b)
        return plain, dynamic

    plain, dynamic = run_once(benchmark, run)
    text = "\n".join([
        "== Ablation: dynamic join operator (Q9', SF=300, conservative "
        "all-repartition plan) ==",
        f"fixed execution:   {plain.execution_seconds:10.1f} s",
        f"dynamic switching: {dynamic.execution_seconds:10.1f} s "
        f"({len(dynamic.switched_joins)} joins switched to broadcast)",
        f"speedup:           "
        f"{plain.execution_seconds / dynamic.execution_seconds:10.2f} x",
    ])
    record("ablation_dynamic_join", text)
    assert len(dynamic.switched_joins) >= 2
    assert dynamic.execution_seconds < plain.execution_seconds
