"""Backends and injected failures change timing, never results."""

from dataclasses import replace

import pytest

from repro.cluster.faults import FaultPlan
from repro.config import DEFAULT_CONFIG
from repro.core.dyno import Dyno
from repro.validation import verify_workload
from repro.workloads.queries import q7, q9_prime, q10

FACTORIES = [q7, q9_prime, q10]


@pytest.mark.parametrize("factory", FACTORIES)
def test_hive_backend_matches_oracle(tpch_tables, factory):
    workload = factory()
    dyno = Dyno(tpch_tables, config=DEFAULT_CONFIG.with_backend("hive"),
                udfs=workload.udfs)
    report = verify_workload(dyno, workload.final_spec)
    assert report.matches, report.describe()


# Failed task attempts consume the task-attempt budget (an exhausted
# task kills its job); a generous budget keeps these equivalence tests
# exercising pure time inflation. Exhaustion-at-default
# is covered in tests/test_runtime.py, end-to-end recovery in
# tests/test_fault_matrix.py.
def flaky_tasks(rate: float):
    return replace(
        DEFAULT_CONFIG,
        cluster=replace(DEFAULT_CONFIG.cluster, max_task_attempts=64),
    ).with_fault_plan(FaultPlan(seed=5, task_failure_rate=rate))


def test_failure_injection_matches_oracle(tpch_tables):
    workload = q10()
    config = flaky_tasks(0.3)
    dyno = Dyno(tpch_tables, config=config, udfs=workload.udfs)
    report = verify_workload(dyno, workload.final_spec)
    assert report.matches, report.describe()


def test_failure_injection_costs_time_not_rows(tpch_tables):
    workload = q10()
    clean_dyno = Dyno(tpch_tables, udfs=workload.udfs)
    clean = clean_dyno.execute(workload.final_spec, mode="simple")

    flaky_dyno = Dyno(tpch_tables, config=flaky_tasks(0.4),
                      udfs=workload.udfs)
    flaky = flaky_dyno.execute(workload.final_spec, mode="simple")
    assert flaky.execution_seconds > clean.execution_seconds
    assert len(flaky.rows) == len(clean.rows)
