"""Hive backend: DistributedCache broadcast semantics (Section 6.6)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.baselines import oracle_leaf_stats
from repro.core.hive import hive_config, make_hive_dyno, replay_plan_in_hive
from repro.optimizer.search import JoinOptimizer
from repro.optimizer.plans import summarize_plan
from repro.workloads.queries import q9_prime, q10
from tests.conftest import reference_rows


class TestConfig:
    def test_hive_config_switches_backend(self):
        assert hive_config().backend == "hive"
        assert DEFAULT_CONFIG.backend == "jaql"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_backend("spark")


class TestExecution:
    def test_hive_results_identical(self, tpch_tables):
        workload = q10()
        dyno = make_hive_dyno(tpch_tables, udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec)
        expected = reference_rows(tpch_tables, workload.final_spec)
        assert len(execution.rows) == len(expected)

    def test_broadcast_heavy_plan_faster_in_hive(self, tpch_tables,
                                                 dyno_factory):
        """Q9' gains more in Hive: the build side loads once per node."""
        workload = q9_prime()
        jaql_dyno = dyno_factory(udfs=workload.udfs)
        hive_dyno = make_hive_dyno(tpch_tables, udfs=workload.udfs)
        jaql_run = jaql_dyno.execute(workload.final_spec, mode="simple")
        hive_run = hive_dyno.execute(workload.final_spec, mode="simple")
        assert hive_run.execution_seconds < jaql_run.execution_seconds

    def test_replay_plan_in_hive(self, tpch_tables, dyno_factory):
        workload = q9_prime()
        source = dyno_factory(udfs=workload.udfs)
        extracted = source.prepare(workload.final_spec)
        stats = oracle_leaf_stats(source.tables, extracted.block)
        plan = JoinOptimizer(extracted.block, stats, source.config.optimizer,
                             source.config.cluster).optimize().plan
        result = replay_plan_in_hive(tpch_tables, extracted.block, plan,
                                     udfs=workload.udfs)
        assert result.output_file
        # Same plan shape executed, nothing re-optimized.
        assert len(result.plans) == 1
        assert summarize_plan(result.plans[0]).joins == \
            summarize_plan(plan).joins
