"""DYNOPT end-to-end: correctness, re-optimization, substitution."""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.dynopt import MODE_DYNOPT, MODE_SIMPLE
from repro.errors import PlanError
from repro.workloads.queries import q7, q8_prime, q9_prime, q10
from tests.conftest import assert_same_rows, reference_rows

#: A memory budget small enough that the test-scale dataset cannot collapse
#: whole queries into a single chained map-only job -- forcing the
#: multi-iteration behaviour the dynamic tests exercise.
TIGHT_CONFIG = replace(
    DEFAULT_CONFIG,
    cluster=replace(DEFAULT_CONFIG.cluster, task_memory_bytes=8 * 1024),
    optimizer=replace(DEFAULT_CONFIG.optimizer,
                      max_broadcast_bytes=8 * 1024),
)


@pytest.mark.parametrize("factory", [q7, q8_prime, q9_prime, q10])
@pytest.mark.parametrize("mode,strategy", [
    (MODE_DYNOPT, "UNC-1"),
    (MODE_DYNOPT, "CHEAP-2"),
    (MODE_SIMPLE, "SIMPLE_MO"),
    (MODE_SIMPLE, "SIMPLE_SO"),
])
def test_all_modes_match_reference(dyno_factory, tpch_tables, factory,
                                   mode, strategy):
    workload = factory()
    dyno = dyno_factory(udfs=workload.udfs)
    execution = dyno.execute(workload.final_spec, mode=mode,
                             strategy=strategy)
    expected = reference_rows(tpch_tables, workload.final_spec)
    assert_same_rows(execution.rows, expected)


class TestDynamicBehaviour:
    def test_iterations_and_substitution(self, dyno_factory):
        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs, config=TIGHT_CONFIG)
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT,
                                 strategy="UNC-1")
        result = execution.block_results[0]
        assert len(result.iterations) >= 2
        assert result.reoptimization_count >= 1
        # Every iteration's plan covers fewer or equal leaves than the last.
        leaf_counts = [
            plan and len(plan.leaves()) for plan in result.plans
        ]
        assert leaf_counts == sorted(leaf_counts, reverse=True)

    def test_stats_collected_between_iterations(self, dyno_factory):
        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs, config=TIGHT_CONFIG)
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT)
        result = execution.block_results[0]
        assert any(record.collected_statistics
                   for record in result.iterations[:-1])
        assert not result.iterations[-1].collected_statistics

    def test_collect_column_stats_flag(self, dyno_factory):
        workload = q8_prime()
        with_stats = dyno_factory(udfs=workload.udfs).execute(
            workload.final_spec, mode=MODE_DYNOPT)
        without = dyno_factory(udfs=workload.udfs).execute(
            workload.final_spec, mode=MODE_DYNOPT,
            collect_column_stats=False)
        assert_same_rows(with_stats.rows, without.rows)
        # Collection carries measurable (simulated) cost.
        assert without.execution_seconds <= with_stats.execution_seconds

    def test_simple_mode_never_reoptimizes(self, dyno_factory):
        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode=MODE_SIMPLE,
                                 strategy="SIMPLE_MO")
        result = execution.block_results[0]
        signatures = {record.plan_signature
                      for record in result.iterations}
        assert len(signatures) == 1
        assert result.optimizer_seconds > 0

    def test_simple_so_runs_one_job_per_batch(self, dyno_factory):
        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode=MODE_SIMPLE,
                                 strategy="SIMPLE_SO")
        result = execution.block_results[0]
        assert all(len(record.jobs_executed) == 1
                   for record in result.iterations)

    def test_mo_overlaps_and_is_faster_than_so(self, dyno_factory):
        workload = q9_prime(udf_selectivity=1.0)  # forces multiple jobs
        so = dyno_factory(udfs=workload.udfs).execute(
            workload.final_spec, mode=MODE_SIMPLE, strategy="SIMPLE_SO")
        mo = dyno_factory(udfs=workload.udfs).execute(
            workload.final_spec, mode=MODE_SIMPLE, strategy="SIMPLE_MO")
        assert mo.execution_seconds <= so.execution_seconds + 1e-6

    def test_plan_changes_counted(self, dyno_factory):
        workload = q8_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT)
        result = execution.block_results[0]
        assert 0 <= result.plan_changes <= result.reoptimization_count

    def test_unknown_mode_rejected(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        with pytest.raises(PlanError):
            dyno.executor.execute_block(extracted.block, mode="warp")

    def test_missing_stats_without_pilots_rejected(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        with pytest.raises(PlanError):
            dyno.executor.execute_block(extracted.block, run_pilots=False)

    def test_leaf_stats_override_bypasses_pilots(self, dyno_factory,
                                                 tpch_tables):
        from repro.core.baselines import oracle_leaf_stats

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        override = oracle_leaf_stats(dyno.tables, extracted.block)
        result = dyno.executor.execute_block(
            extracted.block, mode=MODE_SIMPLE,
            leaf_stats_override=override,
        )
        assert result.pilot is None
        assert result.pilot_seconds == 0.0
        assert result.output_file

    def test_timing_breakdown_sums(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT)
        result = execution.block_results[0]
        assert result.total_seconds == pytest.approx(
            result.pilot_seconds + result.optimizer_seconds
            + result.execution_seconds
        )
        assert result.pilot_seconds > 0
        assert result.optimizer_seconds > 0


class TestConditionalReoptimization:
    """Section 5.1: 're-optimize could be conditional on a threshold
    difference between the estimated result size and the observed one'."""

    def _config(self, threshold):
        """``threshold`` is a q-error: 1.5 tolerates estimates off by 50%."""
        return replace(TIGHT_CONFIG,
                       reoptimization_qerror_threshold=threshold)

    def test_generous_threshold_skips_reoptimization(self, dyno_factory,
                                                     tpch_tables):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs,
                            config=self._config(threshold=1e12))
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT)
        result = execution.block_results[0]
        # One optimizer call: all iterations share the first plan.
        optimizer_calls = sum(
            1 for record in result.iterations
            if record.optimizer_seconds > 0
        )
        assert optimizer_calls == 1
        expected = reference_rows(tpch_tables, workload.final_spec)
        assert len(execution.rows) == len(expected)

    def test_tight_threshold_reoptimizes_on_surprise(self, dyno_factory):
        """Q8''s non-local UDF makes join estimates wrong (the optimizer
        assumes selectivity 1.0), so a tight threshold must trigger."""
        workload = q8_prime(udf_selectivity=0.3)
        dyno = dyno_factory(udfs=workload.udfs,
                            config=self._config(threshold=1.05))
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT)
        result = execution.block_results[0]
        assert len(result.plans) >= 2

    def test_conditional_matches_always_reoptimize(self, dyno_factory,
                                                   tpch_tables):
        workload = q8_prime()
        always = dyno_factory(udfs=workload.udfs,
                              config=TIGHT_CONFIG).execute(
            workload.final_spec, mode=MODE_DYNOPT)
        conditional = dyno_factory(udfs=workload.udfs,
                                   config=self._config(1.5)).execute(
            workload.final_spec, mode=MODE_DYNOPT)
        assert_same_rows(always.rows, conditional.rows)


class TestPhysicalPlanReplay:
    def test_execute_physical_plan(self, dyno_factory, tpch_tables):
        from repro.core.baselines import (
            build_left_deep_plan,
            enumerate_connected_orders,
            jaql_file_size_stats,
        )

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        block = extracted.block
        stats = jaql_file_size_stats(dyno.tables, block)
        sizes = {leaf.source_name: dyno.dfs.file_size(leaf.source_name)
                 for leaf in block.base_leaves()}
        order = next(enumerate_connected_orders(block))
        plan = build_left_deep_plan(block, order, stats, sizes, dyno.config)
        result = dyno.executor.execute_physical_plan(block, plan)
        assert result.output_file
        assert result.pilot_seconds == 0.0
