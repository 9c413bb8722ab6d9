"""DYNOPT end-to-end: correctness, re-optimization, substitution."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.config import DEFAULT_CONFIG
from repro.core.dynopt import MODE_DYNOPT, MODE_SIMPLE
from repro.errors import PlanError
from repro.workloads.queries import q7, q8_prime, q9_prime, q10
from tests.conftest import assert_same_rows, reference_rows

#: A memory budget small enough that the test-scale dataset cannot collapse
#: whole queries into a single chained map-only job -- forcing the
#: multi-iteration behaviour the dynamic tests exercise.
TIGHT_CONFIG = DEFAULT_CONFIG.with_memory(task_memory_bytes=8 * 1024)


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
        """Caller statistics replace the pilots: a leaf they miss has
        none, so the block is refused before anything runs."""
        from repro.core.baselines import oracle_leaf_stats

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        partial = oracle_leaf_stats(dyno.tables, block)
        partial.pop(block.leaves[0].signature())
        with pytest.raises(PlanError):
            dyno.executor.execute_block(block, leaf_stats=partial)

    def test_leaf_stats_override_bypasses_pilots(self, dyno_factory,
                                                 tpch_tables):
        from repro.core.baselines import oracle_leaf_stats

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        result = dyno.executor.execute_block(
            extracted.block, mode=MODE_SIMPLE,
            leaf_stats=oracle_leaf_stats(dyno.tables, extracted.block),
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

    @pytest.mark.parametrize("strategy", ["SIMPLE_SO", "SIMPLE_MO"])
    def test_simple_mode_audits_every_executed_job(self, tpch_tables,
                                                   strategy):
        """DYNOPT-SIMPLE walks the same loop, so each executed job leaves
        one estimate audit -- none of which can miss at ``inf``."""
        from repro.core.dyno import Dyno
        from repro.obs import MemorySink, Tracer

        workload = q7()
        sink = MemorySink()
        dyno = Dyno(tpch_tables, udfs=workload.udfs, tracer=Tracer(sink))
        execution = dyno.execute(workload.final_spec, mode=MODE_SIMPLE,
                                 strategy=strategy, name="Q7")
        (block,) = execution.block_results
        executed = [name for record in block.iterations
                    for name in record.jobs_executed]
        assert len(executed) > 1  # a multi-job static plan
        estimates = [record["attrs"] for record in sink.records
                     if record["name"] == "estimate"]
        assert [attrs["job"] for attrs in estimates] == executed
        assert all(attrs["joins"] >= 1 for attrs in estimates)
        assert not any(attrs["missed"] for attrs in estimates)
        assert len(block.plans) == 1 and block.midjob_replans == []


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


def test_only_the_loop_and_the_pilots_submit_jobs():
    """Every job graph runs through ``DynoptExecutor._run`` (a lost
    relation's producer through ``_recover_relation``); pilot runs are
    the one other caller of ``execute_batch``. A second walker would
    have no recovery, estimate audit or trace."""
    root = Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "execute_batch":
                    callers.add((path.relative_to(root).as_posix(),
                                 function.name))
    # ``ClusterRuntime.execute`` is the one-job form of the same call.
    callers.discard(("cluster/runtime.py", "execute"))
    assert {module for module, _ in callers} == \
        {"core/dynopt.py", "core/pilot.py"}
    assert {name for module, name in callers
            if module == "core/dynopt.py"} == {"_run", "_recover_relation"}


def test_only_pilots_the_delta_fold_and_load_write_the_metastore():
    """The metastore keeps what outlives a query: base-leaf statistics
    that pilot runs measure, ``StatisticsMetastore`` folds a change batch
    into and ``Dyno.load_statistics`` reads back. A block's own statistics
    (the caller's, reused pilot outputs, executed jobs' outputs) ride
    ``DynoptExecutor._run`` and never reach the store."""
    root = Path(repro.__file__).parent
    writers = set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "put" \
                        and (ast.unparse(node.func.value)
                             .endswith("metastore")
                             or module == "stats/metastore.py"):
                    writers.add((module, function.name))
    assert {module for module, _ in writers} == \
        {"core/pilot.py", "core/dyno.py", "stats/metastore.py"}
    assert {name for module, name in writers
            if module == "core/dyno.py"} == {"load_statistics"}


#: Modules whose import would let ``repro`` run code on a second thread
#: or process.
CONCURRENCY_MODULES = {"threading", "_thread", "concurrent.futures",
                       "multiprocessing"}


def test_nothing_in_repro_imports_a_concurrency_module():
    """One driver thread drives a query, as one Jaql client does in the
    paper; nothing in ``repro`` is thread-safe, so nothing in it may
    start a thread or a process (share between processes, not threads)."""
    root = Path(repro.__file__).parent
    imports = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
                names += [f"{node.module}.{alias.name}"
                          for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if any(".".join(parts[:end]) in CONCURRENCY_MODULES
                       for end in range(1, len(parts) + 1)):
                    imports.add((path.relative_to(root).as_posix(), name))
    assert imports == set()
