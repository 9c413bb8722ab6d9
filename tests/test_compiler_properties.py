"""Compiler/runtime conservation properties over real workload plans."""

import pytest

from repro.cluster.counters import Counters
from repro.core.baselines import oracle_leaf_stats
from repro.jaql.compiler import PlanCompiler
from repro.optimizer.search import JoinOptimizer
from repro.workloads.queries import q7, q8_prime, q9_prime, q10

WORKLOAD_FACTORIES = [q7, q8_prime, q9_prime, q10]


def compile_and_run(dyno, workload):
    extracted = dyno.prepare(workload.final_spec)
    stats = oracle_leaf_stats(dyno.tables, extracted.block)
    plan = JoinOptimizer(extracted.block, stats, dyno.config.optimizer,
                         dyno.config.cluster).optimize().plan
    compiler = PlanCompiler(dyno.dfs, dyno.config, "prop")
    graph = compiler.compile_block(plan)
    results = {}
    completed = set()
    while len(completed) < graph.job_count:
        for compiled in graph.leaf_jobs(completed):
            results[compiled.name] = dyno.runtime.execute(compiled.job)
            completed.add(compiled.name)
    return extracted, plan, graph, results


@pytest.mark.parametrize("factory", WORKLOAD_FACTORIES)
class TestConservation:
    def test_output_counters_match_dfs(self, dyno_factory, factory):
        workload = factory()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, graph, results = compile_and_run(dyno, workload)
        for name, result in results.items():
            counted = result.counters.get("output", Counters.OUTPUT_RECORDS)
            assert counted == result.output_rows
            assert (dyno.dfs.open(result.output_name).row_count
                    == result.output_rows)
            assert (dyno.dfs.file_size(result.output_name)
                    == result.output_bytes)

    def test_map_input_covers_all_splits(self, dyno_factory, factory):
        workload = factory()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, graph, results = compile_and_run(dyno, workload)
        for compiled in graph.jobs:
            result = results[compiled.name]
            expected = sum(
                dyno.dfs.file_size(name) for name in compiled.job.inputs
            )
            assert result.counters.get(
                "map", Counters.MAP_INPUT_BYTES) == expected

    def test_shuffle_only_on_reduce_jobs(self, dyno_factory, factory):
        workload = factory()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, graph, results = compile_and_run(dyno, workload)
        for compiled in graph.jobs:
            result = results[compiled.name]
            shuffle = result.counters.get("reduce", Counters.SHUFFLE_BYTES)
            if compiled.job.is_map_only:
                assert shuffle == 0
                assert result.reduce_task_seconds == []
            else:
                assert len(result.reduce_task_seconds) == \
                    compiled.job.num_reducers

    def test_task_durations_are_positive(self, dyno_factory, factory):
        workload = factory()
        dyno = dyno_factory(udfs=workload.udfs)
        _, _, _, results = compile_and_run(dyno, workload)
        for result in results.values():
            assert all(seconds > 0 for seconds in result.map_task_seconds)
            assert all(seconds > 0
                       for seconds in result.reduce_task_seconds)

    def test_intermediate_rows_stay_qualified(self, dyno_factory, factory):
        """Every field of every intermediate row is alias-qualified, so
        substitution into the join block never needs renaming."""
        workload = factory()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted, _, graph, results = compile_and_run(dyno, workload)
        aliases = extracted.block.aliases
        for compiled in graph.jobs:
            rows = dyno.dfs.read_all(results[compiled.name].output_name)
            for row in rows[:20]:
                for field in row:
                    alias, _, rest = field.partition(".")
                    assert alias in aliases and rest, field
