"""Parallel data-path executor: levels, equivalence with serial, failures.

The contract under test (docs/performance.md): with
``ExecutorConfig.parallel_jobs`` enabled, ``execute_batch`` produces
*byte-identical* results to serial execution -- same output rows in the
same order, same counters, same collected statistics, same simulated
makespans -- and failures (broadcast-build overflow in particular)
propagate exactly as they do serially.
"""

from dataclasses import replace

import pytest

from repro.cluster.job import BroadcastBuild, MapReduceJob
from repro.cluster.parallel import (
    JobSkipped,
    ParallelJobExecutor,
    dependency_levels,
    topological_order,
)
from repro.cluster.runtime import ClusterRuntime
from repro.config import DEFAULT_CONFIG, ClusterConfig, DynoConfig, ExecutorConfig
from repro.core.dynopt import MODE_DYNOPT
from repro.core.pilot import PILR_MT, PilotRunner
from repro.data.columns import RowBatch
from repro.data.schema import INT, STRING, Schema
from repro.errors import BroadcastBuildOverflowError, JobError
from repro.storage.dfs import DistributedFileSystem
from repro.workloads.queries import q8_prime
from tests.conftest import assert_same_rows
from tests.jobs import identity_mapper, keyed_mapper, record_reducer

SCHEMA = Schema.of(key=INT, value=STRING)


class _Named:
    def __init__(self, name):
        self.name = name


def _names(levels):
    return [[job.name for job in level] for level in levels]


class TestDependencyLevels:
    def test_independent_jobs_share_one_level(self):
        jobs = [_Named("a"), _Named("b"), _Named("c")]
        assert _names(dependency_levels(jobs, {})) == [["a", "b", "c"]]

    def test_chain_is_one_job_per_level(self):
        jobs = [_Named("a"), _Named("b"), _Named("c")]
        deps = {"b": ["a"], "c": ["b"]}
        assert _names(dependency_levels(jobs, deps)) == [["a"], ["b"], ["c"]]

    def test_diamond(self):
        jobs = [_Named(n) for n in "abcd"]
        deps = {"b": ["a"], "c": ["a"], "d": ["b", "c"]}
        assert _names(dependency_levels(jobs, deps)) == \
            [["a"], ["b", "c"], ["d"]]

    def test_batch_order_preserved_within_level(self):
        jobs = [_Named("z"), _Named("m"), _Named("a")]
        assert _names(dependency_levels(jobs, {})) == [["z", "m", "a"]]

    def test_missing_dependency_rejected(self):
        with pytest.raises(JobError, match="depends on 'ghost'"):
            dependency_levels([_Named("a")], {"a": ["ghost"]})

    def test_cycle_rejected(self):
        jobs = [_Named("a"), _Named("b")]
        with pytest.raises(JobError, match="cycle"):
            dependency_levels(jobs, {"a": ["b"], "b": ["a"]})

    def test_topological_order_flattens_levels(self):
        jobs = [_Named(n) for n in "abcd"]
        deps = {"b": ["a"], "c": ["a"], "d": ["b", "c"]}
        order = [job.name for job in topological_order(jobs, deps)]
        assert order == ["a", "b", "c", "d"]


class TestExecutorOutcomes:
    def test_results_keyed_by_job_name(self):
        executor = ParallelJobExecutor(ExecutorConfig(parallel_jobs=True))
        levels = [[_Named("a"), _Named("b")]]
        outcomes = executor.run(levels, {}, lambda job, gate: job.name.upper())
        assert outcomes == {"a": "A", "b": "B"}

    def test_failure_skips_later_levels(self):
        executor = ParallelJobExecutor(ExecutorConfig(parallel_jobs=True))
        levels = [[_Named("a"), _Named("b")], [_Named("c"), _Named("d")]]

        def data_pass(job, gate):
            if job.name == "b":
                raise ValueError("boom")
            return job.name

        outcomes = executor.run(levels, {}, data_pass)
        assert outcomes["a"] == "a"
        assert isinstance(outcomes["b"], ValueError)
        assert isinstance(outcomes["c"], JobSkipped)
        assert isinstance(outcomes["d"], JobSkipped)

    def test_narrow_levels_run_inline_after_failure(self):
        executor = ParallelJobExecutor(ExecutorConfig(parallel_jobs=True))
        levels = [[_Named("a")], [_Named("b")]]

        def data_pass(job, gate):
            if job.name == "a":
                raise ValueError("boom")
            return job.name  # pragma: no cover - must be skipped

        outcomes = executor.run(levels, {}, data_pass)
        assert isinstance(outcomes["a"], ValueError)
        assert isinstance(outcomes["b"], JobSkipped)

    def test_gates_are_routed_to_their_job(self):
        executor = ParallelJobExecutor(ExecutorConfig(parallel_jobs=True))
        levels = [[_Named("a"), _Named("b")]]
        gates = {"a": "gate-a", "b": "gate-b"}
        outcomes = executor.run(levels, gates, lambda job, gate: gate)
        assert outcomes == {"a": "gate-a", "b": "gate-b"}

    def test_process_pool_degrades_to_threads_on_unpicklable_work(self):
        """The pool is threads, so work that could never be pickled for
        a process pool -- as compiled jobs cannot -- runs as it is."""
        executor = ParallelJobExecutor(ExecutorConfig(parallel_jobs=True))
        captured = []
        levels = [[_Named("a"), _Named("b")]]
        outcomes = executor.run(
            levels, {}, lambda job, gate: captured.append(job.name) or job.name
        )
        # A closure over `captured` cannot be pickled; threads share
        # memory, so the appends are visible here.
        assert outcomes == {"a": "a", "b": "b"}
        assert sorted(captured) == ["a", "b"]


# ---------------------------------------------------------------------------
# Serial/parallel equivalence through the cluster runtime
# ---------------------------------------------------------------------------

N_ROWS = 120


def small_config(parallel: bool) -> DynoConfig:
    config = DynoConfig(cluster=ClusterConfig(block_size_bytes=256,
                                              task_memory_bytes=4096))
    return config.with_parallel_execution() if parallel else config


def make_runtime(config: DynoConfig) -> ClusterRuntime:
    dfs = DistributedFileSystem(config.cluster.block_size_bytes)
    dfs.write_rows(
        "input", SCHEMA,
        [{"key": i % 10, "value": f"v{i}"} for i in range(N_ROWS)],
    )
    return ClusterRuntime(dfs, config)


@record_reducer
def counting_reducer(context, key, values) -> None:
    context.emit(None, {"key": key, "value": f"n{len(values)}"})


def mixed_batch() -> list[MapReduceJob]:
    """Independent jobs covering map-only, stats collection, and reduce."""
    return [
        MapReduceJob("copy", ["input"], identity_mapper, "copy.out", SCHEMA),
        MapReduceJob("stats", ["input"], identity_mapper, "stats.out", SCHEMA,
                     stats_columns=["key", "value"]),
        MapReduceJob("group", ["input"], keyed_mapper, "group.out", SCHEMA,
                     reducer=counting_reducer, num_reducers=4,
                     stats_columns=["key"]),
    ]


def batch_observables(runtime: ClusterRuntime, batch):
    """Everything a caller can see from one executed batch."""
    observed = {"makespan": batch.makespan}
    for name, result in batch.results.items():
        stats = result.collected_stats
        observed[name] = {
            "rows": runtime.dfs.open(result.output_name).rows,
            "output_bytes": result.output_bytes,
            "counters": result.counters.as_dict(),
            "map_seconds": result.map_task_seconds,
            "reduce_seconds": result.reduce_task_seconds,
            "stats": stats.to_dict() if stats is not None else None,
            "elapsed": result.elapsed_seconds,
        }
    return observed


class TestRuntimeEquivalence:
    def test_parallel_batch_byte_identical_to_serial(self):
        serial_rt = make_runtime(small_config(parallel=False))
        parallel_rt = make_runtime(small_config(parallel=True))
        serial = serial_rt.execute_batch(mixed_batch())
        parallel = parallel_rt.execute_batch(mixed_batch())
        assert batch_observables(parallel_rt, parallel) == \
            batch_observables(serial_rt, serial)
        assert parallel_rt.dfs.bytes_read == serial_rt.dfs.bytes_read
        assert parallel_rt.dfs.bytes_written == serial_rt.dfs.bytes_written

    def test_dependent_jobs_still_ordered(self):
        """A consumer of a parallel level's output reads finalized data."""

        def build_jobs():
            first = mixed_batch()
            consumer = MapReduceJob(
                "consume", ["copy.out"], keyed_mapper, "consume.out", SCHEMA,
                reducer=counting_reducer, num_reducers=2,
            )
            return first + [consumer], {"consume": ["copy", "group"]}

        serial_rt = make_runtime(small_config(parallel=False))
        parallel_rt = make_runtime(small_config(parallel=True))
        jobs, deps = build_jobs()
        serial = serial_rt.execute_batch(jobs, deps)
        jobs, deps = build_jobs()
        parallel = parallel_rt.execute_batch(jobs, deps)
        assert batch_observables(parallel_rt, parallel) == \
            batch_observables(serial_rt, serial)

    def test_single_job_batch_never_uses_pool(self):
        runtime = make_runtime(small_config(parallel=True))
        job = MapReduceJob("solo", ["input"], identity_mapper, "solo.out",
                           SCHEMA)
        assert not runtime._use_parallel([[job]])
        result = runtime.execute(job)
        assert result.output_rows == N_ROWS

    def test_overflow_propagates_from_worker(self):
        """BroadcastBuildOverflowError surfaces exactly as in serial mode."""

        def overflowing_jobs():
            build = BroadcastBuild(
                input_file="input",
                loader=lambda batch: RowBatch([
                    dict(row, value=row["value"] * 200)
                    for row in batch.rows
                ]),
                description="oversized build",
            )
            bad = MapReduceJob("bad", ["input"], identity_mapper, "bad.out",
                               SCHEMA, broadcast_builds=[build])
            good = MapReduceJob("good", ["input"], identity_mapper,
                                "good.out", SCHEMA)
            return [good, bad]

        serial_rt = make_runtime(small_config(parallel=False))
        with pytest.raises(BroadcastBuildOverflowError) as serial_err:
            serial_rt.execute_batch(overflowing_jobs())

        parallel_rt = make_runtime(small_config(parallel=True))
        with pytest.raises(BroadcastBuildOverflowError) as parallel_err:
            parallel_rt.execute_batch(overflowing_jobs())

        assert str(parallel_err.value) == str(serial_err.value)

    def test_failed_batch_finalizes_no_successor(self):
        """Jobs after a failure are never finalized (no output files)."""

        def exploding_mapper(context, source, batch):
            raise ValueError("mapper exploded")

        jobs = [
            MapReduceJob("boom", ["input"], exploding_mapper, "boom.out",
                         SCHEMA),
            MapReduceJob("other", ["input"], identity_mapper, "other.out",
                         SCHEMA),
            MapReduceJob("after", ["input"], identity_mapper, "after.out",
                         SCHEMA),
        ]
        deps = {"after": ["boom"]}
        runtime = make_runtime(small_config(parallel=True))
        with pytest.raises(ValueError, match="mapper exploded"):
            runtime.execute_batch(jobs, deps)
        assert not runtime.dfs.exists("after.out")


# ---------------------------------------------------------------------------
# End-to-end equivalence: pilots and DYNOPT
# ---------------------------------------------------------------------------


def parallel_variants():
    return [
        pytest.param(DEFAULT_CONFIG, id="serial"),
        pytest.param(DEFAULT_CONFIG.with_parallel_execution(), id="threads"),
    ]


class TestEndToEndEquivalence:
    @pytest.fixture(scope="class")
    def serial_pilots(self, tpch_tables):
        return self._run_pilots(tpch_tables, DEFAULT_CONFIG)

    @staticmethod
    def _run_pilots(tables, config):
        from repro.core.dyno import Dyno

        workload = q8_prime()
        dyno = Dyno(tables, config=config, udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        runner = PilotRunner(dyno.runtime, dyno.metastore, config)
        return runner.run(block, mode=PILR_MT)

    @pytest.mark.parametrize("config", parallel_variants()[1:])
    def test_pilr_mt_identical_under_parallel_execution(
            self, tpch_tables, serial_pilots, config):
        report = self._run_pilots(tpch_tables, config)
        assert report.simulated_seconds == serial_pilots.simulated_seconds
        assert set(report.outcomes) == set(serial_pilots.outcomes)
        for signature, outcome in report.outcomes.items():
            reference = serial_pilots.outcomes[signature]
            assert outcome.stats.to_dict() == reference.stats.to_dict()
            assert outcome.output_rows == reference.output_rows
            assert outcome.scanned_fraction == reference.scanned_fraction

    @pytest.fixture(scope="class")
    def serial_dynopt(self, tpch_tables):
        return self._run_dynopt(tpch_tables, DEFAULT_CONFIG)

    @staticmethod
    def _run_dynopt(tables, config):
        from repro.core.dyno import Dyno

        workload = q8_prime()
        # A tight memory budget keeps several leaf jobs in one DYNOPT step,
        # so the parallel executor actually engages.
        tight = replace(
            config,
            cluster=replace(config.cluster, task_memory_bytes=8 * 1024),
            optimizer=replace(config.optimizer,
                              max_broadcast_bytes=8 * 1024),
        )
        dyno = Dyno(tables, config=tight, udfs=workload.udfs)
        return dyno.execute(workload.final_spec, mode=MODE_DYNOPT)

    @pytest.mark.parametrize("config", parallel_variants()[1:])
    def test_q8_dynopt_identical_under_parallel_execution(
            self, tpch_tables, serial_dynopt, config):
        execution = self._run_dynopt(tpch_tables, config)
        assert execution.rows == serial_dynopt.rows
        assert execution.total_seconds == serial_dynopt.total_seconds
        assert_same_rows(execution.rows, serial_dynopt.rows)
