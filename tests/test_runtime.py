"""Cluster runtime: job execution, counters, builds, gates, batches."""

import pytest

from repro.cluster.costmodel import ClusterCostModel, TaskWork
from repro.cluster.counters import Counters
from repro.cluster.faults import FaultPlan
from repro.cluster.job import BroadcastBuild, MapReduceJob, TaskContext
from repro.cluster.runtime import ClusterRuntime
from repro.config import DEFAULT_CONFIG, ClusterConfig, DynoConfig
from repro.data.columns import RowBatch
from repro.data.schema import INT, STRING, Schema
from repro.errors import (
    BroadcastBuildOverflowError,
    JobError,
    TaskRetriesExhaustedError,
)
from repro.storage.dfs import DistributedFileSystem
from tests.jobs import (
    identity_mapper,
    keyed_mapper,
    record_mapper,
    record_reducer,
)

SCHEMA = Schema.of(key=INT, value=STRING)


def small_config() -> DynoConfig:
    return DynoConfig(cluster=ClusterConfig(block_size_bytes=256,
                                            task_memory_bytes=4096))


def make_runtime(rows=100, config=None):
    config = config or small_config()
    dfs = DistributedFileSystem(config.cluster.block_size_bytes)
    dfs.write_rows(
        "input", SCHEMA,
        [{"key": i % 10, "value": f"v{i}"} for i in range(rows)],
    )
    return ClusterRuntime(dfs, config)


@record_reducer
def counting_reducer(context, key, values) -> None:
    context.emit(None, {"key": key, "count": len(values)})


class TestMapOnly:
    def test_output_matches_input(self):
        runtime = make_runtime(50)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        result = runtime.execute(job)
        assert result.output_rows == 50
        assert runtime.dfs.open("out").row_count == 50

    def test_counters(self):
        runtime = make_runtime(50)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        result = runtime.execute(job)
        counters = result.counters
        assert counters.get("map", Counters.MAP_INPUT_RECORDS) == 50
        assert counters.get("map", Counters.MAP_OUTPUT_RECORDS) == 50
        assert counters.get("output", Counters.OUTPUT_RECORDS) == 50
        assert counters.get("map", Counters.MAP_INPUT_BYTES) == \
            runtime.dfs.file_size("input")

    def test_one_map_task_per_split(self):
        runtime = make_runtime(100)
        splits = len(runtime.dfs.file_splits("input"))
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        result = runtime.execute(job)
        assert len(result.map_task_seconds) == splits
        assert result.splits_processed == splits

    def test_filtering_mapper(self):
        runtime = make_runtime(100)

        @record_mapper
        def mapper(context, source, rows):
            for row in rows:
                if row["key"] == 0:
                    context.emit(None, row)

        job = MapReduceJob("j", ["input"], mapper, "out", SCHEMA)
        assert runtime.execute(job).output_rows == 10

    def test_clock_advances(self):
        runtime = make_runtime(50)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        runtime.execute(job)
        assert runtime.clock_seconds > 0
        assert runtime.jobs_executed == 1


class TestMapReduce:
    def test_group_counts(self):
        runtime = make_runtime(100)
        job = MapReduceJob(
            "j", ["input"], keyed_mapper, "out", SCHEMA,
            reducer=counting_reducer, num_reducers=3,
        )
        result = runtime.execute(job)
        rows = runtime.dfs.read_all("out")
        assert result.output_rows == 10
        assert sum(row["count"] for row in rows) == 100
        assert {row["key"] for row in rows} == set(range(10))

    def test_reduce_task_per_partition(self):
        runtime = make_runtime(100)
        job = MapReduceJob(
            "j", ["input"], keyed_mapper, "out", SCHEMA,
            reducer=counting_reducer, num_reducers=4,
        )
        result = runtime.execute(job)
        assert len(result.reduce_task_seconds) == 4
        assert result.counters.get(
            "reduce", Counters.REDUCE_INPUT_RECORDS) == 100

    def test_reducer_requires_reducer_count(self):
        with pytest.raises(JobError):
            MapReduceJob("j", ["input"], keyed_mapper, "out", SCHEMA,
                         reducer=counting_reducer, num_reducers=0)

    def test_map_only_must_not_declare_reducers(self):
        with pytest.raises(JobError):
            MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA,
                         num_reducers=2)

    def test_no_inputs_rejected(self):
        with pytest.raises(JobError):
            MapReduceJob("j", [], identity_mapper, "out", SCHEMA)

    def test_list_keys_are_groupable(self):
        runtime = make_runtime(20)

        @record_mapper
        def mapper(context, source, rows):
            for row in rows:
                context.emit([row["key"], "fixed"], row)

        job = MapReduceJob("j", ["input"], mapper, "out", SCHEMA,
                           reducer=counting_reducer, num_reducers=2)
        result = runtime.execute(job)
        assert result.output_rows == 10

    def test_unhashable_keys_group_as_their_frozen_tuples_do(self):
        """The shuffle probes its grouping table with the key as given;
        a list-valued or nested key fails that probe and is frozen. Every
        spelling of a key must land in the group -- and the partition --
        of the flat tuple it freezes to."""
        spellings = {
            "frozen": lambda k: (k, (k % 3, "x")),
            "nested": lambda k: (k, [k % 3, "x"]),
            "list": lambda k: [k, [k % 3, "x"]],
            "deep": lambda k: [k, (k % 3, "x")],
        }

        def run(spell):
            runtime = make_runtime(60)

            @record_mapper
            def mapper(context, source, rows):
                for row in rows:
                    context.emit(spell(row), row)

            job = MapReduceJob("j", ["input"], mapper, "out", SCHEMA,
                               reducer=counting_reducer, num_reducers=3)
            result = runtime.execute(job)
            return (runtime.dfs.read_all("out"), result.reduce_task_seconds,
                    result.counters.get("reduce", Counters.SHUFFLE_BYTES))

        expected = run(lambda row: spellings["frozen"](row["key"]))
        assert len(expected[0]) == 10
        assert all(isinstance(row["key"], tuple)
                   and isinstance(row["key"][1], tuple)
                   for row in expected[0])
        for name in ("nested", "list", "deep"):
            assert run(lambda row: spellings[name](row["key"])) == \
                expected, name
        # one job mixing all four spellings still forms ten groups.
        order = list(spellings)
        mixed = run(lambda row: spellings[order[
            int(row["value"][1:]) % len(order)]](row["key"]))
        assert mixed == expected


class TestBroadcastBuilds:
    def _build_job(self, runtime, loader=None):
        build = BroadcastBuild(
            "input",
            loader or (lambda batch: batch),
            description="whole input",
        )

        @record_mapper
        def mapper(context, source, rows):
            table = {r["key"] for r in build.built_rows()}
            for row in rows:
                if row["key"] in table:
                    context.emit(None, row)

        return MapReduceJob("j", ["input"], mapper, "out", SCHEMA,
                            broadcast_builds=[build]), build

    def test_build_loaded_and_usable(self):
        runtime = make_runtime(30)
        job, build = self._build_job(runtime)
        result = runtime.execute(job)
        assert result.output_rows == 30
        assert build.loaded_bytes > 0
        assert result.counters.get("map", Counters.BROADCAST_BYTES) > 0

    def test_loader_filters_before_memory_check(self):
        config = small_config()
        runtime = make_runtime(2000, config)  # raw input >> task memory

        def selective(batch):
            return RowBatch(
                [row for row in batch.rows if row["key"] == 0][:3])

        job, build = self._build_job(runtime, selective)
        result = runtime.execute(job)  # must not overflow
        assert len(build.built_rows()) == 3
        assert result.output_rows == 200

    def test_overflow_aborts_job(self):
        runtime = make_runtime(2000)  # ~2000 rows > 4096-byte budget
        job, _ = self._build_job(runtime)
        with pytest.raises(BroadcastBuildOverflowError) as excinfo:
            runtime.execute(job)
        assert excinfo.value.build_bytes > excinfo.value.memory_budget
        assert excinfo.value.job_name == "j"

    def test_unloaded_build_rejects_access(self):
        build = BroadcastBuild("input", lambda batch: batch)
        with pytest.raises(JobError):
            build.built_rows()


class TestGates:
    def test_gate_limits_splits(self):
        runtime = make_runtime(200)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        result = runtime.execute(job, gate=lambda started: started < 2)
        assert result.splits_processed == 2
        assert result.splits_total > 2
        assert 0 < result.scanned_fraction < 1

    def test_gate_true_scans_everything(self):
        runtime = make_runtime(50)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        result = runtime.execute(job, gate=lambda started: True)
        assert result.scanned_fraction == 1.0


class TestBatches:
    def test_batch_with_dependencies_runs_in_order(self):
        runtime = make_runtime(30)

        @record_mapper
        def consumer_mapper(context, source, rows):
            for row in rows:
                context.emit(None, {"key": row["key"], "value": "seen"})

        first = MapReduceJob("first", ["input"], identity_mapper,
                             "mid", SCHEMA)
        second = MapReduceJob("second", ["mid"], consumer_mapper,
                              "out", SCHEMA)
        batch = runtime.execute_batch(
            [second, first], dependencies={"second": ["first"]}
        )
        assert batch["second"].output_rows == 30
        assert (batch.results["second"].timeline.ready_time
                >= batch.results["first"].timeline.finish_time - 1e-9)

    def test_dependency_cycle_rejected(self):
        runtime = make_runtime(10)
        a = MapReduceJob("a", ["input"], identity_mapper, "oa", SCHEMA)
        b = MapReduceJob("b", ["input"], identity_mapper, "ob", SCHEMA)
        with pytest.raises(JobError):
            runtime.execute_batch([a, b],
                                  dependencies={"a": ["b"], "b": ["a"]})

    def test_duplicate_names_rejected(self):
        runtime = make_runtime(10)
        a = MapReduceJob("a", ["input"], identity_mapper, "oa", SCHEMA)
        b = MapReduceJob("a", ["input"], identity_mapper, "ob", SCHEMA)
        with pytest.raises(JobError):
            runtime.execute_batch([a, b])

    def test_empty_batch(self):
        runtime = make_runtime(10)
        assert runtime.execute_batch([]).makespan == 0.0

    def test_parallel_batch_faster_than_serial(self):
        config = small_config()
        runtime_a = make_runtime(500, config)
        runtime_b = make_runtime(500, config)
        jobs = lambda: [  # noqa: E731 - local factory
            MapReduceJob(f"j{i}", ["input"], identity_mapper,
                         f"out{i}", SCHEMA)
            for i in range(3)
        ]
        parallel = runtime_a.execute_batch(jobs()).makespan
        serial = 0.0
        for job in jobs():
            serial += runtime_b.execute(job).timeline.elapsed
        assert parallel < serial


class TestStatsCollection:
    def test_stats_collected_on_output(self):
        runtime = make_runtime(100)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA,
                           stats_columns=["key"])
        result = runtime.execute(job)
        stats = result.collected_stats
        assert stats is not None
        assert stats.row_count == 100
        assert stats.column("key").distinct_values == pytest.approx(10)
        assert stats.column("key").min_value == 0
        assert stats.column("key").max_value == 9

    def test_stats_collected_after_reduce(self):
        runtime = make_runtime(100)
        job = MapReduceJob(
            "j", ["input"], keyed_mapper, "out", SCHEMA,
            reducer=counting_reducer, num_reducers=3,
            stats_columns=["count"],
        )
        result = runtime.execute(job)
        assert result.collected_stats.row_count == 10

    def test_stats_make_tasks_slower(self):
        plain_runtime = make_runtime(500)
        stats_runtime = make_runtime(500)
        plain = plain_runtime.execute(
            MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        )
        with_stats = stats_runtime.execute(
            MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA,
                         stats_columns=["key"])
        )
        assert sum(with_stats.map_task_seconds) > sum(plain.map_task_seconds)


class TestCostModel:
    def test_map_task_seconds_components(self):
        model = ClusterCostModel(DEFAULT_CONFIG.cluster)
        work = TaskWork(input_bytes=1024, input_records=10,
                        output_bytes=512, output_records=5)
        map_only = model.map_task_seconds(work, writes_to_dfs=True)
        shuffled = model.map_task_seconds(work, writes_to_dfs=False)
        assert map_only > shuffled  # output write charged only when final

    def test_reduce_task_seconds_positive(self):
        model = ClusterCostModel(DEFAULT_CONFIG.cluster)
        work = TaskWork(shuffle_bytes=2048, input_records=10,
                        output_bytes=100)
        assert model.reduce_task_seconds(work) > 0

    def test_hive_build_amortized_per_node(self):
        model = ClusterCostModel(DEFAULT_CONFIG.cluster)
        jaql = model.per_task_build_seconds(10000, 100, 1000, "jaql")
        hive = model.per_task_build_seconds(10000, 100, 1000, "hive")
        assert hive < jaql
        # With fewer tasks than nodes, Hive degenerates to the full cost.
        assert model.per_task_build_seconds(10000, 100, 1, "hive") == \
            pytest.approx(jaql)

    def test_charge_cpu_rejects_negative(self):
        context = TaskContext()
        with pytest.raises(JobError):
            context.charge_cpu(-1.0)


class TestFailureInjection:
    def _run(self, failure_rate, max_task_attempts=64):
        # A generous attempt budget: these tests exercise the *time
        # inflation* of retries; exhaustion semantics are tested below.
        config = DynoConfig(cluster=ClusterConfig(
            block_size_bytes=256, task_memory_bytes=4096,
            max_task_attempts=max_task_attempts,
        )).with_fault_plan(FaultPlan(seed=5, task_failure_rate=failure_rate))
        runtime = make_runtime(400, config)
        job = MapReduceJob("j", ["input"], keyed_mapper, "out", SCHEMA,
                           reducer=counting_reducer, num_reducers=3)
        return runtime.execute(job)

    def test_failures_slow_execution_only(self):
        clean = self._run(0.0)
        flaky = self._run(0.4)
        assert sum(flaky.map_task_seconds) > sum(clean.map_task_seconds)
        assert flaky.output_rows == clean.output_rows

    def test_deterministic_per_job(self):
        first = self._run(0.3)
        second = self._run(0.3)
        assert first.map_task_seconds == second.map_task_seconds

    def test_retries_compound_with_rate(self):
        low = self._run(0.1)
        high = self._run(0.6)
        assert sum(high.map_task_seconds) > sum(low.map_task_seconds)

    def test_certain_failure_exhausts_attempts(self):
        """Regression: rate=1.0 used to spin forever; now the attempt
        budget is clamped and the job fails fast."""
        with pytest.raises(TaskRetriesExhaustedError) as excinfo:
            self._run(1.0, max_task_attempts=4)
        assert excinfo.value.job_name == "j"
        assert excinfo.value.attempts == 4

    def test_exhaustion_respects_configured_budget(self):
        with pytest.raises(TaskRetriesExhaustedError) as excinfo:
            self._run(1.0, max_task_attempts=7)
        assert excinfo.value.attempts == 7
