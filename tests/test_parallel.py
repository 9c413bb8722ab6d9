"""Batch execution order: dependency levels, and what a failure leaves.

``ClusterRuntime.execute_batch`` runs the jobs of a batch one after
another in dependency-level order, finalizing each before the next
starts: a consumer reads its producers' materialized outputs wherever it
sits in the submitted list, a dependency outside the batch or a cycle is
rejected up front, and a job that raises leaves every job before it
finalized and every job after it untouched.
"""

import pytest

from repro.cluster.job import BroadcastBuild, MapReduceJob
from repro.cluster.runtime import ClusterRuntime, dependency_levels
from repro.config import ClusterConfig, DynoConfig
from repro.data.columns import RowBatch
from repro.data.schema import INT, STRING, Schema
from repro.errors import BroadcastBuildOverflowError, JobError
from repro.storage.dfs import DistributedFileSystem
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
        order = [job.name for level in dependency_levels(jobs, deps)
                 for job in level]
        assert order == ["a", "b", "c", "d"]


# ---------------------------------------------------------------------------
# Through the cluster runtime
# ---------------------------------------------------------------------------

N_ROWS = 120


def make_runtime() -> ClusterRuntime:
    config = DynoConfig(cluster=ClusterConfig(block_size_bytes=256,
                                              task_memory_bytes=4096))
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
    def test_dependent_jobs_still_ordered(self):
        """A consumer reads finalized data even when the batch lists it
        before its producers: it sees what it would in a later batch of
        its own."""

        def consumer():
            return MapReduceJob(
                "consume", ["copy.out"], keyed_mapper, "consume.out", SCHEMA,
                reducer=counting_reducer, num_reducers=2,
            )

        one_batch = make_runtime()
        batch = one_batch.execute_batch(
            [consumer()] + mixed_batch(), {"consume": ["copy", "group"]})
        assert sorted(
            (row["key"], row["value"])
            for row in one_batch.dfs.open("consume.out").rows
        ) == [(key, f"n{N_ROWS // 10}") for key in range(10)]

        two_batches = make_runtime()
        two_batches.execute_batch(mixed_batch())
        alone = two_batches.execute_batch([consumer()])
        # Only the schedule differs: in one batch the consumer waits for
        # its producers inside the same slot schedule.
        observed = batch_observables(one_batch, batch)["consume"]
        expected = batch_observables(two_batches, alone)["consume"]
        del observed["elapsed"], expected["elapsed"]
        assert observed == expected

    def test_overflow_propagates_from_worker(self):
        """A build overflowing task memory raises out of ``execute_batch``
        from whichever job loads it; the job before it is finalized, the
        failed job leaves no output."""
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
        runtime = make_runtime()
        with pytest.raises(BroadcastBuildOverflowError,
                           match="oversized build"):
            runtime.execute_batch([good, bad])
        assert runtime.dfs.open("good.out").row_count == N_ROWS
        assert not runtime.dfs.exists("bad.out")
        assert runtime.clock_seconds == 0.0  # a failed batch is not timed

    def test_failed_batch_finalizes_no_successor(self):
        """Jobs after a failure never run (no output files), whether
        they depended on the failed job or merely followed it."""

        def exploding_mapper(context, source, batch):
            raise ValueError("mapper exploded")

        jobs = [
            MapReduceJob("before", ["input"], identity_mapper, "before.out",
                         SCHEMA),
            MapReduceJob("boom", ["input"], exploding_mapper, "boom.out",
                         SCHEMA),
            MapReduceJob("other", ["input"], identity_mapper, "other.out",
                         SCHEMA),
            MapReduceJob("after", ["input"], identity_mapper, "after.out",
                         SCHEMA),
        ]
        runtime = make_runtime()
        with pytest.raises(ValueError, match="mapper exploded"):
            runtime.execute_batch(jobs, {"after": ["boom"]})
        assert runtime.dfs.exists("before.out")
        for name in ("boom.out", "other.out", "after.out"):
            assert not runtime.dfs.exists(name)
