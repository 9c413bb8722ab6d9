"""Analytic time model for simulated MapReduce tasks.

The paper reports wall-clock times on a 15-node Hadoop cluster; we replace
the cluster with a deterministic model (DESIGN.md Section 2). Every task's
duration is derived from the bytes it reads/writes/shuffles and the records
it processes, using the rates in :class:`repro.config.ClusterConfig`. The
model keeps the properties the paper's results depend on:

* every job pays a fixed startup cost (~15 s, Section 4.2), so plans with
  fewer jobs win when work is equal -- the reason chained broadcast joins
  help;
* repartition joins shuffle both inputs (network + sort), broadcast joins
  shuffle nothing but pay a per-task build cost in Jaql -- or an amortized
  per-node cost in Hive, whose broadcast join uses the DistributedCache
  (Section 6.6);
* map task time is dominated by split I/O plus per-record CPU, so expensive
  UDFs (modeled as extra CPU seconds) lengthen the pipeline that carries
  them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import ClusterConfig


def reducer_count(input_bytes: float, cluster: ClusterConfig) -> int:
    """Reduce tasks of a job over ``input_bytes``: Hive-like default.

    One reducer per two DFS blocks of input, capped by the cluster's
    reduce slots. The compiler sizes every join and GROUP BY job with
    it, and the optimizer's skew rule asks it how many reducers a
    repartitioned tail would be spread over.
    """
    per_reducer = 2 * cluster.block_size_bytes
    wanted = max(1, math.ceil(input_bytes / per_reducer))
    return min(wanted, cluster.total_reduce_slots)


@dataclass(frozen=True)
class TaskWork:
    """Raw work performed by one task, accumulated by the runtime."""

    input_bytes: int = 0
    input_records: int = 0
    output_bytes: int = 0
    output_records: int = 0
    shuffle_bytes: int = 0
    extra_cpu_seconds: float = 0.0


class ClusterCostModel:
    """Turns :class:`TaskWork` into seconds under a :class:`ClusterConfig`."""

    def __init__(self, config: ClusterConfig):
        self.config = config

    # -- phase-level ----------------------------------------------------------

    def map_task_seconds(self, work: TaskWork, writes_to_dfs: bool,
                         build_seconds: float = 0.0) -> float:
        """Duration of one map task.

        ``writes_to_dfs`` distinguishes map-only jobs (output written to the
        DFS) from map-reduce jobs (output handed to the shuffle, charged on
        the reduce side as in Hadoop's merge-dominated shuffle).
        """
        cfg = self.config
        seconds = cfg.task_startup_seconds + build_seconds
        seconds += work.input_bytes / cfg.read_bytes_per_second
        seconds += work.input_records * cfg.cpu_seconds_per_record
        seconds += work.extra_cpu_seconds
        if writes_to_dfs:
            seconds += work.output_bytes / cfg.write_bytes_per_second
        return seconds

    def reduce_task_seconds(self, work: TaskWork) -> float:
        """Duration of one reduce task: shuffle in, reduce, write out."""
        cfg = self.config
        seconds = cfg.task_startup_seconds
        seconds += work.shuffle_bytes / cfg.shuffle_bytes_per_second
        seconds += work.input_records * cfg.cpu_seconds_per_record
        seconds += work.extra_cpu_seconds
        seconds += work.output_bytes / cfg.write_bytes_per_second
        return seconds

    # -- broadcast builds -----------------------------------------------------

    def broadcast_build_seconds(self, build_bytes: int,
                                build_records: int) -> float:
        """Time for one task to load and hash one broadcast build side."""
        cfg = self.config
        return (build_bytes / cfg.broadcast_read_bytes_per_second
                + build_records * cfg.build_seconds_per_record)

    def per_task_build_seconds(self, build_bytes: int, build_records: int,
                               num_map_tasks: int, backend: str) -> float:
        """Build cost charged to each map task, by backend.

        Jaql loads the build side in *every* task (Section 2.2.1). Hive 0.12
        distributes it once per node via the DistributedCache (Section 6.6),
        so the total build work is ``nodes x build`` spread over the job's
        tasks; with many tasks per node the per-task share shrinks.
        """
        full = self.broadcast_build_seconds(build_bytes, build_records)
        if backend == "jaql":
            return full
        if num_map_tasks <= 0:
            return full
        nodes = min(self.config.worker_nodes, num_map_tasks)
        return full * nodes / num_map_tasks

    def slice_pays(self, build_bytes: float, slice_bytes: float,
                   consumer_map_tasks: int, backend: str) -> bool:
        """True when a map-only job that slices a build file once beats
        every consumer map task loading the whole file.

        The slice saves each consumer task the load of the bytes it
        drops, once per wave of consumer tasks; it costs one job startup
        plus its own waves of split reads over the build file. Records
        cancel: the same rows end up in the hash table either way.
        """
        cfg = self.config
        saved = (self.per_task_build_seconds(
                     int(build_bytes), 0, consumer_map_tasks, backend)
                 - self.per_task_build_seconds(
                     int(slice_bytes), 0, consumer_map_tasks, backend))
        slice_tasks = max(1, math.ceil(build_bytes / cfg.block_size_bytes))
        split_read = (cfg.task_startup_seconds
                      + min(build_bytes, cfg.block_size_bytes)
                      / cfg.read_bytes_per_second)
        slots = cfg.total_map_slots
        cost = (cfg.job_startup_seconds
                + math.ceil(slice_tasks / slots) * split_read)
        return saved * math.ceil(consumer_map_tasks / slots) > cost

    # -- hybrid hash join spill ----------------------------------------------

    def spill_seconds(self, spilled_bytes: int) -> float:
        """Time to write spilled partitions to local disk and read them back.

        Spill scratch uses the DFS write rate out and the sequential read
        rate back in -- same media as job output, no network hop.
        """
        cfg = self.config
        return (spilled_bytes / cfg.write_bytes_per_second
                + spilled_bytes / cfg.read_bytes_per_second)

    def spill_seconds_per_byte(self) -> float:
        """Per-byte spill cost, for charging the probe side's second pass."""
        cfg = self.config
        return (1.0 / cfg.write_bytes_per_second
                + 1.0 / cfg.read_bytes_per_second)
