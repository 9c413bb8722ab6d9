"""Cluster runtime: executes MapReduce jobs over the simulated DFS.

Jobs *really run*: mappers and reducers are applied to the actual rows, so
join results, UDF outputs and collected statistics are genuine. What is
simulated is time: each task's duration comes from the analytic cost model,
and a batch of jobs is scheduled over the cluster's slot pools to obtain
per-job timelines and the batch makespan.

The runtime also reproduces two paper-critical behaviours:

* broadcast-join build sides are checked against the task memory budget;
  a build overflowing by up to ``spill_overflow_factor`` degrades in
  place to a spilling hybrid hash join (partitions written to and re-read
  from task-local disk, charged as extra I/O time), while a pathological
  overflow beyond the margin still *fails* the job as Jaql would
  (Section 2.2.1) and takes the executor's ban-and-replan path;
* when a job declares ``stats_columns``, every task accumulates partial
  statistics over its output and publishes them through the coordination
  service; the client merges them after the job (Section 5.4).

Memory governance: every job carries a declared memory demand
(:attr:`repro.cluster.job.MapReduceJob.memory_demand_bytes`); the slot
scheduler charges the larger of the declaration and the actually loaded
in-memory build bytes against its cluster memory pool, so concurrent
jobs queue (deterministic FIFO) when the pool is exhausted.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.coordination import CoordinationService
from repro.cluster.costmodel import ClusterCostModel, TaskWork
from repro.cluster.counters import Counters
from repro.cluster.faults import FaultInjector, JobAttempt
from repro.cluster.job import BatchEmit, MapReduceJob, TaskContext
from repro.cluster.scheduler import (
    JobTimeline,
    ScheduledJob,
    ScheduleResult,
    SlotScheduler,
)
from repro.config import DynoConfig
from repro.data.table import Row
from repro.errors import (
    BroadcastBuildOverflowError,
    JobError,
    JobFaultInjectedError,
)
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.stats.collector import (
    TaskStatsCollector,
    merge_published_stats,
    stats_scope,
)
from repro.stats.kmv import kmv_hash
from repro.stats.statistics import TableStats
from repro.storage.dfs import DistributedFileSystem, Split

#: Called with the number of splits already dispatched; returning False
#: stops dispatching further splits (pilot-run early termination).
DispatchGate = Callable[[int], bool]


@dataclass
class JobResult:
    """Everything known about one executed job."""

    job: MapReduceJob
    output_name: str
    output_rows: int
    output_bytes: int
    counters: Counters
    map_task_seconds: list[float]
    reduce_task_seconds: list[float]
    splits_processed: int
    splits_total: int
    collected_stats: TableStats | None = None
    timeline: JobTimeline | None = None
    #: driver wall-clock spent in this job's data pass (seconds); only
    #: measured while tracing/metrics are enabled, else 0.0.
    driver_wall_seconds: float = 0.0
    #: bytes spilled to task-local disk by the hybrid hash join (build
    #: partitions plus the probe side's second pass); 0 for in-memory runs.
    spilled_bytes: int = 0
    #: build bytes actually resident in task memory (after spilling);
    #: feeds the scheduler's per-job memory charge.
    in_memory_build_bytes: int = 0

    @property
    def elapsed_seconds(self) -> float:
        if self.timeline is None:
            raise JobError(f"job {self.job.name!r} has not been scheduled")
        return self.timeline.elapsed

    @property
    def scanned_fraction(self) -> float:
        """Fraction of the input splits actually processed."""
        if self.splits_total == 0:
            return 1.0
        return self.splits_processed / self.splits_total


@dataclass
class _JobDataPass:
    """Intermediate product of a job's data pass, before finalization.

    Holds everything one attempt computed; finalization turns it into a
    :class:`JobResult` by writing the output to DFS and merging published
    statistics (see :meth:`ClusterRuntime._finalize_job`).
    """

    counters: Counters
    output_rows: list[Row]
    map_task_seconds: list[float]
    reduce_task_seconds: list[float]
    splits_processed: int
    splits_total: int
    driver_wall_seconds: float = 0.0
    spilled_bytes: int = 0
    in_memory_build_bytes: int = 0
    #: per-row sizes parallel to ``output_rows`` (each row was sized once
    #: during the pass); lets finalize hand the DFS pre-computed sizes for
    #: schema-free outputs instead of re-walking every dict.
    output_sizes: list[int] | None = None


@dataclass(frozen=True)
class _BuildLoad:
    """Outcome of loading a job's broadcast build sides.

    ``spill_fraction`` is the share of the build that did not fit in task
    memory; the probe side pays a second pass over the same fraction of
    its input (Grace-style hybrid hash join).
    """

    per_task_seconds: float = 0.0
    loaded_bytes: int = 0
    spilled_bytes: int = 0
    spill_fraction: float = 0.0
    in_memory_bytes: int = 0


@dataclass
class BatchResult:
    """Results of a set of jobs executed as one scheduling batch."""

    results: dict[str, JobResult]
    makespan: float

    def __getitem__(self, job_name: str) -> JobResult:
        return self.results[job_name]

    @property
    def total_task_seconds(self) -> float:
        """Aggregate cluster work (used for utilization assertions)."""
        return sum(
            sum(result.map_task_seconds) + sum(result.reduce_task_seconds)
            for result in self.results.values()
        )


def dependency_levels(jobs: Sequence[MapReduceJob],
                      dependencies: dict[str, list[str]],
                      ) -> list[list[MapReduceJob]]:
    """Partition a batch into dependency levels (Kahn's algorithm).

    Level *n* holds the jobs whose dependencies all live in levels < *n*.
    Within a level, batch submission order is preserved, so the
    concatenation of levels is the deterministic topological order
    :meth:`ClusterRuntime.execute_batch` runs jobs in. A dependency on a
    job outside the batch, or a cycle, is a :class:`JobError`.
    """
    names = {job.name for job in jobs}
    for job in jobs:
        for dep in dependencies.get(job.name, []):
            if dep not in names:
                raise JobError(
                    f"job {job.name!r} depends on {dep!r} not in batch"
                )
    levels: list[list[MapReduceJob]] = []
    done: set[str] = set()
    pending = list(jobs)
    while pending:
        level = [
            job for job in pending
            if all(dep in done for dep in dependencies.get(job.name, []))
        ]
        if not level:
            raise JobError(
                f"dependency cycle involving job {pending[0].name!r}"
            )
        levels.append(level)
        done.update(job.name for job in level)
        pending = [job for job in pending if job.name not in done]
    return levels


class ClusterRuntime:
    """Executes jobs and batches; owns the simulated clock."""

    def __init__(self, dfs: DistributedFileSystem, config: DynoConfig,
                 coordination: CoordinationService | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        self.dfs = dfs
        self.config = config
        self.coordination = coordination or CoordinationService()
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        self.cost_model = ClusterCostModel(config.cluster)
        self.scheduler = SlotScheduler(
            config.cluster.total_map_slots,
            config.cluster.total_reduce_slots,
            policy=config.cluster.scheduler_policy,
            speculative=config.cluster.speculative_execution,
            speculative_threshold=config.cluster.speculative_slowdown_threshold,
            tracer=self.tracer,
            memory_pool_bytes=config.cluster.effective_cluster_memory_bytes,
        )
        #: armed fault schedule, or None -- with no plan armed the fault
        #: machinery is entirely off the data-path hot loop.
        self.fault_injector: FaultInjector | None = None
        if config.fault_plan is not None and config.fault_plan.injects_anything:
            self.fault_injector = config.fault_plan.arm()
            self.fault_injector.bind(self.tracer, self.metrics)
        self._faults_suspended = 0
        #: serializes whole batches: callers on several threads may share
        #: one runtime, and both the slot scheduler pass and the
        #: ``clock_seconds`` read-modify-write below assume exclusive
        #: access for the duration of a batch.
        self._batch_lock = threading.Lock()
        #: cumulative simulated time of everything executed through
        #: :meth:`execute` / :meth:`execute_batch`.
        self.clock_seconds = 0.0
        self.jobs_executed = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @contextmanager
    def suspended_faults(self):
        """Temporarily disable fault injection (re-entrant).

        Pilot runs execute inside this context: they happen before the
        "real" query starts, and keeping them fault-free guarantees that
        leaf statistics -- and therefore the optimizer's first plan -- are
        identical between a faulted and a fault-free run, which is what
        the differential oracle checks.
        """
        self._faults_suspended += 1
        try:
            yield
        finally:
            self._faults_suspended -= 1

    def _active_injector(self) -> FaultInjector | None:
        if self._faults_suspended or self.fault_injector is None:
            return None
        return self.fault_injector

    def execute(self, job: MapReduceJob,
                gate: DispatchGate | None = None) -> JobResult:
        """Execute one job and advance the simulated clock."""
        batch = self.execute_batch([job], gates={job.name: gate} if gate else None)
        return batch[job.name]

    def execute_batch(
        self,
        jobs: list[MapReduceJob],
        dependencies: dict[str, list[str]] | None = None,
        gates: dict[str, DispatchGate | None] | None = None,
    ) -> BatchResult:
        """Execute jobs as one batch sharing the cluster's slots.

        ``dependencies`` maps a job name to the names of jobs (in the same
        batch) that must finish before it starts -- used by PILR_ST's
        sequential submission and by multi-job plan steps.

        Batches are mutually exclusive: callers on other threads queue on
        the batch lock, so each batch sees a consistent cluster (scheduler
        state, clock, DFS writes of its own jobs) exactly as if submitted
        to one JobTracker.
        """
        if not jobs:
            return BatchResult({}, 0.0)
        with self._batch_lock:
            return self._execute_batch_locked(jobs, dependencies, gates)

    def _execute_batch_locked(
        self,
        jobs: list[MapReduceJob],
        dependencies: dict[str, list[str]] | None = None,
        gates: dict[str, DispatchGate | None] | None = None,
    ) -> BatchResult:
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise JobError("duplicate job names in batch")
        dependencies = dependencies or {}
        gates = gates or {}

        # Data pass: jobs run one after another on the calling thread,
        # in dependency order, each finalized (output written, statistics
        # merged) before the next starts -- so a consumer always reads
        # its inputs materialized, and a job that raises leaves every
        # job before it finalized and every job after it untouched.
        results: dict[str, JobResult] = {}
        for level in dependency_levels(jobs, dependencies):
            for job in level:
                results[job.name] = self._run_job(job, gates.get(job.name))

        # Time pass: schedule all tasks over the shared slot pools. Retry
        # backoff accumulated during the data pass is charged as extra
        # startup time: the job existed, waited, and was resubmitted.
        injector = self._active_injector()
        base_startup = self.config.cluster.job_startup_seconds
        scheduled = [
            ScheduledJob(
                job_id=job.name,
                map_durations=results[job.name].map_task_seconds,
                reduce_durations=results[job.name].reduce_task_seconds,
                startup_seconds=base_startup + (
                    injector.consume_penalty(job.name) if injector else 0.0
                ),
                depends_on=list(dependencies.get(job.name, [])),
                memory_bytes=max(
                    job.memory_demand_bytes,
                    results[job.name].in_memory_build_bytes,
                ),
            )
            for job in jobs
        ]
        schedule: ScheduleResult = self.scheduler.schedule(scheduled)
        for name, timeline in schedule.timelines.items():
            results[name].timeline = timeline

        self.clock_seconds += schedule.makespan
        self.jobs_executed += len(jobs)
        if self.tracer.enabled or self.metrics.enabled:
            self._record_batch(jobs, results, scheduled, schedule.makespan)
        return BatchResult(results, schedule.makespan)

    def _record_batch(self, jobs: list[MapReduceJob],
                      results: dict[str, JobResult],
                      scheduled: list[ScheduledJob],
                      makespan: float) -> None:
        """Emit per-job trace events and batch metrics (observing runs only).

        Each job reports its *simulated* time components (startup, map and
        reduce task seconds, scheduled elapsed) and the *driver wall-clock*
        of its data pass separately -- the split the ISSUE's est-vs-actual
        audit and every later perf PR measure through.
        """
        startup_of = {entry.job_id: entry.startup_seconds
                      for entry in scheduled}
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("jobs.executed", len(jobs))
            metrics.observe("batch.makespan_s", makespan)
        tracer = self.tracer
        for job in jobs:
            result = results[job.name]
            timeline = result.timeline
            if metrics.enabled:
                metrics.inc("rows.output", result.output_rows)
                metrics.inc("bytes.output", result.output_bytes)
                metrics.observe("job.driver_wall_s",
                                result.driver_wall_seconds)
                metrics.observe("job.sim_elapsed_s",
                                timeline.elapsed if timeline else 0.0)
                if result.spilled_bytes:
                    metrics.inc("bytes.spilled", result.spilled_bytes)
            if result.spilled_bytes and tracer.enabled:
                tracer.event(
                    "spill",
                    job=job.name,
                    spilled_bytes=result.spilled_bytes,
                    in_memory_build_bytes=result.in_memory_build_bytes,
                    task_memory_bytes=self.config.cluster.task_memory_bytes,
                )
            if tracer.enabled:
                tracer.event(
                    "job",
                    job=job.name,
                    output=result.output_name,
                    rows=result.output_rows,
                    bytes=result.output_bytes,
                    splits=result.splits_processed,
                    sim_startup_s=round(startup_of.get(job.name, 0.0), 6),
                    sim_map_s=round(sum(result.map_task_seconds), 6),
                    sim_reduce_s=round(sum(result.reduce_task_seconds), 6),
                    sim_elapsed_s=round(timeline.elapsed, 6)
                    if timeline else 0.0,
                    driver_wall_s=round(result.driver_wall_seconds, 6),
                )
        if tracer.enabled:
            tracer.event("batch", jobs=sorted(results),
                         makespan_s=round(makespan, 6))

    # ------------------------------------------------------------------
    # data execution
    # ------------------------------------------------------------------

    def _load_broadcast_sides(
        self, job: MapReduceJob, counters: Counters, num_map_tasks: int
    ) -> _BuildLoad:
        """Load build sides, enforce task memory, return the load outcome.

        The read cost covers the raw build files (every task re-reads them
        under the Jaql backend); the memory check covers the *loaded* rows,
        i.e. after the build side's local predicates ran -- that is what the
        in-memory hash table actually holds (Section 2.2.1).

        A build overflowing ``task_memory_bytes`` by at most
        ``spill_overflow_factor`` *degrades in place*: the task keeps a
        budget-sized share in memory and Grace-partitions the rest to
        task-local disk, paying spill I/O time (results are unchanged --
        rows stay loaded; only time and byte accounting differ). Overflow
        beyond the margin is a pathological misestimate and still raises
        :class:`BroadcastBuildOverflowError`, which the dynamic executor
        turns into a ban-and-replan.
        """
        if not job.broadcast_builds:
            return _BuildLoad()
        read_bytes = 0
        loaded_bytes = 0
        loaded_records = 0
        for build in job.broadcast_builds:
            build.load(self.dfs.read_file_batch(build.input_file))
            read_bytes += self.dfs.file_size(build.input_file)
            loaded_bytes += build.loaded_bytes
            loaded_records += len(build.built_rows())
        counters.increment("map", Counters.BROADCAST_BYTES, read_bytes)
        cluster = self.config.cluster
        budget = cluster.task_memory_bytes
        spilled = 0
        if loaded_bytes > budget:
            if loaded_bytes > budget * cluster.spill_overflow_factor:
                raise BroadcastBuildOverflowError(
                    loaded_bytes, budget, job.name,
                    "; ".join(f"{build.description}={build.loaded_bytes}B"
                              for build in job.broadcast_builds),
                )
            spilled = loaded_bytes - budget
            counters.increment("map", Counters.SPILLED_BYTES, spilled)
            self.dfs.charge_spill(spilled, spilled)
        build_seconds = self.cost_model.per_task_build_seconds(
            read_bytes, loaded_records, num_map_tasks, self.config.backend
        )
        if spilled:
            # Overflow partitions are written once during the build and
            # read back once while probing.
            build_seconds += self.cost_model.spill_seconds(spilled)
        return _BuildLoad(
            per_task_seconds=build_seconds,
            loaded_bytes=loaded_bytes,
            spilled_bytes=spilled,
            spill_fraction=spilled / loaded_bytes if spilled else 0.0,
            in_memory_bytes=min(loaded_bytes, budget),
        )

    def _retry_backoff_seconds(self, failed_attempts: int) -> float:
        cluster = self.config.cluster
        backoff = cluster.job_retry_backoff_seconds * \
            (2.0 ** (failed_attempts - 1))
        return min(backoff, cluster.job_retry_backoff_cap_seconds)

    def _run_job(self, job: MapReduceJob,
                 gate: DispatchGate | None) -> JobResult:
        """Run one job to its :class:`JobResult`: data pass, then finalize.

        With a fault plan armed, transient injected job faults
        (:class:`JobFaultInjectedError`) are retried here. Each retry is
        a fresh incarnation (fresh fault draws, partial published stats
        cleared) and charges capped exponential backoff to the job's
        simulated startup time.
        """
        observing = self.tracer.enabled or self.metrics.enabled
        wall_start = time.perf_counter() if observing else 0.0
        injector = self._active_injector()
        failed_attempts = 0
        while True:
            attempt = injector.begin_attempt(job) if injector else None
            try:
                data = self._run_data_pass(job, gate, attempt)
                break
            except JobFaultInjectedError:
                failed_attempts += 1
                if failed_attempts >= self.config.cluster.max_job_attempts:
                    raise
                # A re-run re-publishes its partial statistics from
                # scratch; drop the dead attempt's entries first.
                self.coordination.clear_scope(stats_scope(job.name))
                injector.add_penalty(
                    job.name, self._retry_backoff_seconds(failed_attempts))
        if observing:
            data.driver_wall_seconds = time.perf_counter() - wall_start
        return self._finalize_job(job, data)

    def _run_data_pass(self, job: MapReduceJob, gate: DispatchGate | None,
                       attempt: JobAttempt | None) -> "_JobDataPass":
        """One attempt at a job: everything except the DFS output write
        and the client-side stats merge, which only a surviving attempt
        reaches (see :meth:`_finalize_job`).

        Each emitted row is sized exactly *once*, by the operator that
        produced it: the size feeds the map output byte counter, travels
        with the record through the shuffle, and reaches the statistics
        collector.
        """
        if attempt is not None:
            attempt.boundary("map")
        counters = Counters()
        # Maps one task attempt's duration to the total including
        # retried attempts: the identity unless a fault plan is armed.
        cluster = self.config.cluster
        attempts = (
            attempt.task_inflater(cluster.max_task_attempts,
                                  cluster.task_startup_seconds)
            if attempt is not None else lambda seconds: seconds
        )
        splits = job.splits if job.splits is not None else self._all_splits(job)
        splits_total = len(splits)

        build = self._load_broadcast_sides(job, counters, len(splits))
        build_seconds = build.per_task_seconds
        spill_per_byte = (self.cost_model.spill_seconds_per_byte()
                          if build.spill_fraction else 0.0)
        probe_spill_bytes = 0

        #: keyed map output with each value's byte size carried alongside.
        map_outputs: list[tuple[object, Row, int]] = []
        map_task_seconds: list[float] = []
        output_rows: list[Row] = []
        output_sizes: list[int] = []
        splits_processed = 0

        for split in splits:
            if gate is not None and not gate(splits_processed):
                break
            splits_processed += 1
            context = TaskContext()
            direct_bytes = 0
            direct_records = 0
            # The mapper consumes the whole split as a column batch and
            # returns rows + pre-computed sizes.
            batch = self.dfs.read_split_batch(split)
            emit = job.mapper(context, split.file_name, batch)
            input_records = len(batch)
            emitted_records = len(emit.rows)
            if job.is_map_only:
                emitted_bytes = sum(emit.sizes)
                output_rows.extend(emit.rows)
                output_sizes.extend(emit.sizes)
                self._collect_stats(job, f"map-{split.index}", emit)
            elif job.map_side_output:
                direct = self._route_map_side_output(emit, map_outputs)
                direct_records = len(direct.rows)
                direct_bytes = sum(direct.sizes)
                emitted_bytes = (8 * (emitted_records - direct_records)
                                 + sum(emit.sizes))
                if direct_records:
                    output_rows.extend(direct.rows)
                    output_sizes.extend(direct.sizes)
                    self._collect_stats(job, f"map-{split.index}", direct)
            else:
                emitted_bytes = 8 * emitted_records + sum(emit.sizes)
                map_outputs.extend(
                    zip(emit.keys, emit.rows, emit.sizes)  # type: ignore[arg-type]
                )

            counters.increment("map", Counters.MAP_INPUT_RECORDS,
                               input_records)
            counters.increment("map", Counters.MAP_INPUT_BYTES,
                               split.size_bytes)
            counters.increment("map", Counters.MAP_OUTPUT_RECORDS,
                               emitted_records)
            counters.increment("map", Counters.MAP_OUTPUT_BYTES, emitted_bytes)
            stats_cpu = 0.0
            if job.stats_columns:
                stat_records = (emitted_records if job.is_map_only
                                else direct_records)
                stats_cpu = (stat_records
                             * self.config.cluster.stats_seconds_per_record)
            work = TaskWork(
                input_bytes=split.size_bytes,
                input_records=input_records,
                output_bytes=emitted_bytes,
                output_records=emitted_records,
                extra_cpu_seconds=context.extra_cpu_seconds + stats_cpu,
            )
            task_seconds = self.cost_model.map_task_seconds(
                work, writes_to_dfs=job.is_map_only,
                build_seconds=build_seconds,
            )
            if direct_bytes:
                # Heavy-key results bypass the shuffle and are written to
                # the DFS by the map task itself.
                task_seconds += (direct_bytes
                                 / self.config.cluster.write_bytes_per_second)
            if build.spill_fraction:
                # Hybrid hash join: the probe rows hashing to spilled
                # partitions are staged to disk and joined in a second
                # pass over this split's share of the input.
                task_spill = int(split.size_bytes * build.spill_fraction)
                probe_spill_bytes += task_spill
                task_seconds += task_spill * spill_per_byte
            map_task_seconds.append(attempts(task_seconds))

        reduce_task_seconds: list[float] = []
        if not job.is_map_only:
            if attempt is not None:
                attempt.boundary("reduce")
            reduce_rows, reduce_sizes = self._run_reduce_phase(
                job, map_outputs, counters, reduce_task_seconds, attempts,
            )
            if output_rows:
                # Skew joins write heavy-key results map-side; the tail's
                # reduce output is appended after them, in a deterministic
                # (split order, then partition order) layout.
                output_rows.extend(reduce_rows)
                output_sizes.extend(reduce_sizes)
            else:
                output_rows, output_sizes = reduce_rows, reduce_sizes

        if attempt is not None:
            # Models a failure while committing the job: fired before
            # the output is written, so a killed attempt leaves no file.
            attempt.boundary("finalize")
        if probe_spill_bytes:
            counters.increment("map", Counters.SPILLED_BYTES,
                               probe_spill_bytes)
            self.dfs.charge_spill(probe_spill_bytes, probe_spill_bytes)
        return _JobDataPass(
            counters=counters,
            output_rows=output_rows,
            map_task_seconds=map_task_seconds,
            reduce_task_seconds=reduce_task_seconds,
            splits_processed=splits_processed,
            splits_total=splits_total,
            spilled_bytes=build.spilled_bytes + probe_spill_bytes,
            in_memory_build_bytes=build.in_memory_bytes,
            output_sizes=output_sizes,
        )

    def _finalize_job(self, job: MapReduceJob,
                      data: "_JobDataPass") -> JobResult:
        """Complete a job: materialize its output, merge its statistics."""
        counters = data.counters
        output_rows = data.output_rows
        # Sizes computed during the pass equal the write-side estimate for
        # schema-free (intermediate) outputs and for typed schemas whose
        # field kinds all size value-exactly; both reduce to
        # estimate_value_size per row. Other outputs re-derive from schema.
        row_sizes = None
        if data.output_sizes is not None and \
                job.output_schema.sizes_value_exact_kinds:
            row_sizes = data.output_sizes
        output_file = self.dfs.write_rows(
            job.output_name, job.output_schema, output_rows, overwrite=True,
            row_sizes=row_sizes,
        )
        counters.increment("output", Counters.OUTPUT_RECORDS, len(output_rows))
        counters.increment("output", Counters.OUTPUT_BYTES,
                           output_file.size_bytes)

        collected: TableStats | None = None
        if job.stats_columns:
            collected = merge_published_stats(job.name, self.coordination)

        return JobResult(
            job=job,
            output_name=job.output_name,
            output_rows=len(output_rows),
            output_bytes=output_file.size_bytes,
            counters=counters,
            map_task_seconds=data.map_task_seconds,
            reduce_task_seconds=data.reduce_task_seconds,
            splits_processed=data.splits_processed,
            splits_total=data.splits_total,
            collected_stats=collected,
            driver_wall_seconds=data.driver_wall_seconds,
            spilled_bytes=data.spilled_bytes,
            in_memory_build_bytes=data.in_memory_build_bytes,
        )

    def _run_reduce_phase(
        self,
        job: MapReduceJob,
        map_outputs: list[tuple[object, Row, int]],
        counters: Counters,
        reduce_task_seconds: list[float],
        attempts,
    ) -> tuple[list[Row], list[int]]:
        """One global grouping pass, then hash per *group*.

        Every entry of a group lands in the same partition (the partition
        function only sees the key), so grouping first and routing whole
        groups hashes each distinct key once instead of once per record.
        Per partition, groups keep global first-arrival order -- the
        framework's sort phase -- which is exactly the order a
        per-partition grouping pass would produce.
        """
        num_reducers = job.num_reducers
        grouped: dict[object, tuple[list[Row], list[int]]] = {}
        get_group = grouped.get
        for key, value, size in map_outputs:
            # Compiled mappers emit hashable keys (scalars, flat tuples);
            # only a list-valued or nested key fails the probe and pays
            # for freezing -- into the tuple an equal hashable key is.
            try:
                entry = get_group(key)
            except TypeError:
                key = _freeze_key(key)
                entry = get_group(key)
            if entry is None:
                grouped[key] = ([value], [size])
            else:
                entry[0].append(value)
                entry[1].append(size)

        partitions: list[list[tuple[object, list[Row], list[int]]]] = [
            [] for _ in range(num_reducers)
        ]
        hash_of = kmv_hash
        for frozen, (values, sizes) in grouped.items():
            partitions[hash_of(frozen) % num_reducers].append(
                (frozen, values, sizes)
            )

        output_rows: list[Row] = []
        output_sizes: list[int] = []
        for partition_id, partition in enumerate(partitions):
            context = TaskContext()
            input_records = 0
            shuffle_bytes = 0
            for _, values, sizes in partition:
                input_records += len(values)
                shuffle_bytes += 8 * len(values) + sum(sizes)
            emit = job.reducer(context, partition)  # type: ignore[misc]
            task_rows = emit.rows
            output_rows.extend(task_rows)
            output_sizes.extend(emit.sizes)
            self._collect_stats(job, f"reduce-{partition_id}", emit)

            counters.increment("reduce", Counters.REDUCE_INPUT_RECORDS,
                               input_records)
            counters.increment("reduce", Counters.SHUFFLE_BYTES, shuffle_bytes)
            counters.increment("reduce", Counters.REDUCE_OUTPUT_RECORDS,
                               len(task_rows))
            stats_cpu = 0.0
            if job.stats_columns:
                stats_cpu = (len(task_rows)
                             * self.config.cluster.stats_seconds_per_record)
            work = TaskWork(
                input_records=input_records,
                output_bytes=sum(emit.sizes),
                output_records=len(task_rows),
                shuffle_bytes=shuffle_bytes,
                extra_cpu_seconds=context.extra_cpu_seconds + stats_cpu,
            )
            reduce_task_seconds.append(
                attempts(self.cost_model.reduce_task_seconds(work))
            )
        return output_rows, output_sizes

    @staticmethod
    def _route_map_side_output(
        emit: BatchEmit, map_outputs: list[tuple[object, Row, int]],
    ) -> BatchEmit:
        """Split a skew-join map task's emission between output and shuffle.

        Records emitted with ``key=None`` carry heavy-key join results
        produced map-side; they bypass the shuffle entirely and are
        returned for the job's output (charged at the DFS write rate by
        the caller). Keyed records are the long tail and shuffle as usual.
        """
        direct = BatchEmit(rows=[], sizes=[])
        for entry in zip(emit.keys, emit.rows, emit.sizes):  # type: ignore[arg-type]
            if entry[0] is None:
                direct.rows.append(entry[1])
                direct.sizes.append(entry[2])
            else:
                map_outputs.append(entry)
        return direct

    def _collect_stats(self, job: MapReduceJob, task_id: str,
                       emit: BatchEmit) -> None:
        """Accumulate and publish one task's output statistics (if any)."""
        if not job.stats_columns:
            return
        collector = TaskStatsCollector(
            job.name, task_id, job.stats_columns, self.coordination,
            kmv_size=self.config.pilot.kmv_size,
        )
        if emit.columns is not None:
            collector.observe_columns(emit.columns, emit.sizes)
        else:
            collector.observe_batch(emit.rows, emit.sizes)
        collector.publish()

    def _all_splits(self, job: MapReduceJob) -> list[Split]:
        splits: list[Split] = []
        for name in job.inputs:
            splits.extend(self.dfs.file_splits(name))
        return splits


def _freeze_key(key: object) -> object:
    """Make join keys hashable/groupable (lists become tuples)."""
    if isinstance(key, list):
        return tuple(_freeze_key(item) for item in key)
    if isinstance(key, tuple):
        return tuple(_freeze_key(item) for item in key)
    return key
