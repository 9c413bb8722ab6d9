"""Discrete-event FIFO slot scheduler.

Reproduces Hadoop 1.x's slot model on the paper's cluster: a fixed pool of
map slots and reduce slots (140/84 by default), a FIFO queue across
concurrently submitted jobs, map tasks running in *waves* when a job has
more tasks than free slots, and reduce tasks of a job becoming runnable only
once all its map tasks finish.

The scheduler consumes pre-computed task durations (from the analytic cost
model) and produces per-job timelines plus the batch makespan. It is what
makes multi-job effects visible in experiments: PILR_MT beats PILR_ST by
sharing one wave across relations (Table 1), and the SIMPLE_MO strategy
beats SIMPLE_SO by overlapping jobs (Figure 5).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, replace

from repro.errors import JobError
from repro.obs.tracer import NULL_TRACER, Tracer


def plan_speculative_backups(durations: list[float],
                             threshold: float,
                             ) -> tuple[list[float], list[float]]:
    """Model Hadoop's speculative execution over one job's task durations.

    A task whose duration exceeds ``threshold x median + median`` gets a
    backup copy launched at the threshold point; the backup (running at
    median speed) wins, so the task's *effective* duration is capped at
    ``threshold x median + median``. The backup copy itself still occupies
    a slot for ``median`` seconds -- returned separately as a "phantom"
    task that consumes cluster capacity without gating job completion.

    Returns ``(effective_durations, phantom_durations)``. With fewer than
    3 tasks there is no meaningful median and nothing is speculated.
    """
    if len(durations) < 3:
        return list(durations), []
    ordered = sorted(durations)
    median = ordered[len(ordered) // 2]
    if median <= 0.0:
        return list(durations), []
    cap = threshold * median + median
    effective: list[float] = []
    phantoms: list[float] = []
    for duration in durations:
        if duration > cap:
            effective.append(cap)
            phantoms.append(median)
        else:
            effective.append(duration)
    return effective, phantoms


@dataclass
class ScheduledJob:
    """One job's scheduling inputs."""

    job_id: str
    map_durations: list[float]
    reduce_durations: list[float] = field(default_factory=list)
    startup_seconds: float = 0.0
    submit_time: float = 0.0
    depends_on: list[str] = field(default_factory=list)
    #: declared build/buffer memory demand, held against the scheduler's
    #: cluster memory pool from task start to job finish. 0 never waits.
    memory_bytes: int = 0


@dataclass
class JobTimeline:
    """When one job started and finished in simulated time."""

    job_id: str
    ready_time: float = 0.0
    start_time: float = 0.0
    map_finish_time: float = 0.0
    finish_time: float = 0.0
    #: time spent queued for cluster memory after startup, before any
    #: task could be dispatched (0 when the pool admitted it at once).
    memory_wait_seconds: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.finish_time - self.ready_time


@dataclass
class ScheduleResult:
    timelines: dict[str, JobTimeline]
    makespan: float


@dataclass
class _CallState:
    """Per-``schedule()`` bookkeeping.

    Kept off the scheduler instance so concurrent ``schedule()`` calls
    (callers on several threads sharing one runtime) never observe each
    other's freed-slot counts or speculative phantom tasks.
    """

    freed_map: int = 0
    freed_reduce: int = 0
    phantom_maps: dict[str, list[float]] = field(default_factory=dict)
    phantom_reduces: dict[str, list[float]] = field(default_factory=dict)
    #: cluster memory pool accounting for this batch.
    free_memory: int = 0
    memory_held: dict[str, int] = field(default_factory=dict)
    #: jobs past startup, queued (FIFO) for memory: (job_id, demand).
    memory_queue: deque[tuple[str, int]] = field(default_factory=deque)
    memory_wait_start: dict[str, float] = field(default_factory=dict)
    used_memory_peak: int = 0


#: Scheduling policies. The paper uses Hadoop's FIFO scheduler "so as to
#: maximize the utilization of the cluster resources" and leaves the fair
#: and capacity schedulers as future work (Section 6.3); ``fair`` is
#: implemented here for that experiment.
POLICY_FIFO = "fifo"
POLICY_FAIR = "fair"


class _TaskQueue:
    """Pending tasks of one slot pool, drained per the scheduling policy."""

    def __init__(self, policy: str):
        self._policy = policy
        self._fifo: deque[tuple[str, float, str]] = deque()
        self._per_job: dict[str, deque[tuple[float, str]]] = {}
        self._rotation: deque[str] = deque()

    def push(self, job_id: str, duration: float,
             kind: str = "task") -> None:
        if self._policy == POLICY_FIFO:
            self._fifo.append((job_id, duration, kind))
            return
        if job_id not in self._per_job:
            self._per_job[job_id] = deque()
            self._rotation.append(job_id)
        self._per_job[job_id].append((duration, kind))

    def pop(self) -> tuple[str, float, str]:
        if self._policy == POLICY_FIFO:
            return self._fifo.popleft()
        # Fair: serve the next job in the rotation that has tasks left.
        while True:
            job_id = self._rotation[0]
            self._rotation.rotate(-1)
            tasks = self._per_job[job_id]
            if tasks:
                duration, kind = tasks.popleft()
                if not tasks:
                    del self._per_job[job_id]
                    self._rotation.remove(job_id)
                return job_id, duration, kind
            del self._per_job[job_id]
            self._rotation.remove(job_id)

    def __bool__(self) -> bool:
        if self._policy == POLICY_FIFO:
            return bool(self._fifo)
        return any(self._per_job.values())


class SlotScheduler:
    """Event-driven simulation of slot scheduling.

    ``fifo`` drains queued tasks in submission order (Hadoop 1.x default).
    ``fair`` interleaves runnable jobs round-robin, giving each job with
    pending tasks an equal share of freed slots -- concurrent jobs finish
    closer together at the cost of the first job's latency.
    """

    def __init__(self, map_slots: int, reduce_slots: int,
                 policy: str = POLICY_FIFO, speculative: bool = False,
                 speculative_threshold: float = 3.0,
                 tracer: Tracer | None = None,
                 memory_pool_bytes: int = 0):
        if map_slots <= 0 or reduce_slots <= 0:
            raise JobError("slot counts must be positive")
        if policy not in (POLICY_FIFO, POLICY_FAIR):
            raise JobError(f"unknown scheduling policy: {policy!r}")
        if speculative_threshold <= 1.0:
            raise JobError("speculative_slowdown_threshold must be > 1.0")
        if memory_pool_bytes < 0:
            raise JobError("memory_pool_bytes must be >= 0")
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.policy = policy
        self.speculative = speculative
        self.speculative_threshold = speculative_threshold
        self.tracer = tracer or NULL_TRACER
        #: cluster-wide memory pool charged by jobs' declared demands;
        #: 0 disables memory governance entirely (no demand, no waits).
        self.memory_pool_bytes = memory_pool_bytes

    def schedule(self, jobs: list[ScheduledJob]) -> ScheduleResult:
        """Simulate ``jobs`` sharing the cluster; returns per-job timelines."""
        if not jobs:
            return ScheduleResult({}, 0.0)
        state = _CallState(free_memory=self.memory_pool_bytes)
        jobs = self._apply_speculation(jobs, state)
        by_id = {job.job_id: job for job in jobs}
        if len(by_id) != len(jobs):
            raise JobError("duplicate job ids in batch")
        for job in jobs:
            for dep in job.depends_on:
                if dep not in by_id:
                    raise JobError(
                        f"job {job.job_id!r} depends on unknown job {dep!r}"
                    )

        timelines = {job.job_id: JobTimeline(job.job_id) for job in jobs}
        remaining_maps = {j.job_id: len(j.map_durations) for j in jobs}
        remaining_reduces = {j.job_id: len(j.reduce_durations) for j in jobs}
        unfinished_deps = {
            j.job_id: set(j.depends_on) for j in jobs
        }
        finished: set[str] = set()

        map_queue = _TaskQueue(self.policy)
        reduce_queue = _TaskQueue(self.policy)
        free_map = self.map_slots
        free_reduce = self.reduce_slots

        # Event heap entries: (time, seq, kind, payload). ``seq`` breaks ties
        # deterministically in submission order.
        sequence = itertools.count()
        events: list[tuple[float, int, str, object]] = []

        def push_event(time: float, kind: str, payload: object) -> None:
            heapq.heappush(events, (time, next(sequence), kind, payload))

        def arm_job(job_id: str, now: float) -> None:
            """All dependencies met: pay startup, then enqueue map tasks."""
            job = by_id[job_id]
            timelines[job_id].ready_time = now
            push_event(now + job.startup_seconds, "job_start", job_id)

        def finish_job(job_id: str, now: float) -> None:
            finished.add(job_id)
            timelines[job_id].finish_time = now
            released = state.memory_held.pop(job_id, 0)
            if released:
                state.free_memory += released
                # Admit memory waiters strictly in FIFO order: the head
                # blocks everyone behind it (no bypass), which keeps
                # memory admission deterministic and starvation-free.
                while (state.memory_queue
                       and state.memory_queue[0][1] <= state.free_memory):
                    waiter_id, demand = state.memory_queue.popleft()
                    self._acquire_memory(state, waiter_id, demand)
                    push_event(now, "job_tasks", waiter_id)
            for other in jobs:
                if job_id in unfinished_deps[other.job_id]:
                    unfinished_deps[other.job_id].discard(job_id)
                    if not unfinished_deps[other.job_id]:
                        arm_job(other.job_id, now)

        # Jobs with no dependencies arm at their submit time.
        for job in jobs:
            if not job.depends_on:
                arm_job(job.job_id, job.submit_time)

        while events:
            now = events[0][0]
            # Process every event at this instant before dispatching, so
            # simultaneously-started jobs compete for slots under the
            # policy rather than in event order.
            while events and events[0][0] == now:
                self._handle_event(
                    heapq.heappop(events), by_id, timelines,
                    remaining_maps, remaining_reduces, map_queue,
                    reduce_queue, finish_job, state,
                )
            free_map, free_reduce = self._dispatch(
                now, map_queue, reduce_queue, free_map, free_reduce,
                push_event, state,
            )

        unreached = [job.job_id for job in jobs if job.job_id not in finished]
        if unreached:
            raise JobError(
                f"dependency cycle or unscheduled jobs: {unreached}"
            )
        # Makespan is when the last *job* finishes; a speculative backup
        # copy releasing its slot later does not extend the batch.
        makespan = max(t.finish_time for t in timelines.values())
        if self.tracer.enabled:
            self._trace_batch(jobs, makespan, state, timelines)
        return ScheduleResult(timelines, makespan)

    def _trace_batch(self, jobs: list[ScheduledJob],
                     makespan: float, state: _CallState,
                     timelines: dict[str, JobTimeline]) -> None:
        """One summary event per scheduled batch: load and utilization.

        Utilization is aggregate task seconds (including speculative
        backup copies, which really burn capacity) over the batch's total
        slot-seconds -- the signal for judging strategy parallelism
        trade-offs (Figure 5) from a trace alone.
        """
        map_seconds = sum(sum(job.map_durations) for job in jobs) + sum(
            sum(phantoms) for phantoms in state.phantom_maps.values()
        )
        reduce_seconds = sum(
            sum(job.reduce_durations) for job in jobs
        ) + sum(
            sum(phantoms) for phantoms in state.phantom_reduces.values()
        )
        capacity = makespan * (self.map_slots + self.reduce_slots)
        self.tracer.event(
            "schedule",
            jobs=len(jobs),
            policy=self.policy,
            makespan_s=round(makespan, 6),
            map_task_s=round(map_seconds, 6),
            reduce_task_s=round(reduce_seconds, 6),
            utilization=round(
                (map_seconds + reduce_seconds) / capacity, 6
            ) if capacity > 0 else 0.0,
            memory_pool_bytes=self.memory_pool_bytes,
            memory_peak_bytes=state.used_memory_peak,
            memory_wait_s=round(sum(
                timeline.memory_wait_seconds
                for timeline in timelines.values()
            ), 6),
        )

    def _apply_speculation(self, jobs: list[ScheduledJob],
                           state: _CallState) -> list[ScheduledJob]:
        """Cap straggling task durations; stash backup-copy phantom tasks.

        Populates ``state.phantom_maps`` / ``state.phantom_reduces`` for
        the current ``schedule()`` call; phantoms occupy slots (they are
        real backup copies burning capacity) but never gate completion.
        """
        if not self.speculative:
            return jobs
        speculated: list[ScheduledJob] = []
        for job in jobs:
            map_eff, map_backups = plan_speculative_backups(
                job.map_durations, self.speculative_threshold)
            reduce_eff, reduce_backups = plan_speculative_backups(
                job.reduce_durations, self.speculative_threshold)
            if map_backups or reduce_backups:
                job = replace(job, map_durations=map_eff,
                              reduce_durations=reduce_eff)
                state.phantom_maps[job.job_id] = map_backups
                state.phantom_reduces[job.job_id] = reduce_backups
                # Backup copies re-load the job's working set (broadcast
                # builds in particular), so they inflate the declared
                # memory demand by the backed-up tasks' share.
                backups = len(map_backups) + len(reduce_backups)
                tasks = len(job.map_durations) + len(job.reduce_durations)
                if job.memory_bytes and tasks:
                    extra = math.ceil(job.memory_bytes * backups / tasks)
                    job = replace(job,
                                  memory_bytes=job.memory_bytes + extra)
            speculated.append(job)
        return speculated

    def _handle_event(self, event, by_id, timelines, remaining_maps,
                      remaining_reduces, map_queue, reduce_queue,
                      finish_job, state: _CallState) -> None:
        now, _, kind, payload = event
        job_id: str = payload  # type: ignore[assignment]
        if kind == "job_start":
            # Startup is paid; the job now needs its declared memory
            # before any task can be dispatched. A job behind a waiting
            # one also waits (FIFO), even if its own demand would fit.
            demand = self._memory_demand(by_id[job_id])
            if demand and (state.memory_queue
                           or state.free_memory < demand):
                state.memory_queue.append((job_id, demand))
                state.memory_wait_start[job_id] = now
                return
            if demand:
                self._acquire_memory(state, job_id, demand)
            self._start_tasks(job_id, now, by_id, timelines, map_queue,
                              reduce_queue, finish_job, state)
        elif kind == "job_tasks":
            # Memory was granted (in finish_job's FIFO drain); record the
            # wait and start the job's tasks.
            waited_since = state.memory_wait_start.pop(job_id, now)
            timelines[job_id].memory_wait_seconds = now - waited_since
            self._start_tasks(job_id, now, by_id, timelines, map_queue,
                              reduce_queue, finish_job, state)
        elif kind == "map_done":
            state.freed_map += 1
            remaining_maps[job_id] -= 1
            if remaining_maps[job_id] == 0:
                timelines[job_id].map_finish_time = now
                job = by_id[job_id]
                if job.reduce_durations:
                    for duration in job.reduce_durations:
                        reduce_queue.push(job_id, duration, "reduce_done")
                    for duration in state.phantom_reduces.get(job_id, ()):
                        reduce_queue.push(job_id, duration,
                                          "spec_reduce_done")
                else:
                    finish_job(job_id, now)
        elif kind == "reduce_done":
            state.freed_reduce += 1
            remaining_reduces[job_id] -= 1
            if remaining_reduces[job_id] == 0:
                finish_job(job_id, now)
        elif kind == "spec_map_done":
            # Backup copy of a straggling map task released its slot.
            state.freed_map += 1
        elif kind == "spec_reduce_done":
            state.freed_reduce += 1
        else:  # pragma: no cover - defensive
            raise JobError(f"unknown event kind: {kind!r}")

    def _memory_demand(self, job: ScheduledJob) -> int:
        """Declared demand clamped to the pool (oversized jobs run alone)."""
        if self.memory_pool_bytes <= 0 or job.memory_bytes <= 0:
            return 0
        return min(job.memory_bytes, self.memory_pool_bytes)

    def _acquire_memory(self, state: _CallState, job_id: str,
                        demand: int) -> None:
        state.free_memory -= demand
        state.memory_held[job_id] = demand
        used = self.memory_pool_bytes - state.free_memory
        state.used_memory_peak = max(state.used_memory_peak, used)

    def _start_tasks(self, job_id, now, by_id, timelines, map_queue,
                     reduce_queue, finish_job, state: _CallState) -> None:
        job = by_id[job_id]
        timelines[job_id].start_time = now
        if not job.map_durations:
            # A job with no map tasks reaches its map-finish point
            # immediately; its reduce tasks (if any) must still be
            # queued -- an early return here left reduce-only jobs
            # permanently unscheduled.
            timelines[job_id].map_finish_time = now
            if not job.reduce_durations:
                finish_job(job_id, now)
                return
            for duration in job.reduce_durations:
                reduce_queue.push(job_id, duration, "reduce_done")
            for duration in state.phantom_reduces.get(job_id, ()):
                reduce_queue.push(job_id, duration, "spec_reduce_done")
            return
        for duration in job.map_durations:
            map_queue.push(job_id, duration, "map_done")
        for duration in state.phantom_maps.get(job_id, ()):
            map_queue.push(job_id, duration, "spec_map_done")

    def _dispatch(self, now, map_queue, reduce_queue, free_map,
                  free_reduce, push_event, state: _CallState,
                  ) -> tuple[int, int]:
        """Fill freed slots from the queues under the active policy."""
        free_map += state.freed_map
        free_reduce += state.freed_reduce
        state.freed_map = 0
        state.freed_reduce = 0
        while free_map > 0 and map_queue:
            job_id, duration, kind = map_queue.pop()
            free_map -= 1
            push_event(now + duration, kind, job_id)
        while free_reduce > 0 and reduce_queue:
            job_id, duration, kind = reduce_queue.pop()
            free_reduce -= 1
            push_event(now + duration, kind, job_id)
        return free_map, free_reduce
