"""Parallel data-path execution of independent jobs in a batch.

The cluster runtime separates each job into a *data pass* (read splits,
run mappers/reducers, accumulate counters and partial statistics -- all
side-effect-free except DFS read accounting and coordination publishes)
and a *finalize* step (DFS output write, output counters, client-side
statistics merge). The :class:`ParallelJobExecutor` runs the data passes
of dependency-free jobs concurrently on a ``concurrent.futures`` pool;
each level is then finalized on the driver thread, in batch order,
*before* the next level starts (dependent jobs read their predecessors'
materialized outputs), so results are byte-identical to serial execution
(see ``tests/test_parallel.py``).

This is the driver-side analogue of what the paper's strategies already
exploit in *simulated* time: PILR_MT submits every pilot job at once
(Section 4.2) and SIMPLE_MO overlaps all ready jobs (Section 5.3) -- but
the seed driver still executed their Python data paths one after another.

Failure semantics mirror serial execution: jobs are ordered by dependency
level (a valid topological order); when a job's data pass raises (e.g.
:class:`repro.errors.BroadcastBuildOverflowError`), every job *before* it
in that order still finalizes, the error propagates to the caller, and
jobs after it are never finalized.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.config import ExecutorConfig
from repro.errors import JobError

__all__ = [
    "JobSkipped",
    "ParallelJobExecutor",
    "dependency_levels",
    "topological_order",
]


class JobSkipped(Exception):
    """Placeholder outcome for jobs skipped after an earlier failure."""

    def __init__(self, job_name: str, cause: str):
        super().__init__(
            f"job {job_name!r} skipped: earlier job failed with {cause}"
        )
        self.job_name = job_name


def dependency_levels(jobs: Sequence[Any],
                      dependencies: dict[str, list[str]],
                      ) -> list[list[Any]]:
    """Partition jobs into dependency levels (Kahn's algorithm).

    Level *n* holds the jobs whose dependencies all live in levels < *n*;
    jobs within one level are mutually independent and may execute
    concurrently. Within a level, batch submission order is preserved, so
    the concatenation of levels is a deterministic topological order.
    """
    names = {job.name for job in jobs}
    for job in jobs:
        for dep in dependencies.get(job.name, []):
            if dep not in names:
                raise JobError(
                    f"job {job.name!r} depends on {dep!r} not in batch"
                )
    levels: list[list[Any]] = []
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


def topological_order(jobs: Sequence[Any],
                      dependencies: dict[str, list[str]]) -> list[Any]:
    """Deterministic topological order: dependency levels, flattened."""
    return [job for level in dependency_levels(jobs, dependencies)
            for job in level]


#: A data pass: (job, dispatch gate) -> opaque per-job result.
DataPass = Callable[[Any, Any], Any]


class ParallelJobExecutor:
    """Runs the data passes of a batch's jobs, level by level.

    Returns one outcome per job -- the data-pass result, the exception it
    raised, or :class:`JobSkipped` for jobs abandoned after a failure --
    keyed by job name. The caller decides how to finalize/propagate, so
    the executor stays agnostic of runtime internals.
    """

    def __init__(self, config: ExecutorConfig):
        self.config = config

    def run(self, levels: list[list[Any]],
            gates: dict[str, Any],
            data_pass: DataPass,
            finalize: Callable[[Any, Any], Any] | None = None,
            ) -> dict[str, Any]:
        """Run every level's data passes; finalize between levels.

        ``finalize(job, result)`` -- when given -- is applied on the calling
        (driver) thread to each successful data-pass result, in batch order,
        *before* the next level starts: a level's outputs must be
        materialized before dependent jobs read them. Its return value
        replaces the raw result in the outcome map.
        """
        outcomes: dict[str, Any] = {}
        failure: Exception | None = None
        pool = None
        try:
            for level in levels:
                if failure is not None:
                    for job in level:
                        outcomes[job.name] = JobSkipped(
                            job.name, type(failure).__name__
                        )
                    continue
                collected: list[tuple[Any, Any]] = []
                if len(level) < self.config.min_parallel_jobs:
                    for job in level:
                        if failure is not None:
                            break
                        try:
                            collected.append(
                                (job, data_pass(job, gates.get(job.name)))
                            )
                        except Exception as exc:  # noqa: BLE001 - relayed
                            collected.append((job, exc))
                            failure = exc
                else:
                    if pool is None:
                        # Threads, not processes: compiled jobs close
                        # over DFS handles, coordination counters and
                        # broadcast hash tables, none of which pickle.
                        pool = ThreadPoolExecutor(
                            max_workers=self._max_workers(),
                            thread_name_prefix="dyno-job",
                        )
                    futures = [
                        pool.submit(data_pass, job, gates.get(job.name))
                        for job in level
                    ]
                    for job, future in zip(level, futures):
                        try:
                            collected.append((job, future.result()))
                        except Exception as exc:  # noqa: BLE001 - relayed
                            collected.append((job, exc))
                            if failure is None:
                                failure = exc

                # Driver-side pass over the level in batch order: finalize
                # until the first failure, skip everything after it --
                # exactly the state a serial run leaves behind.
                first_failure: Exception | None = None
                for job, outcome in collected:
                    if isinstance(outcome, Exception):
                        outcomes[job.name] = outcome
                        if first_failure is None:
                            first_failure = outcome
                    elif first_failure is not None:
                        outcomes[job.name] = JobSkipped(
                            job.name, type(first_failure).__name__
                        )
                    elif finalize is not None:
                        try:
                            outcomes[job.name] = finalize(job, outcome)
                        except Exception as exc:  # noqa: BLE001 - relayed
                            outcomes[job.name] = exc
                            first_failure = exc
                    else:
                        outcomes[job.name] = outcome
                skipped = [job for job in level if job.name not in outcomes]
                for job in skipped:
                    assert failure is not None
                    outcomes[job.name] = JobSkipped(
                        job.name, type(failure).__name__
                    )
                if first_failure is not None and failure is None:
                    failure = first_failure
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        return outcomes

    # ------------------------------------------------------------------

    def _max_workers(self) -> int:
        if self.config.max_workers is not None:
            return self.config.max_workers
        return min(32, (os.cpu_count() or 1) * 4)
