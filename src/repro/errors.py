"""Exception hierarchy for the DYNO reproduction.

Every error raised by the library derives from :class:`DynoError`, so callers
can catch a single base class. The more specific subclasses mirror the
failure modes the paper discusses (e.g. a broadcast join whose build side
overflows memory aborts the query, because Jaql's broadcast join does not
spill to disk -- see Section 2.2.1 of the paper).
"""

from __future__ import annotations


class DynoError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(DynoError):
    """A row or expression does not conform to the declared schema."""


class StorageError(DynoError):
    """DFS-level failure: unknown file, duplicate file, bad split."""


class JobError(DynoError):
    """A MapReduce job failed during (simulated) execution."""


class BroadcastBuildOverflowError(JobError):
    """The build side of a broadcast join did not fit in task memory.

    Jaql's broadcast join has no spill path, so this aborts the whole query
    (paper, Section 2.2.1). The optimizer exists precisely to avoid plans
    that can hit this error.
    """

    def __init__(self, build_bytes: int, memory_budget: int,
                 job_name: str = "", build_description: str = ""):
        self.build_bytes = build_bytes
        self.memory_budget = memory_budget
        self.job_name = job_name
        self.build_description = build_description
        detail = f" in job {job_name!r}" if job_name else ""
        builds = f" (builds: {build_description})" if build_description else ""
        super().__init__(
            f"broadcast build side is {build_bytes} bytes but task memory "
            f"budget is {memory_budget} bytes{detail}{builds}; "
            f"Jaql cannot spill"
        )


class TaskRetriesExhaustedError(JobError):
    """A task failed more often than ``max_task_attempts`` allows.

    Hadoop kills the whole job once any task burns through its attempt
    budget (mapred.map.max.attempts, default 4). The driver may retry the
    job or -- in a dynamic run -- replan around it; see
    :meth:`repro.core.dynopt.DynoptExecutor`.
    """

    def __init__(self, job_name: str, attempts: int | None,
                 detail: str = ""):
        self.job_name = job_name
        #: the exhausted budget; None when the task fails on every attempt
        #: whatever the budget (an injected permanent fault).
        self.attempts = attempts
        self.detail = detail
        extra = f": {detail}" if detail else ""
        budget = ("failed on every attempt" if attempts is None
                  else f"exhausted all {attempts} attempt(s)")
        super().__init__(f"job {job_name!r} failed: a task {budget}{extra}")


class JobFaultInjectedError(JobError):
    """A whole-job fault fired at a map/reduce/finalize boundary.

    Transient by construction (a :class:`repro.cluster.faults.FaultPlan`
    budgets how often it fires per job), so the runtime retries the job
    with backoff rather than surfacing it to the user.
    """

    def __init__(self, job_name: str, boundary: str, incarnation: int = 1):
        self.job_name = job_name
        self.boundary = boundary
        self.incarnation = incarnation
        super().__init__(
            f"injected fault: job {job_name!r} (attempt {incarnation}) "
            f"failed at the {boundary} boundary"
        )


class FaultPlanError(DynoError):
    """A fault plan is malformed (bad rates, unknown keys, bad JSON)."""


class ParseError(DynoError):
    """The SQL-dialect parser rejected the input query text."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class PlanError(DynoError):
    """An invalid logical or physical plan was constructed or requested."""


class OptimizerError(DynoError):
    """The cost-based optimizer could not produce a plan."""


class UnsupportedQueryError(OptimizerError):
    """The query shape is outside what the optimizer supports.

    The paper excludes TPC-H Q5 for exactly this reason (cyclic join
    conditions); we raise this error rather than silently mis-planning.
    """


class StatisticsError(DynoError):
    """Statistics are missing, malformed, or cannot be merged."""


class CoordinationError(DynoError):
    """The coordination service (ZooKeeper stand-in) was misused."""
