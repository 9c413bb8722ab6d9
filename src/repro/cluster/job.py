"""MapReduce job specification and task-side context.

A :class:`MapReduceJob` is what the Jaql compiler produces (one per
repartition join, one per broadcast-join chain, one per pilot run) and what
the cluster runtime executes. There is one task contract, batch-at-a-time:
a mapper receives a whole split as a column batch and returns a
:class:`BatchEmit`; a reducer receives one partition's key groups and
returns a :class:`BatchEmit`. Both get a :class:`TaskContext` through which
they charge simulated UDF CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.data.schema import Schema
from repro.data.table import Row
from repro.errors import JobError
from repro.storage.dfs import Split

__all__ = [
    "BatchEmit",
    "BroadcastBuild",
    "BuildLoader",
    "MapReduceJob",
    "Mapper",
    "Reducer",
    "TaskContext",
]


class TaskContext:
    """Per-task execution context handed to mappers and reducers."""

    def __init__(self) -> None:
        self.extra_cpu_seconds = 0.0

    def charge_cpu(self, seconds: float) -> None:
        """Account extra simulated CPU time (expensive predicates / UDFs)."""
        if seconds < 0:
            raise JobError("cannot charge negative CPU time")
        self.extra_cpu_seconds += seconds


@dataclass
class BatchEmit:
    """Output of one mapper/reducer call.

    ``sizes[i]`` must be the value-exact size of ``rows[i]`` (the schema
    module's recursive value estimator is the definition): producers
    derive sizes in O(1) from their inputs (merged-row arithmetic, carried
    split sizes) so the runtime's byte counters never re-walk a dict.
    ``keys`` is parallel to ``rows`` in map+reduce jobs (ignored in
    map-only jobs, where it may be None). ``columns`` optionally exposes
    the output batch (``column(name)``) so statistics ingest straight from
    columns.
    """

    rows: list[Row]
    sizes: list[int]
    keys: list[Any] | None = None
    columns: Any | None = None


#: A mapper processes one whole split:
#: (context, source file name, column batch) -> BatchEmit.
Mapper = Callable[[TaskContext, str, Any], BatchEmit]
#: A reducer processes one partition's key groups in arrival order:
#: (context, [(frozen key, values, value sizes)]) -> BatchEmit.
Reducer = Callable[
    [TaskContext, list[tuple[Any, list[Row], list[int]]]], BatchEmit
]
#: A build loader turns the build file, read as one column batch, into
#: the batch of rows the job's hash tables hold: batch -> batch, both of
#: the :mod:`repro.data.columns` protocol (``rows``, ``ensure_sizes()``).
BuildLoader = Callable[[Any], Any]


@dataclass
class BroadcastBuild:
    """One broadcast-join build side attached to a job.

    The runtime reads ``input_file`` as one batch (accounting the read),
    applies ``loader`` -- which qualifies rows and applies the build side's
    local predicates while the hash table is loaded, exactly like Jaql's
    broadcast join -- and stores the resulting rows and their value-exact
    sizes (carried through by the loader, never re-walked) for the job's
    mapper closures to probe. The memory check applies to the *loaded*
    (post-predicate) size, since that is what actually occupies task memory.
    """

    input_file: str
    loader: BuildLoader
    description: str = ""
    rows: list[Row] | None = None
    #: parallel to ``rows`` once loaded.
    sizes: list[int] = field(default_factory=list)
    loaded_bytes: int = 0

    def load(self, batch: Any) -> None:
        loaded = self.loader(batch)
        self.rows = loaded.rows
        self.sizes = loaded.ensure_sizes()
        self.loaded_bytes = sum(self.sizes)

    def built_rows(self) -> list[Row]:
        if self.rows is None:
            raise JobError(
                f"broadcast build over {self.input_file!r} was not loaded"
            )
        return self.rows


@dataclass
class MapReduceJob:
    """Everything the runtime needs to execute one job.

    ``splits`` overrides the default "all splits of all inputs" assignment;
    pilot runs use it to execute over a sampled subset (Section 4.2).
    ``broadcast_inputs`` are DFS files loaded into every task's memory
    (broadcast-join build sides); the runtime spills a build that overflows
    task memory by up to ``spill_overflow_factor`` and fails the job on a
    larger overflow, like Jaql (Section 2.2.1).
    """

    name: str
    inputs: list[str]
    mapper: Mapper
    output_name: str
    output_schema: Schema
    reducer: Reducer | None = None
    num_reducers: int = 0
    splits: list[Split] | None = None
    broadcast_builds: list[BroadcastBuild] = field(default_factory=list)
    #: output columns to collect online statistics for (Section 5.4);
    #: empty means no statistics collection for this job.
    stats_columns: list[str] = field(default_factory=list)
    #: free-form description used in plan printouts and experiment logs.
    description: str = ""
    #: skew joins: mappers of this map+reduce job may emit records with
    #: ``key=None``, which bypass the shuffle and land directly in the
    #: job's output (the heavy-key side channel). Off for normal jobs so
    #: the shuffle hot loop stays branch-free.
    map_side_output: bool = False

    def __post_init__(self) -> None:
        if not self.inputs:
            raise JobError(f"job {self.name!r} has no inputs")
        if self.map_side_output and self.reducer is None:
            raise JobError(
                f"job {self.name!r} is map-only; map_side_output is "
                f"meaningful only for map+reduce jobs"
            )
        if self.reducer is not None and self.num_reducers <= 0:
            raise JobError(
                f"job {self.name!r} has a reducer but num_reducers="
                f"{self.num_reducers}"
            )
        if self.reducer is None and self.num_reducers:
            raise JobError(
                f"job {self.name!r} is map-only but num_reducers="
                f"{self.num_reducers}"
            )

    @property
    def is_map_only(self) -> bool:
        return self.reducer is None

    @property
    def is_broadcast_join(self) -> bool:
        """True when tasks load broadcast build sides into memory.

        These are the jobs a :class:`repro.cluster.faults.FaultPlan` may
        doom permanently (no-spill broadcast builds are the fragile
        operator of Section 2.2.1), forcing the executor to replan.
        """
        return bool(self.broadcast_builds)
