"""Compiler: physical join plans -> MapReduce job DAGs (Section 5.1, step 5').

The translation mirrors Jaql's:

* a **repartition join** becomes one map+reduce job; each map task reads a
  split of either input, applies that side's *pipeline* (leaf predicates,
  plus any broadcast joins folded into the map phase), tags the record with
  its side, and emits it under the join key; reducers separate the two
  sides per key and produce the cartesian product (Section 2.2.1);
* a **broadcast join** extends the current map pipeline: the build side --
  a base leaf (filtered while loading) or a materialized intermediate --
  becomes a :class:`BroadcastBuild` of the job; consecutive broadcast joins
  marked ``chained`` by the optimizer stay in the same map-only job, others
  force a job boundary that materializes the probe pipeline first
  (Section 2.2.2, chaining);
* non-local predicates run right where the optimizer placed them (after the
  join covering their references);
* a post-join GROUP BY becomes one more map+reduce job that aggregates
  map-side: one partial record per distinct key of each split is shuffled,
  and the reducer merges the partials (:meth:`PlanCompiler.compile_group_by`).

The output is a :class:`JobGraph`: jobs plus dependencies. DYNOPT executes
only its *leaf jobs* each iteration (Section 5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.costmodel import ClusterCostModel, reducer_count
from repro.cluster.job import (
    BatchEmit,
    BroadcastBuild,
    BuildLoader,
    MapReduceJob,
    TaskContext,
)
from repro.cluster.runtime import _freeze_key
from repro.config import DynoConfig
from repro.data.columns import RowBatch, estimate_dict_size
from repro.data.schema import Schema, estimate_value_size
from repro.data.table import Row
from repro.errors import PlanError
from repro.jaql.blocks import BlockLeaf
from repro.jaql.expr import ColumnRef, GroupBy, Predicate
from repro.jaql.vector import ColumnResolver, select
from repro.optimizer.plans import (
    REPARTITION,
    SKEW,
    PhysJoin,
    PhysLeaf,
    PhysicalNode,
)
from repro.storage.dfs import DistributedFileSystem

#: Map-side pipeline stage: one whole batch in (a DFS split batch or an
#: upstream stage's output), one batch out. Batches share the protocol of
#: :mod:`repro.data.columns` (``rows``, ``column(name)``, sizes).
BatchTransform = Callable[[TaskContext, Any], Any]

#: Schema attached to intermediate files. Intermediates carry qualified
#: (flattened) rows whose exact field set varies per plan; a permissive
#: schema keeps size accounting consistent without re-deriving field types.
def intermediate_schema() -> Schema:
    return Schema(())


@dataclass
class CompiledJob:
    """One MapReduce job plus plan-level metadata for DYNOPT strategies."""

    job: MapReduceJob
    depends_on: list[str]
    #: aliases whose join result this job materializes.
    output_aliases: frozenset[str]
    applied_predicates: tuple[Predicate, ...]
    #: joins evaluated inside this job -- the paper's *uncertainty* metric
    #: (Section 5.3: estimation error grows with the number of joins).
    join_count: int
    #: optimizer cost attributable to this job (for the CHEAP strategies).
    estimated_cost: float
    estimated_rows: float
    #: optimizer's output-size estimate; 0.0 where the plan has none
    #: (group-by stages). Feeds the estimated-vs-actual trace audit.
    estimated_bytes: float = 0.0
    final: bool = False
    #: a skew join's heavy-key slice: a map-only job that must finish
    #: before this one, submitted in the same batch. Not a plan step of
    #: its own -- never chosen, audited or substituted.
    slice_job: MapReduceJob | None = None

    @property
    def name(self) -> str:
        return self.job.name


@dataclass
class JobGraph:
    """The compiled workflow of one optimization step."""

    jobs: list[CompiledJob]
    final_output: str
    #: True when the block needed no work (single intermediate leaf).
    trivial: bool = False

    def job_named(self, name: str) -> CompiledJob:
        for compiled in self.jobs:
            if compiled.name == name:
                return compiled
        raise PlanError(f"no such job in graph: {name!r}")

    def leaf_jobs(self, completed: set[str] | None = None) -> list[CompiledJob]:
        """Jobs whose dependencies have all completed."""
        done = completed or set()
        return [
            compiled for compiled in self.jobs
            if compiled.name not in done
            and all(dep in done for dep in compiled.depends_on)
        ]

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    def describe(self) -> str:
        lines = []
        for compiled in self.jobs:
            if compiled.slice_job is not None:
                lines.append(f"{compiled.slice_job.name} [map-only, slice]"
                             f" -> {compiled.slice_job.output_name}")
            deps = (f" after {sorted(compiled.depends_on)}"
                    if compiled.depends_on else "")
            kind = "map-only" if compiled.job.is_map_only else "map-reduce"
            lines.append(
                f"{compiled.name} [{kind}, joins={compiled.join_count}]"
                f" -> {compiled.job.output_name}{deps}"
            )
        return "\n".join(lines)


@dataclass
class _Stream:
    """A map-side pipeline under construction."""

    input_files: list[str]
    transform: BatchTransform
    builds: list[BroadcastBuild] = field(default_factory=list)
    upstream: list[CompiledJob] = field(default_factory=list)
    aliases: frozenset[str] = frozenset()
    join_count: int = 0
    applied_predicates: tuple[Predicate, ...] = ()
    #: cumulative optimizer cost of subtrees already materialized upstream.
    upstream_cost: float = 0.0
    node: PhysicalNode | None = None

    @property
    def is_materialized(self) -> bool:
        """True when the stream is just one DFS file, nothing left to run."""
        return (not self.builds and self.transform is _identity_transform
                and len(self.input_files) == 1)


def _identity_transform(context: TaskContext, batch: Any) -> Any:
    """Split batches already satisfy the batch protocol."""
    return batch


def _identity_loader(batch: Any) -> Any:
    """Build loader of a materialized (qualified, filtered) input file."""
    return batch


def _base_leaf(node: PhysicalNode) -> BlockLeaf | None:
    """The base-table leaf ``node`` scans, if it is one."""
    if isinstance(node, PhysLeaf) and node.leaf.is_base:
        return node.leaf
    return None


def _leaf_filter(leaf: BlockLeaf) -> BuildLoader:
    """Vectorized scan+filter over raw rows of one base leaf.

    Predicates are evaluated over the *raw* (unqualified) columns --
    qualification renames fields 1:1, so ``ref.column`` addresses the
    same values ``ref.qualified`` would after qualification -- and only
    the surviving rows are qualified, in input order, by the batch: a
    DFS split hands out its file's per-alias memo (each row of a file
    version is materialized once, however many pilots, jobs and requests
    scan it), any other batch qualifies directly. The scan is also the
    build loader of a base leaf: handed the whole build file as one
    batch, it runs the predicates over the file's cached columns.
    """
    predicates = leaf.predicates
    alias = leaf.alias
    # Qualifying prefixes every key with ``alias.``: each key's length
    # enters the value-size arithmetic exactly once, so a qualified
    # row's size is the raw size plus ``len(row) * (len(alias) + 1)``
    # -- an O(1) delta on the sizes every input batch carries.
    key_delta = len(alias) + 1

    def scan(batch: Any) -> RowBatch:
        count = len(batch)
        sizes = batch.ensure_sizes()
        selection: Any = range(count)
        if predicates:
            resolver = ColumnResolver(batch, raw_alias=alias)
            selection = select(predicates, resolver, count)
            if len(selection) != count:
                sizes = [sizes[i] for i in selection]
        rows = batch.qualified(alias, selection)
        return RowBatch(
            rows,
            [size + len(row) * key_delta for size, row in zip(sizes, rows)],
        )

    return scan


def leaf_scan(leaf: BlockLeaf) -> BatchTransform:
    """The one scan+filter stage of a base leaf (plan jobs and pilot runs).

    Charges the leaf's predicate/UDF CPU for every *input* row, then
    filters and qualifies the batch.
    """
    scan = _leaf_filter(leaf)
    cpu_per_row = leaf.cpu_seconds_per_row

    def transform(context: TaskContext, batch: Any) -> RowBatch:
        if cpu_per_row and len(batch):
            context.charge_cpu(cpu_per_row * len(batch))
        return scan(batch)

    return transform


def _join_keys(batch: Any, refs: list[ColumnRef]) -> list[tuple | None]:
    """Per-row join-key tuples of a qualified batch; None where any key
    part is null (such rows never join)."""
    resolver = ColumnResolver(batch)
    if len(refs) == 1:
        return [None if value is None else (value,)
                for value in resolver.values(refs[0])]
    return [None if None in key else key
            for key in zip(*(resolver.values(ref) for ref in refs))]


def _merge_matches(row: Row, size: int, bucket: list[tuple[Row, int, int]],
                   predicates: tuple[Predicate, ...],
                   out_rows: list[Row], out_sizes: list[int]) -> int:
    """Append ``row`` merged with every ``(other, size, field count)`` of
    ``bucket`` that passes ``predicates``; returns the candidates tried.

    Merged-row sizes come from O(1) arithmetic (disjoint dict merge: sizes
    add, minus one shared record framing) instead of re-walking the dict.
    """
    row_len = len(row)
    for other, other_size, other_len in bucket:
        merged = {**row, **other}
        if not predicates or all(p.evaluate(merged) for p in predicates):
            out_rows.append(merged)
            if len(merged) == row_len + other_len:
                out_sizes.append(size + other_size - 2)
            else:
                out_sizes.append(estimate_value_size(merged))
    return len(bucket)


def _hash_probe(build: BroadcastBuild, build_refs: list[ColumnRef],
                predicates: tuple[Predicate, ...], pred_cpu: float):
    """The build-and-probe kernel of every map-side hash join.

    The table is built lazily from ``build`` (whatever slice of the build
    side the runtime loaded: the whole side for broadcast joins,
    the heavy-key rows for a skew join) and rebuilt when the runtime
    reloads it. ``pred_cpu`` is charged per join candidate.
    """
    holder: dict[str, Any] = {}

    def probe(context: TaskContext, rows: list[Row], sizes: list[int],
              keys: list[tuple | None]) -> RowBatch:
        """Join probe ``rows`` (null keys are None) against the build."""
        table = holder.get("table")
        if table is None or holder.get("source") is not build.rows:
            table = {}
            for build_row, size in zip(build.built_rows(), build.sizes):
                key = tuple(ref.evaluate(build_row) for ref in build_refs)
                if None in key:
                    continue
                table.setdefault(key, []).append(
                    (build_row, size, len(build_row))
                )
            holder["table"] = table
            holder["source"] = build.rows
        out_rows: list[Row] = []
        out_sizes: list[int] = []
        table_get = table.get
        candidates = 0
        for i, key in enumerate(keys):
            bucket = None if key is None else table_get(key)
            if bucket is not None:
                candidates += _merge_matches(rows[i], sizes[i], bucket,
                                             predicates, out_rows, out_sizes)
        if pred_cpu and candidates:
            context.charge_cpu(pred_cpu * candidates)
        return RowBatch(out_rows, out_sizes)

    return probe


def _join_reducer(predicates: tuple[Predicate, ...], pred_cpu: float):
    """Reduce-side join of tagged records: separate the sides per key,
    emit the cartesian product filtered by the join's non-local
    predicates. Payload sizes are recovered from the tagged record sizes
    (16-byte tag framing) instead of re-walking the row dict."""

    def reducer(context: TaskContext, groups) -> BatchEmit:
        out_rows: list[Row] = []
        out_sizes: list[int] = []
        candidates = 0
        for _key, values, value_sizes in groups:
            left_rows = []
            right_rows = []
            for (side, row), size in zip(values, value_sizes):
                if side == 0:
                    left_rows.append((row, size - 16))
                else:
                    right_rows.append((row, size - 16, len(row)))
            for left_row, left_size in left_rows:
                candidates += _merge_matches(left_row, left_size, right_rows,
                                             predicates, out_rows, out_sizes)
        if pred_cpu and candidates:
            context.charge_cpu(pred_cpu * candidates)
        return BatchEmit(rows=out_rows, sizes=out_sizes)

    return reducer


class PlanCompiler:
    """Compiles physical plans of one block into MapReduce jobs."""

    def __init__(self, dfs: DistributedFileSystem, config: DynoConfig,
                 name_prefix: str,
                 table_files: dict[str, str] | None = None):
        self.dfs = dfs
        self.config = config
        self.name_prefix = name_prefix
        #: base table name -> DFS file name (identity unless remapped).
        self.table_files = table_files or {}
        self._counter = 0

    # -- public ---------------------------------------------------------------------

    def compile_block(self, plan: PhysicalNode) -> JobGraph:
        """Compile a whole physical join plan into its job graph."""
        jobs: list[CompiledJob] = []
        stream = self._compile_node(plan, jobs)
        if stream.is_materialized:
            # Nothing left to execute beyond already-emitted jobs: the plan
            # top is a materialized file (e.g. a repartition-join output).
            final_output = stream.input_files[0]
            for compiled in jobs:
                if compiled.job.output_name == final_output:
                    compiled.final = True
            return JobGraph(jobs, final_output, trivial=not jobs)
        final = self._materialize(stream, jobs, final=True)
        return JobGraph(jobs, final.job.output_name)

    def compile_group_by(self, input_file: str, group_by: GroupBy,
                         job_label: str = "groupby") -> CompiledJob:
        """One map+reduce job computing a GROUP BY over a materialized file.

        The job aggregates map-side, as Jaql's and Hive's algebraic
        aggregates do: each map task folds its split into one *partial
        record* per distinct key -- ``{key fields..., output_name:
        partial...}``, sized like any record -- and the reducer merges a
        group's partial records in arrival order.
        """
        keys = group_by.keys
        aggregates = group_by.aggregates

        def mapper(context: TaskContext, source: str, batch) -> BatchEmit:
            count = len(batch)
            if not count:
                return BatchEmit(rows=[], sizes=[], keys=[])
            resolver = ColumnResolver(batch)
            # Row indices per key tuple, in first-appearance order (the
            # order the reducer emits groups in). Null key parts form
            # groups of their own; an unhashable key freezes into the
            # tuple the shuffle would freeze it to.
            groups: dict[Any, Any]
            if keys:
                groups = {}
                get_members = groups.get
                row_keys = zip(*(resolver.values(ref) for ref in keys))
                for index, key in enumerate(row_keys):
                    try:
                        members = get_members(key)
                    except TypeError:
                        key = _freeze_key(key)
                        members = get_members(key)
                    if members is None:
                        groups[key] = [index]
                    else:
                        members.append(index)
            else:
                groups = {(): range(count)}
            records: list[Row] = [
                {ref.qualified: part for ref, part in zip(keys, key)}
                for key in groups
            ]
            for aggregate in aggregates:
                name, op = aggregate.output_name, aggregate.op
                if op == "count":
                    # count(*) has no column, and count(x) counts rows
                    # whatever x holds.
                    for record, members in zip(records, groups.values()):
                        record[name] = len(members)
                    continue
                column = resolver.values(aggregate.arg)
                for record, members in zip(records, groups.values()):
                    record[name] = _fold_aggregate(
                        op, [column[i] for i in members])
            return BatchEmit(rows=records,
                             sizes=[estimate_dict_size(r) for r in records],
                             keys=list(groups))

        def reducer(context: TaskContext, groups) -> BatchEmit:
            out_rows: list[Row] = []
            out_sizes: list[int] = []
            for key, partials, _sizes in groups:
                out: Row = {
                    ref.qualified: part for ref, part in zip(keys, key)
                }
                for aggregate in aggregates:
                    name = aggregate.output_name
                    out[name] = _merge_partials(
                        aggregate.op, [partial[name] for partial in partials])
                out_rows.append(out)
                out_sizes.append(estimate_dict_size(out))
            return BatchEmit(rows=out_rows, sizes=out_sizes)

        name = self._next_name(job_label)
        output = f"{name}.out"
        job = MapReduceJob(
            name=name,
            inputs=[input_file],
            mapper=mapper,
            reducer=reducer,
            num_reducers=self._reducers_for([input_file]),
            output_name=output,
            output_schema=intermediate_schema(),
            description=f"group by over {input_file}",
        )
        return CompiledJob(
            job=job,
            depends_on=[],
            output_aliases=frozenset(),
            applied_predicates=(),
            join_count=0,
            estimated_cost=0.0,
            estimated_rows=0.0,
            final=True,
        )

    # -- recursion -------------------------------------------------------------------

    def _compile_node(self, node: PhysicalNode,
                      jobs: list[CompiledJob]) -> _Stream:
        if isinstance(node, PhysLeaf):
            return self._leaf_stream(node)
        if not isinstance(node, PhysJoin):
            raise PlanError(f"cannot compile {type(node).__name__}")
        if node.method in (REPARTITION, SKEW):
            return self._skew_stream(node, jobs)
        return self._broadcast_stream(node, jobs)

    def _leaf_stream(self, node: PhysLeaf) -> _Stream:
        leaf = node.leaf
        return _Stream(
            input_files=[self._file_of_leaf(leaf)],
            transform=(leaf_scan(leaf) if leaf.is_base
                       else _identity_transform),
            aliases=node.aliases,
            node=node,
        )

    def _materialized_stream(self, stream: _Stream,
                             jobs: list[CompiledJob]) -> _Stream:
        """Job boundary: materialize ``stream`` and read it back as a file."""
        materialized = self._materialize(stream, jobs)
        return _Stream(
            input_files=[materialized.job.output_name],
            transform=_identity_transform,
            upstream=[materialized],
            aliases=stream.aliases,
            upstream_cost=(stream.node.cost
                           if stream.node is not None else 0.0),
            node=stream.node,
        )

    def _broadcast_stream(self, node: PhysJoin,
                          jobs: list[CompiledJob]) -> _Stream:
        probe = self._compile_node(node.left, jobs)
        if probe.builds and not node.chained:
            # The optimizer decided this join must not share a job with
            # the probe-side broadcast chain (builds would not fit in
            # memory together). Materialize the probe first.
            probe = self._materialized_stream(probe, jobs)

        build = self._build_side(node.right, jobs, probe)
        probe_refs = [
            condition.side_for(node.left.aliases)
            for condition in node.conditions
        ]
        build_refs = [
            condition.side_for(node.right.aliases)
            for condition in node.conditions
        ]
        predicates = node.applied_predicates
        probe_cpu = self.config.cluster.probe_seconds_per_record
        hash_probe = _hash_probe(
            build, build_refs, predicates,
            sum(p.cpu_seconds_per_row for p in predicates),
        )
        inner = probe.transform

        def transform(context: TaskContext, batch: Any) -> RowBatch:
            out = inner(context, batch)
            rows = out.rows
            if not rows:
                return RowBatch([], [])
            if probe_cpu:
                context.charge_cpu(probe_cpu * len(rows))
            return hash_probe(context, rows, out.ensure_sizes(),
                              _join_keys(out, probe_refs))

        return _Stream(
            input_files=probe.input_files,
            transform=transform,
            builds=probe.builds + [build],
            upstream=probe.upstream,
            aliases=node.aliases,
            join_count=probe.join_count + 1,
            applied_predicates=probe.applied_predicates + predicates,
            upstream_cost=probe.upstream_cost,
            node=node,
        )

    def _build_side(self, node: PhysicalNode, jobs: list[CompiledJob],
                    probe: _Stream) -> BroadcastBuild:
        """Build sides must be materialized.

        Small base leaves load directly, applying their predicates while
        the hash table builds (Jaql's broadcast join loads S per task).
        A base leaf whose *raw file* exceeds task memory but whose filtered
        form fits is first reduced by a map-only filter job -- re-reading
        the big raw file in every task would defeat the broadcast join
        (this is the execution-side counterpart of the optimizer's
        "relations that fit in memory after a selective filter" insight,
        Section 2.2.3; pilot-run output reuse covers the most selective
        leaves without any extra job). Join subtrees are compiled into jobs
        of their own first.
        """
        if isinstance(node, PhysLeaf):
            leaf = node.leaf
            input_file = self._file_of_leaf(leaf)
            raw_bytes = (self.dfs.file_size(input_file)
                         if self.dfs.exists(input_file) else 0)
            budget = self.config.cluster.task_memory_bytes
            loader = _identity_loader
            description = leaf.describe()
            if leaf.is_base and leaf.predicates and raw_bytes > budget:
                filtered = self._materialize(self._leaf_stream(node), jobs)
                probe.upstream.append(filtered)
                input_file = filtered.job.output_name
                description += " (pre-filtered)"
            elif leaf.is_base:
                loader = _leaf_filter(leaf)
        else:
            # Join subtree: materialize it, then broadcast its output.
            subtree = self._compile_node(node, jobs)
            if not subtree.is_materialized:  # else e.g. a repartition output
                subtree = self._materialized_stream(subtree, jobs)
            probe.upstream.extend(subtree.upstream)
            probe.upstream_cost += node.cost
            input_file = subtree.input_files[0]
            loader = _identity_loader
            description = f"build from {input_file}"
        return BroadcastBuild(
            input_file=input_file,
            loader=loader,
            description=description,
        )

    def _skew_build_side(self, node: PhysJoin, right: _Stream,
                         build_refs: list[ColumnRef], consumer: str,
                         consumer_map_tasks: int,
                         ) -> tuple[BroadcastBuild, MapReduceJob | None]:
        """Heavy-key build slice of a skew join, and the job slicing it.

        The heavy rows are filtered out of a full scan of the build input
        -- a base leaf's raw file (its predicates applied) or a
        materialized intermediate -- so the in-map hash table holds only
        the heavy-key slice while the job's tail shuffle re-reads the
        same file. Where :meth:`ClusterCostModel.slice_pays` says so, that
        full scan runs once, in a map-only job named after the consumer
        (``<consumer>.slice``), and every consumer map task loads its
        few-row output; otherwise each task scans the whole file itself.
        """
        heavy_set = frozenset(node.heavy_keys)
        right_node = node.right
        build_file = right.input_files[0]
        base_leaf = _base_leaf(right_node)
        if base_leaf is not None:
            description = f"{base_leaf.describe()} (heavy keys)"
        else:  # an intermediate: already qualified and filtered
            description = f"heavy keys of {build_file}"

        def heavy_rows(batch: Any) -> RowBatch:
            rows = batch.rows
            sizes = batch.ensure_sizes()
            heavy = [i for i, key
                     in enumerate(_join_keys(batch, build_refs))
                     if key in heavy_set]
            return RowBatch([rows[i] for i in heavy],
                            [sizes[i] for i in heavy])

        build_bytes = (self.dfs.file_size(build_file)
                       if self.dfs.exists(build_file)
                       else right_node.est_bytes)
        if not ClusterCostModel(self.config.cluster).slice_pays(
                build_bytes, node.heavy_build_fraction * right_node.est_bytes,
                consumer_map_tasks, self.config.backend):
            scan = (_leaf_filter(base_leaf) if base_leaf is not None
                    else _identity_loader)
            return BroadcastBuild(
                input_file=build_file,
                loader=lambda batch: heavy_rows(scan(batch)),
                description=description,
            ), None

        # The slice's map tasks scan the build like any leaf scan does.
        transform = (leaf_scan(base_leaf) if base_leaf is not None
                     else _identity_transform)

        def mapper(context: TaskContext, source: str, batch) -> BatchEmit:
            out = heavy_rows(transform(context, batch))
            return BatchEmit(rows=out.rows, sizes=out.sizes, columns=out)

        slice_job = MapReduceJob(
            name=f"{consumer}.slice",
            inputs=[build_file],
            mapper=mapper,
            output_name=f"{consumer}.slice.out",
            output_schema=intermediate_schema(),
            description=f"heavy-key slice of {build_file}",
        )
        return BroadcastBuild(
            input_file=slice_job.output_name,
            loader=_identity_loader,
            description=f"{description}, sliced",
        ), slice_job

    def _skew_stream(self, node: PhysJoin,
                     jobs: list[CompiledJob]) -> _Stream:
        """Repartition join, with a heavy-key side channel when skewed.

        One map+reduce job: each map task reads a split of either input,
        applies that side's pipeline, tags the record with its side and
        emits it under the join key; reducers separate the two sides per
        key and produce the cartesian product (Section 2.2.1).

        A skew join (:attr:`PhysJoin.heavy_keys` non-empty) adds the side
        channel: map tasks hash-load only the build rows of the heavy
        keys, probe rows carrying a heavy key are joined in place and
        emitted with ``key=None`` -- the runtime routes them straight to
        the job's output, bypassing the shuffle -- and build rows of heavy
        keys are dropped from the shuffle (they already live in the
        broadcast build), so no pair is joined twice.
        """
        left = self._compile_node(node.left, jobs)
        right = self._compile_node(node.right, jobs)
        side_refs = [
            [condition.side_for(side) for condition in node.conditions]
            for side in (node.left.aliases, node.right.aliases)
        ]
        predicates = node.applied_predicates
        pred_cpu = sum(p.cpu_seconds_per_row for p in predicates)
        probe_cpu = self.config.cluster.probe_seconds_per_record
        heavy_set = frozenset(node.heavy_keys)
        if heavy_set and not right.is_materialized \
                and _base_leaf(node.right) is None:
            # Build pipeline: materialize it once; the same file feeds
            # both the tail shuffle and the heavy-key build.
            right = self._materialized_stream(right, jobs)
        name = self._next_name("sjoin" if heavy_set else "rjoin")
        inputs = sorted(set(left.input_files) | set(right.input_files))
        builds = left.builds + right.builds
        heavy_probe = None
        slice_job = None
        if heavy_set:
            map_tasks = sum(self._map_tasks(stream.input_files, side.est_bytes)
                            for stream, side in ((left, node.left),
                                                 (right, node.right)))
            heavy_build, slice_job = self._skew_build_side(
                node, right, side_refs[1], name, map_tasks)
            builds = builds + [heavy_build]
            heavy_probe = _hash_probe(heavy_build, side_refs[1],
                                      predicates, pred_cpu)
        side_transforms = (left.transform, right.transform)
        side_files = (frozenset(left.input_files),
                      frozenset(right.input_files))

        def mapper(context: TaskContext, source: str, batch) -> BatchEmit:
            out_keys: list = []
            out_rows: list[Row] = []
            out_sizes: list[int] = []
            append_key = out_keys.append
            append_row = out_rows.append
            append_size = out_sizes.append
            for side_index in (0, 1):
                if source not in side_files[side_index]:
                    continue
                out = side_transforms[side_index](context, batch)
                rows = out.rows
                if not rows:
                    continue
                sizes = out.ensure_sizes()
                keys = _join_keys(out, side_refs[side_index])
                if heavy_probe is not None and side_index == 0:
                    heavy = [i for i, key in enumerate(keys)
                             if key in heavy_set]
                    if heavy:
                        if probe_cpu:
                            context.charge_cpu(probe_cpu * len(heavy))
                        joined = heavy_probe(
                            context, [rows[i] for i in heavy],
                            [sizes[i] for i in heavy],
                            [keys[i] for i in heavy])
                        out_keys.extend([None] * len(joined))
                        out_rows.extend(joined.rows)
                        out_sizes.extend(joined.sizes)
                # Tagged shuffle records travel as ``(side, row)`` and are
                # charged 16 + size(row): the framing of the two-field
                # record Jaql would serialize (two one-char keys, one
                # 8-byte int).
                for i, key in enumerate(keys):
                    if key is None or key in heavy_set:
                        continue
                    append_key(key)
                    append_row((side_index, rows[i]))
                    append_size(16 + sizes[i])
            return BatchEmit(rows=out_rows, sizes=out_sizes, keys=out_keys)

        output = f"{name}.out"
        estimated_input_bytes = (
            node.left.est_bytes + node.right.est_bytes
        )
        description = f"{node.method} join over {sorted(node.aliases)}"
        if heavy_set:
            description += f" ({len(heavy_set)} heavy keys)"
        job = MapReduceJob(
            name=name,
            inputs=inputs,
            mapper=mapper,
            reducer=_join_reducer(predicates, pred_cpu),
            num_reducers=self._reducers_for(inputs, estimated_input_bytes),
            output_name=output,
            output_schema=intermediate_schema(),
            broadcast_builds=builds,
            description=description,
            map_side_output=bool(heavy_set),
        )
        depends = _dedupe(
            [up.name for up in left.upstream + right.upstream]
        )
        upstream_cost = left.upstream_cost + right.upstream_cost
        compiled = CompiledJob(
            job=job,
            depends_on=depends,
            output_aliases=node.aliases,
            applied_predicates=(left.applied_predicates
                                + right.applied_predicates + predicates),
            join_count=left.join_count + right.join_count + 1,
            estimated_cost=max(node.cost - upstream_cost, 0.0),
            estimated_rows=node.est_rows,
            estimated_bytes=node.est_bytes,
            slice_job=slice_job,
        )
        jobs.append(compiled)
        return _Stream(
            input_files=[output],
            transform=_identity_transform,
            upstream=[compiled],
            aliases=node.aliases,
            upstream_cost=node.cost,
            node=node,
        )

    # -- materialization ---------------------------------------------------------------

    def _materialize(self, stream: _Stream, jobs: list[CompiledJob],
                     final: bool = False) -> CompiledJob:
        """Emit a map-only job writing the stream's rows to the DFS."""
        label = "final" if final else "mjoin"
        name = self._next_name(label)
        output = f"{name}.out"
        transform = stream.transform

        def mapper(context: TaskContext, source: str, batch) -> BatchEmit:
            out = transform(context, batch)
            return BatchEmit(rows=out.rows, sizes=out.ensure_sizes(),
                             columns=out)

        job = MapReduceJob(
            name=name,
            inputs=list(stream.input_files),
            mapper=mapper,
            output_name=output,
            output_schema=intermediate_schema(),
            broadcast_builds=list(stream.builds),
            description=f"map-only pipeline over {sorted(stream.aliases)}",
        )
        node_cost = stream.node.cost if stream.node is not None else 0.0
        compiled = CompiledJob(
            job=job,
            depends_on=_dedupe([up.name for up in stream.upstream]),
            output_aliases=stream.aliases,
            applied_predicates=stream.applied_predicates,
            join_count=stream.join_count,
            estimated_cost=max(node_cost - stream.upstream_cost, 0.0),
            estimated_rows=(stream.node.est_rows
                            if stream.node is not None else 0.0),
            estimated_bytes=(stream.node.est_bytes
                             if stream.node is not None else 0.0),
            final=final,
        )
        jobs.append(compiled)
        return compiled

    # -- helpers -----------------------------------------------------------------------

    def _file_of_leaf(self, leaf: BlockLeaf) -> str:
        if leaf.is_base:
            return self.table_files.get(leaf.source_name, leaf.source_name)
        return leaf.source_name

    def _next_name(self, label: str) -> str:
        self._counter += 1
        return f"{self.name_prefix}.{label}{self._counter}"

    def _map_tasks(self, inputs: list[str], estimated_bytes: float) -> int:
        """Map tasks over ``inputs``: their splits, or one per block of
        the optimizer's estimate while one is not yet materialized."""
        if all(self.dfs.exists(name) for name in inputs):
            return sum(len(self.dfs.file_splits(name)) for name in inputs)
        return math.ceil(estimated_bytes
                         / self.config.cluster.block_size_bytes)

    def _reducers_for(self, inputs: list[str],
                      estimated_bytes: float = 0.0) -> int:
        """:func:`reducer_count` over the inputs' bytes.

        Inputs not yet materialized (downstream jobs of a not-yet-executed
        plan) fall back to the optimizer's byte estimates.
        """
        total_bytes = sum(self.dfs.file_size(name) for name in inputs
                          if self.dfs.exists(name))
        return reducer_count(max(total_bytes, estimated_bytes),
                             self.config.cluster)


def _fold_aggregate(op: str, values: list[Any]) -> Any:
    """Fold of one aggregate over values in arrival order, None skipped.

    Follows ``Aggregate.step()`` (the interpreter's state machine): sum
    is a left fold from 0.0, min/max keep the earliest extreme (None
    when no value was seen) and count counts every value. avg folds to
    its partial ``[total, count]``. The map side folds a split's column
    values per group; the reducer folds the partials of sum, min and max
    with it too, so sums associate per split -- results equal the
    interpreter's up to float rounding.
    """
    if op == "count":
        return len(values)
    if op == "min" or op == "max":
        present = [value for value in values if value is not None]
        if not present:
            return None
        return min(present) if op == "min" else max(present)
    total = 0.0
    seen = 0
    for value in values:
        if value is not None:
            total = total + value
            seen += 1
    return [total, seen] if op == "avg" else total


def _merge_partials(op: str, partials: list[Any]) -> Any:
    """Reduce-side merge of one aggregate's partials, in arrival order."""
    if op == "count":
        return sum(partials)
    if op == "avg":
        total = _fold_aggregate("sum", [partial[0] for partial in partials])
        seen = sum(partial[1] for partial in partials)
        return total / seen if seen else None
    return _fold_aggregate(op, partials)


def _dedupe(names: list[str]) -> list[str]:
    seen: set[str] = set()
    ordered: list[str] = []
    for name in names:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    return ordered
