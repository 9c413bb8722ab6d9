"""DYNO system facade (paper Section 3, Figure 1).

``Dyno`` owns the whole stack: the simulated DFS holding the base tables,
the cluster runtime, the statistics metastore, the UDF registry, and the
DYNOPT executor. A query goes through the paper's steps:

1. parse (or accept a built :class:`QuerySpec`), apply heuristic rewrites
   (filter/UDF push-down);
2. extract the join block and the post-join stages;
3. pilot runs over the block's base leaves;
4. DYNOPT (or DYNOPT-SIMPLE) execution of the join block;
5. post-join stages: GROUP BY as one more MapReduce job; ORDER BY and the
   final projection evaluated client-side (Jaql runs non-parallelizable
   expressions locally, Section 2.1);
6. results returned to the client.

Multi-block queries (e.g. TPC-H Q2 with its aggregation subquery) run as a
sequence of single-block queries whose outputs register as new base tables,
matching Section 5.1 ("a block can be executed only after all blocks it
depends on have already been executed").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.coordination import CoordinationService
from repro.cluster.runtime import ClusterRuntime
from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.data.schema import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    FieldType,
    Schema,
)
from repro.data.table import Row, Table
from repro.errors import PlanError
from repro.jaql.blocks import (
    ExtractedQuery,
    JoinBlock,
    apply_client_stage,
    extract_query,
)
from repro.jaql.compiler import PlanCompiler
from repro.jaql.expr import GroupBy, Project, QuerySpec
from repro.jaql.functions import UdfRegistry, default_registry
from repro.jaql.parser import SqlParser
from repro.jaql.rewrites import push_down_filters
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.stats.metastore import StatisticsMetastore
from repro.stats.statistics import TableStats
from repro.storage.dfs import DFSFile
from repro.core.dynopt import (
    BlockExecutionResult,
    DynoptExecutor,
    MODE_DYNOPT,
)
from repro.optimizer.plans import render_plan


#: A caller's leaf statistics: ``(tables, block) -> {signature: stats}``
#: (e.g. :func:`repro.core.baselines.oracle_leaf_stats`).
LeafStatsSource = Callable[[dict[str, Table], JoinBlock],
                           dict[str, TableStats]]


@dataclass
class QueryExecution:
    """Result and cost breakdown of one executed query."""

    query_name: str
    rows: list[Row]
    block_results: list[BlockExecutionResult] = field(default_factory=list)
    stage_seconds: float = 0.0
    #: ``execute_multi``'s per-stage executions, in order.
    stages: list[QueryExecution] = field(default_factory=list)

    @property
    def pilot_seconds(self) -> float:
        return sum(result.pilot_seconds for result in self.block_results)

    @property
    def optimizer_seconds(self) -> float:
        return sum(result.optimizer_seconds for result in self.block_results)

    @property
    def execution_seconds(self) -> float:
        return (sum(result.execution_seconds for result in self.block_results)
                + self.stage_seconds)

    @property
    def total_seconds(self) -> float:
        return self.pilot_seconds + self.optimizer_seconds + self.execution_seconds

    @property
    def plans(self):
        collected = []
        for result in self.block_results:
            collected.extend(result.plans)
        return collected


def infer_schema(rows: list[Row]) -> Schema:
    """Best-effort schema inference for intermediate tables."""
    fields: dict[str, FieldType] = {}
    for row in rows:
        for name, value in row.items():
            if name in fields:
                continue
            if isinstance(value, bool):
                fields[name] = BOOL
            elif isinstance(value, int):
                fields[name] = INT
            elif isinstance(value, float):
                fields[name] = FLOAT
            elif isinstance(value, str):
                fields[name] = STRING
    return Schema(tuple(fields.items()))


class Dyno:
    """End-to-end query execution over the simulated platform."""

    def __init__(self, tables: dict[str, Table],
                 config: DynoConfig = DEFAULT_CONFIG,
                 udfs: UdfRegistry | None = None,
                 metastore: StatisticsMetastore | None = None,
                 tracer: Tracer | None = None,
                 plan_cache=None):
        from repro.storage.dfs import DistributedFileSystem

        self.config = config
        self.tracer = tracer or NULL_TRACER
        self.dfs = DistributedFileSystem(config.cluster.block_size_bytes)
        # The metastore must exist before the first register_table call:
        # registration bumps the table's data epoch (the result cache keys
        # off it -- see repro.stats.metastore).
        # (`or` would discard a caller's *empty* shared store: len 0.)
        self.metastore = metastore if metastore is not None \
            else StatisticsMetastore()
        self.tables: dict[str, Table] = {}
        for name, table in tables.items():
            self.register_table(name, table)
        self.coordination = CoordinationService()
        self.runtime = ClusterRuntime(self.dfs, config, self.coordination,
                                      tracer=self.tracer)
        self.udfs = udfs or default_registry()
        self.executor = DynoptExecutor(self.runtime, self.metastore,
                                       self.config)
        #: optional cross-query plan cache (see repro.service.plan_cache);
        #: its invalidation listener keys off metastore updates.
        self.plan_cache = plan_cache
        if plan_cache is not None:
            self.executor.plan_cache = plan_cache
            self.metastore.subscribe(plan_cache.on_stats_update)

    # -- catalog ------------------------------------------------------------------------

    def register_table(self, name: str, table: Table,
                       sizes_from: DFSFile | None = None) -> None:
        """Publish ``table`` under ``name`` (overwriting any prior data).

        Every registration bumps the metastore's epoch for ``name``:
        statistics are lossy, so a data change that happens to freeze to
        identical synopses is invisible to statistics fingerprints -- the
        epoch is what keeps the result cache from serving rows computed
        over the previous contents (see repro.stats.metastore).
        ``sizes_from`` is a DFS file sharing row dicts with ``table``,
        whose sizes those rows keep (see ``DistributedFileSystem.
        write_table``).
        """
        self.tables[name] = table
        self.dfs.write_table(table, name=name, overwrite=True,
                             sizes_from=sizes_from)
        self.metastore.bump_table_epoch(name)

    # -- query preparation ----------------------------------------------------------------

    def parse(self, sql: str, name: str = "query") -> QuerySpec:
        return SqlParser(self.udfs).parse(sql, name)

    def prepare(self, query: QuerySpec | str,
                name: str = "query") -> ExtractedQuery:
        """Rewrite (push-down) and decompose into block + stages."""
        spec = self.parse(query, name) if isinstance(query, str) else query
        pushed = QuerySpec(spec.name, push_down_filters(spec.root),
                           spec.description)
        return extract_query(pushed)

    # -- execution -----------------------------------------------------------------------

    def execute(self, query: QuerySpec | str, mode: str = MODE_DYNOPT,
                strategy: str = "UNC-1", pilot_mode: str = "MT",
                leaf_stats: LeafStatsSource | None = None,
                collect_column_stats: bool = True,
                name: str = "query") -> QueryExecution:
        """Run one query; ``leaf_stats`` None gives its block pilot runs
        (with metastore reuse), a function gives it the caller's
        statistics, ``leaf_stats(self.tables, block)``, and no pilots."""
        return self._execute(
            query, name, mode, str(strategy),
            lambda block: self.executor.execute_block(
                block,
                mode=mode,
                strategy=strategy,
                pilot_mode=pilot_mode,
                leaf_stats=self._resolve(leaf_stats, block),
                collect_column_stats=collect_column_stats,
            ),
        )

    def _resolve(self, leaf_stats: LeafStatsSource | None,
                 block: JoinBlock) -> dict[str, TableStats] | None:
        return None if leaf_stats is None else leaf_stats(self.tables, block)

    def execute_with_plan(self, query: QuerySpec | str, plan,
                          name: str = "query") -> QueryExecution:
        """Execute a caller-provided physical plan (baseline replay path).

        The plan's join order/methods are taken as-is -- the paper's
        "hand-written" and "hand-coded" plans; post-join stages still run.
        """
        return self._execute(
            query, name, "static", "SIMPLE_MO",
            lambda block: self.executor.execute_physical_plan(
                block, plan, label="static"),
        )

    def _execute(self, query: QuerySpec | str, name: str, mode: str,
                 strategy: str,
                 run_block: Callable[[JoinBlock], BlockExecutionResult],
                 ) -> QueryExecution:
        """Prepare, run the join block with ``run_block``, run the stages."""
        with self.tracer.span("query", name=name, mode=mode,
                              strategy=strategy) as span:
            extracted = self.prepare(query, name)
            block_result = run_block(extracted.block)
            execution = QueryExecution(extracted.spec.name, [],
                                       [block_result])
            execution.rows = self._run_stages(
                extracted, block_result.output_file, execution
            )
            span.set(rows=len(execution.rows),
                     sim_total_s=round(execution.total_seconds, 6),
                     sim_pilot_s=round(execution.pilot_seconds, 6),
                     sim_optimizer_s=round(execution.optimizer_seconds, 6),
                     sim_execution_s=round(execution.execution_seconds, 6))
        return execution

    def explain(self, query: QuerySpec | str,
                leaf_stats: LeafStatsSource | None = None,
                name: str = "query") -> str:
        """Plan a query and return a human-readable report, no execution.

        The leaf statistics come from the source ``execute`` would use:
        pilot runs by default (which do execute sample jobs, like the real
        system's EXPLAIN would after step 3 of Figure 1), or the caller's
        ``leaf_stats`` function, which nothing records.
        """
        extracted = self.prepare(query, name)
        block, report, known = self.executor.leaf_statistics(
            extracted.block, self._resolve(leaf_stats, extracted.block))
        lines = [extracted.block.describe(), ""]
        if report is None:
            source = getattr(leaf_stats, "__name__", "caller's")
            lines.append(f"statistics: {source} (no pilot runs)")
        else:
            lines.append(
                f"pilot runs: {report.jobs_run} job(s), "
                f"{report.simulated_seconds:.1f}s simulated"
            )
        for leaf in block.leaves:
            stats = known[leaf.signature()]
            lines.append(
                f"  {leaf.describe()}: ~{stats.row_count:.0f} rows, "
                f"~{stats.size_bytes:.0f} bytes"
            )

        # The executor's own planning call, so the reported plan is the
        # one execution would choose from the same statistics.
        result = self.executor._optimize(block, known, record=False)
        lines += ["", f"best plan (estimated cost {result.cost:.0f}, "
                      f"{result.plans_considered} candidates):",
                  render_plan(result.plan, show_estimates=True)]

        graph = PlanCompiler(self.dfs, self.config,
                             f"{block.name}.explain").compile_block(
            result.plan
        )
        lines += ["", "job graph:", graph.describe()]
        for stage in extracted.stages:
            lines.append(f"then: {type(stage).__name__.lower()} stage")
        return "\n".join(lines)

    def save_statistics(self, path) -> None:
        """Persist the statistics metastore (Section 4.1's 'file'): the
        base-leaf statistics pilot runs measured."""
        self.metastore.save(path)

    def load_statistics(self, path) -> int:
        """Merge base-leaf statistics persisted by an earlier session;
        returns their count. Other entries (an older file's per-query
        ``intermediate:`` statistics) name files of a session that is
        gone and are skipped."""
        loaded = StatisticsMetastore.load(path)
        count = 0
        for signature in loaded:
            if signature.startswith("table:"):
                self.metastore.put(signature, loaded.get(signature))
                count += 1
        return count

    def execute_multi(self, stages: list[tuple[QuerySpec | str, str | None]],
                      **execute_kwargs) -> QueryExecution:
        """Execute dependent blocks in sequence (Section 5.1).

        Each element is ``(query, output_table_name)``; intermediate results
        register as base tables for later stages. The final stage must have
        ``None`` as its output name; its rows are returned.
        ``execute_kwargs`` go to every stage's :meth:`execute` (a
        ``leaf_stats`` function is asked once per block).
        """
        if not stages:
            raise PlanError("execute_multi requires at least one stage")
        if stages[-1][1] is not None:
            raise PlanError("final stage must not name an output")
        for position, (_, output_name) in enumerate(stages[:-1]):
            if output_name is None:
                raise PlanError(
                    f"intermediate stage {position} needs an output name"
                )
        executions: list[QueryExecution] = []
        for position, (query, output_name) in enumerate(stages):
            execution = self.execute(
                query, name=f"stage{position}", **execute_kwargs
            )
            executions.append(execution)
            if output_name is not None:
                table = Table(output_name, infer_schema(execution.rows),
                              execution.rows)
                self.register_table(output_name, table)
        return QueryExecution(
            executions[0].query_name, executions[-1].rows,
            [result for ex in executions for result in ex.block_results],
            sum(ex.stage_seconds for ex in executions), executions,
        )

    # -- post-join stages --------------------------------------------------------------------

    def _run_stages(self, extracted: ExtractedQuery, block_output: str,
                    execution: QueryExecution) -> list[Row]:
        current_file = block_output
        rows: list[Row] | None = None
        #: True once a projection built dicts no DFS file holds.
        fresh = False
        for stage in extracted.stages:
            if self.tracer.enabled:
                self.tracer.event("stage",
                                  kind=type(stage).__name__.lower(),
                                  query=extracted.spec.name)
            if isinstance(stage, GroupBy):
                if rows is not None:
                    raise PlanError(
                        "GROUP BY after a client-side stage is unsupported"
                    )
                compiler = PlanCompiler(
                    self.dfs, self.config,
                    f"{extracted.spec.name}.stage",
                )
                compiled = compiler.compile_group_by(current_file, stage)
                stage_result = self.executor.execute_stage_job(
                    compiled, extracted.spec.name)
                execution.stage_seconds += stage_result.execution_seconds
                current_file = stage_result.output_file
            else:
                rows = apply_client_stage(
                    stage, self._client_rows(current_file, rows))
                fresh = fresh or isinstance(stage, Project)
        rows = self._client_rows(current_file, rows)
        # Rows are engine-wide immutable and shared: the dicts of a file
        # (or of a merely re-ordered read of it) are the ones later scans,
        # the per-alias memo and other queries' outputs hold. This is the
        # one place they leave the engine, so the caller gets its own.
        return rows if fresh else [dict(row) for row in rows]

    def _client_rows(self, current_file: str,
                     rows: list[Row] | None) -> list[Row]:
        if rows is not None:
            return rows
        return self.dfs.read_all(current_file)
