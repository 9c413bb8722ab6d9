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

import time
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
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.stats.metastore import StatisticsMetastore
from repro.core.dynopt import (
    BlockExecutionResult,
    DynoptExecutor,
    MODE_DYNOPT,
)
from repro.feedback.keys import block_feedback_context
from repro.optimizer.plans import render_plan


@dataclass
class QueryExecution:
    """Result and cost breakdown of one executed query."""

    query_name: str
    rows: list[Row]
    block_results: list[BlockExecutionResult] = field(default_factory=list)
    stage_seconds: float = 0.0

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
                 metrics: MetricsRegistry | None = None,
                 plan_cache=None,
                 feedback=None):
        from repro.storage.dfs import DistributedFileSystem

        self.config = config
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or NULL_METRICS
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
                                      tracer=self.tracer,
                                      metrics=self.metrics)
        self.udfs = udfs or default_registry()
        self.executor = DynoptExecutor(self.runtime, self.metastore,
                                       self.config)
        #: optional cross-query plan cache (see repro.service.plan_cache);
        #: its invalidation listener keys off metastore updates.
        self.plan_cache = plan_cache
        if plan_cache is not None:
            self.executor.plan_cache = plan_cache
            self.metastore.subscribe(plan_cache.on_stats_update)
        #: optional workload feedback store (see repro.feedback); shared
        #: across queries -- and across Dyno instances in the service --
        #: so estimate audits from one run correct the next.
        self.feedback = feedback
        if feedback is not None:
            feedback.bind_metrics(self.metrics)
            self.executor.feedback = feedback
            self.executor.pilot_runner.feedback = feedback

    # -- catalog ------------------------------------------------------------------------

    def register_table(self, name: str, table: Table) -> None:
        """Publish ``table`` under ``name`` (overwriting any prior data).

        Every registration bumps the metastore's epoch for ``name``:
        statistics are lossy, so a data change that happens to freeze to
        identical synopses is invisible to statistics fingerprints -- the
        epoch is what keeps the result cache from serving rows computed
        over the previous contents (see repro.stats.metastore).
        """
        self.tables[name] = table
        self.dfs.write_table(table, name=name, overwrite=True)
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
                run_pilots: bool = True, reuse_statistics: bool = True,
                leaf_stats_override=None, collect_column_stats: bool = True,
                name: str = "query") -> QueryExecution:
        return self._execute(
            query, name, mode, str(strategy),
            lambda block: self.executor.execute_block(
                block,
                mode=mode,
                strategy=strategy,
                pilot_mode=pilot_mode,
                run_pilots=run_pilots,
                reuse_statistics=reuse_statistics,
                leaf_stats_override=leaf_stats_override,
                collect_column_stats=collect_column_stats,
            ),
        )

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
        wall_start = time.perf_counter() if self.metrics.enabled else 0.0
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
                     sim_total_s=round(execution.total_seconds, 6))
        if self.metrics.enabled:
            metrics = self.metrics
            metrics.inc("queries.executed")
            metrics.observe("query.driver_wall_s",
                            time.perf_counter() - wall_start)
            metrics.observe("query.sim_pilot_s", execution.pilot_seconds)
            metrics.observe("query.sim_optimizer_s",
                            execution.optimizer_seconds)
            metrics.observe("query.sim_execution_s",
                            execution.execution_seconds)
        return execution

    def explain(self, query: QuerySpec | str, run_pilots: bool = True,
                name: str = "query") -> str:
        """Plan a query and return a human-readable report, no execution.

        With ``run_pilots`` the leaf statistics come from pilot runs (which
        do execute sample jobs, like the real system's EXPLAIN would after
        step 3 of Figure 1); otherwise ground-truth oracle statistics are
        used.
        """
        extracted = self.prepare(query, name)
        block = extracted.block
        lines = [block.describe(), ""]

        if run_pilots:
            report = self.executor.pilot_runner.run(block)
            block = self.executor._apply_reusable_outputs(block, report)
            lines.append(
                f"pilot runs: {report.jobs_run} job(s), "
                f"{report.simulated_seconds:.1f}s simulated"
            )
            leaf_stats = self.executor._leaf_stats(block)
        else:
            from repro.core.baselines import oracle_leaf_stats

            leaf_stats = oracle_leaf_stats(self.tables, block)
            lines.append("statistics: oracle (full scans)")
        for leaf in block.leaves:
            stats = leaf_stats[leaf.signature()]
            lines.append(
                f"  {leaf.describe()}: ~{stats.row_count:.0f} rows, "
                f"~{stats.size_bytes:.0f} bytes"
            )

        # The executor's own planning call, so learned corrections shape
        # the reported plan exactly as they would shape the executed one.
        context = (block_feedback_context(block)
                   if self.feedback is not None else None)
        result = self.executor._optimize(block, feedback_context=context,
                                         leaf_stats=leaf_stats,
                                         record=False)
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
        """Persist the statistics metastore (Section 4.1's 'file')."""
        self.metastore.save(path)

    def load_statistics(self, path) -> int:
        """Merge statistics persisted by an earlier session; returns count."""
        loaded = StatisticsMetastore.load(path)
        count = 0
        for signature in loaded:
            self.metastore.put(signature, loaded.get(signature))
            count += 1
        return count

    def execute_multi(self, stages: list[tuple[QuerySpec | str, str | None]],
                      **execute_kwargs) -> QueryExecution:
        """Execute dependent blocks in sequence (Section 5.1).

        Each element is ``(query, output_table_name)``; intermediate results
        register as base tables for later stages. The final stage must have
        ``None`` as its output name; its rows are returned.
        """
        if not stages:
            raise PlanError("execute_multi requires at least one stage")
        combined: QueryExecution | None = None
        for position, (query, output_name) in enumerate(stages):
            execution = self.execute(
                query, name=f"stage{position}", **execute_kwargs
            )
            if combined is None:
                combined = QueryExecution(execution.query_name, [])
            combined.block_results.extend(execution.block_results)
            combined.stage_seconds += execution.stage_seconds
            is_last = position == len(stages) - 1
            if is_last:
                if output_name is not None:
                    raise PlanError("final stage must not name an output")
                combined.rows = execution.rows
            else:
                if output_name is None:
                    raise PlanError(
                        f"intermediate stage {position} needs an output name"
                    )
                table = Table(output_name, infer_schema(execution.rows),
                              execution.rows)
                self.register_table(output_name, table)
        assert combined is not None
        return combined

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
