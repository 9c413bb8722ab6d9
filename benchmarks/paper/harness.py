"""Experiment harness: run the paper's plan variants and format results.

Provides the four execution-plan variants of Section 6.1 behind a single
entry point, :func:`run_workload`:

* ``DYNOPT`` -- pilot runs + online statistics + re-optimization,
* ``DYNOPT-SIMPLE`` -- pilot runs + one-shot optimization,
* ``RELOPT`` -- the shared-nothing relational optimizer baseline,
* ``BESTSTATICJAQL`` / ``BESTSTATICHIVE`` -- the best hand-written
  left-deep plan under stock Jaql/Hive semantics.

Reported seconds are simulated cluster time: DYNO variants include their
own overheads (pilot runs, optimizer calls, statistics collection), the
baselines report plan execution only -- matching how the paper measures
each variant. Results tables render in the normalized style of the paper's
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.baselines import (
    jaql_file_size_stats,
    oracle_leaf_stats,
    rank_orders_by_oracle,
    relopt_leaf_stats,
    relopt_optimizer_config,
)
from repro.core.dyno import Dyno, QueryExecution, infer_schema
from repro.data.table import Table
from repro.data.tpch import PAPER_SCALE_FACTORS, TpchDataset, generate_tpch
from repro.errors import PlanError
from repro.workloads.queries import Workload

VARIANT_DYNOPT = "DYNOPT"
VARIANT_SIMPLE = "DYNOPT-SIMPLE"
VARIANT_RELOPT = "RELOPT"
VARIANT_STATIC_JAQL = "BESTSTATICJAQL"
VARIANT_STATIC_HIVE = "BESTSTATICHIVE"

ALL_VARIANTS = (VARIANT_STATIC_JAQL, VARIANT_RELOPT, VARIANT_SIMPLE,
                VARIANT_DYNOPT)

_DATASET_CACHE: dict[tuple[float, int], TpchDataset] = {}


def dataset_for(scale_factor: float, seed: int = 2014) -> TpchDataset:
    """Cached TPC-H dataset (generation dominates small experiments)."""
    key = (scale_factor, seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = generate_tpch(scale_factor, seed)
    return _DATASET_CACHE[key]


def dataset_for_paper_sf(paper_sf: int, seed: int = 2014) -> TpchDataset:
    return dataset_for(PAPER_SCALE_FACTORS[paper_sf], seed)


@dataclass
class WorkloadRun:
    """One variant executed on one workload."""

    workload: str
    variant: str
    seconds: float
    rows: list[dict[str, Any]] = field(default_factory=list)
    executions: list[QueryExecution] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def pilot_seconds(self) -> float:
        return sum(ex.pilot_seconds for ex in self.executions)

    @property
    def optimizer_seconds(self) -> float:
        return sum(ex.optimizer_seconds for ex in self.executions)

    @property
    def execution_seconds(self) -> float:
        return sum(ex.execution_seconds for ex in self.executions)


def run_workload(
    tables: dict[str, Table],
    workload: Workload,
    variant: str,
    config: DynoConfig = DEFAULT_CONFIG,
    strategy: str | None = None,
    static_top_k: int = 3,
    collect_column_stats: bool = True,
) -> WorkloadRun:
    """Execute ``workload`` under one plan variant; see module docstring.

    DYNOPT, DYNOPT-SIMPLE and RELOPT are one ``execute_multi`` each;
    ``strategy`` replaces their execution strategy (UNC-1 for DYNOPT,
    SIMPLE_MO otherwise)."""
    if variant in (VARIANT_DYNOPT, VARIANT_SIMPLE, VARIANT_RELOPT):
        relopt = variant == VARIANT_RELOPT
        if relopt:
            # DBMS-X: statistics gathered up front, plan hand-coded and
            # executed. Only plan execution time is reported (the paper
            # obtains the plan from DBMS-X offline and replays it in
            # Jaql). DBMS-X plans with the conservative broadcast margin
            # of a production optimizer.
            config = replace(config,
                             optimizer=relopt_optimizer_config(config))
        simple = variant != VARIANT_DYNOPT
        dyno = Dyno(tables, config=config, udfs=workload.udfs)
        stages = dyno.execute_multi(
            workload.stages, mode="simple" if simple else "dynopt",
            strategy=strategy or ("SIMPLE_MO" if simple else "UNC-1"),
            leaf_stats=relopt_leaf_stats if relopt else None,
            collect_column_stats=collect_column_stats,
        ).stages
        seconds = sum(ex.execution_seconds if relopt else ex.total_seconds
                      for ex in stages)
        return WorkloadRun(workload.name, variant, seconds,
                           stages[-1].rows, stages)
    if variant == VARIANT_STATIC_JAQL:
        return _run_best_static(tables, workload, config, static_top_k)
    if variant == VARIANT_STATIC_HIVE:
        return _run_best_static(tables, workload,
                                config.with_backend("hive"), static_top_k)
    raise PlanError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# variant runners
# ---------------------------------------------------------------------------


def _run_best_static(tables, workload: Workload, config: DynoConfig,
                     top_k: int) -> WorkloadRun:
    """Best hand-written left-deep plan: enumerate, rank, execute top-k."""
    dyno = Dyno(tables, config=config, udfs=workload.udfs)
    executions: list[QueryExecution] = []
    rows: list[dict[str, Any]] = []
    total_seconds = 0.0
    chosen_orders: list[tuple[int, ...]] = []
    for position, (spec, output_name) in enumerate(workload.stages):
        extracted = dyno.prepare(spec, name=f"stage{position}")
        block = extracted.block
        jaql_stats = jaql_file_size_stats(dyno.tables, block)
        oracle_stats = oracle_leaf_stats(dyno.tables, block)
        file_sizes = {
            leaf.source_name: dyno.dfs.file_size(leaf.source_name)
            for leaf in block.base_leaves()
        }
        ranked = rank_orders_by_oracle(block, jaql_stats, oracle_stats,
                                       file_sizes, config)
        best_execution: QueryExecution | None = None
        best_order: tuple[int, ...] | None = None
        for candidate in ranked[:max(1, top_k)]:
            execution = dyno.execute_with_plan(
                spec, candidate.plan, name=f"stage{position}"
            )
            if (best_execution is None
                    or execution.execution_seconds
                    < best_execution.execution_seconds):
                best_execution = execution
                best_order = candidate.order
        assert best_execution is not None and best_order is not None
        executions.append(best_execution)
        chosen_orders.append(best_order)
        total_seconds += best_execution.execution_seconds
        if output_name is not None:
            dyno.register_table(
                output_name,
                Table(output_name, infer_schema(best_execution.rows),
                      best_execution.rows),
            )
        else:
            rows = best_execution.rows
    variant = (VARIANT_STATIC_HIVE if config.backend == "hive"
               else VARIANT_STATIC_JAQL)
    return WorkloadRun(workload.name, variant, total_seconds, rows,
                       executions,
                       details={"orders": chosen_orders,
                                "candidates_ranked": len(ranked)})


# ---------------------------------------------------------------------------
# result formatting
# ---------------------------------------------------------------------------


@dataclass
class ExperimentTable:
    """A rendered experiment: id, caption, column labels and value rows."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[list[Any]]
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        widths = [len(str(column)) for column in self.columns]
        rendered_rows = []
        for row in self.rows:
            rendered = [_format_cell(cell) for cell in row]
            rendered_rows.append(rendered)
            for index, cell in enumerate(rendered):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = " | ".join(
            str(column).ljust(widths[index])
            for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for rendered in rendered_rows:
            lines.append(" | ".join(
                cell.ljust(widths[index])
                for index, cell in enumerate(rendered)
            ))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def markdown(self) -> str:
        lines = [f"### {self.experiment_id}: {self.title}", "",
                 "| " + " | ".join(map(str, self.columns)) + " |",
                 "|" + "---|" * len(self.columns)]
        lines += ["| " + " | ".join(map(_format_cell, row)) + " |"
                  for row in self.rows]
        lines += [f"\n> {note}" for note in self.notes]
        return "\n".join(lines)


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def normalized(value: float, baseline: float) -> float:
    """value / baseline as the paper's 'relative execution time' (1.0=100%)."""
    if baseline <= 0:
        return float("inf")
    return value / baseline
