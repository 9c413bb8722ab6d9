"""One experiment per table/figure of the paper's evaluation (Section 6).

Each ``table1``/``figure2``/... function reproduces the corresponding
result as an :class:`ExperimentTable` whose rows mirror what the paper
plots. Absolute times are simulated seconds; every experiment reports the
same *normalized* quantities as the paper (see EXPERIMENTS.md for the
paper-vs-measured comparison).

The experiments run on the scaled-down TPC-H datasets; the paper's scale
factors 100/300/1000 map to generator scale factors with the same 1:3:10
ratio (:data:`repro.data.tpch.PAPER_SCALE_FACTORS`). The two
``ablation_*`` functions measure mechanisms beyond the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from benchmarks.paper.harness import (
    ALL_VARIANTS,
    VARIANT_DYNOPT,
    VARIANT_RELOPT,
    VARIANT_SIMPLE,
    VARIANT_STATIC_HIVE,
    VARIANT_STATIC_JAQL,
    ExperimentTable,
    dataset_for_paper_sf,
    normalized,
    run_workload,
)
from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.baselines import oracle_leaf_stats, relopt_plan
from repro.core.dyno import Dyno, infer_schema
from repro.core.pilot import PILR_MT, PILR_ST
from repro.data.table import Table
from repro.optimizer.plans import render_plan, summarize_plan
from repro.optimizer.search import JoinOptimizer
from repro.workloads.queries import (
    Workload,
    q2,
    q7,
    q8_prime,
    q9_prime,
    q10,
)

#: Figure 6 sweep: the paper's 0.01% .. 100% UDF selectivities.
FIGURE6_SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1, 1.0)


# ---------------------------------------------------------------------------
# Table 1: PILR_ST vs PILR_MT
# ---------------------------------------------------------------------------


def _pilot_only_seconds(tables, workload: Workload, mode: str,
                        config: DynoConfig = DEFAULT_CONFIG) -> float:
    """Simulated time of the pilot phase alone for every block."""
    dyno = Dyno(tables, config=config, udfs=workload.udfs)
    total = 0.0
    for position, (spec, output_name) in enumerate(workload.stages):
        extracted = dyno.prepare(spec, name=f"stage{position}")
        report = dyno.executor.pilot_runner.run(
            extracted.block, mode=mode, reuse_statistics=False
        )
        total += report.simulated_seconds
        if output_name is not None:
            # Later blocks scan the intermediate; for pilot timing purposes
            # the base-table pilots dominate, so we execute the stage to
            # make the intermediate available (the metastore holds every
            # signature now, so no pilot job runs).
            execution = dyno.execute(spec, mode="simple",
                                     name=f"stage{position}x")
            dyno.register_table(
                output_name,
                Table(output_name, infer_schema(execution.rows),
                      execution.rows),
            )
    return total


def table1_pilr(config: DynoConfig = DEFAULT_CONFIG) -> ExperimentTable:
    """Table 1: relative PILR time, ST at SF100 vs MT at SF100/300/1000."""
    workloads = [q2(), q8_prime(), q9_prime(), q10()]
    columns = ["Query", "SF100-ST", "SF100-MT", "SF300-MT", "SF1000-MT"]
    rows = []
    for workload in workloads:
        baseline = _pilot_only_seconds(
            dataset_for_paper_sf(100).tables, workload, PILR_ST, config
        )
        row: list = [workload.name, "100%"]
        for paper_sf in (100, 300, 1000):
            seconds = _pilot_only_seconds(
                dataset_for_paper_sf(paper_sf).tables, workload, PILR_MT,
                config,
            )
            row.append(f"{100 * normalized(seconds, baseline):.1f}%")
        rows.append(row)
    return ExperimentTable(
        "Table 1",
        "Relative execution time of PILR for varying queries and scale "
        "factors (normalized to PILR_ST at SF=100)",
        columns, rows,
        notes=["paper: MT is 16%-28% of ST and independent of the scale "
               "factor (4.6x average speedup)"],
    )


# ---------------------------------------------------------------------------
# Figures 2 and 3: plan printouts
# ---------------------------------------------------------------------------


@dataclass
class PlanEvolution:
    """Captured plans for the Figure 2/3 style printouts."""

    query: str
    relopt_plan: str
    dyno_plans: list[str] = field(default_factory=list)
    signatures: list[str] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"=== {self.query}: plan by traditional optimizer ===",
                 self.relopt_plan]
        for index, plan in enumerate(self.dyno_plans, start=1):
            lines.append(f"=== {self.query}: DYNO plan{index} ===")
            lines.append(plan)
        return "\n".join(lines)

    def markdown(self) -> str:
        return "```\n" + self.format() + "\n```"


@dataclass
class Figure3:
    """Figure 3's plan printout and its join-method census."""

    plans: PlanEvolution
    counts: ExperimentTable

    def format(self) -> str:
        return self.plans.format() + "\n\n" + self.counts.format()

    def markdown(self) -> str:
        return self.plans.markdown() + "\n\n" + self.counts.markdown()


def figure2_plan_evolution(
    config: DynoConfig = DEFAULT_CONFIG,
) -> PlanEvolution:
    """Figure 2: Q8' plans -- RELOPT plan and DYNO's evolving plans."""
    workload = q8_prime()
    tables = dataset_for_paper_sf(300).tables
    block = Dyno({}, udfs=workload.udfs).prepare(workload.final_spec).block
    relopt_text = render_plan(relopt_plan(block, tables, config)[0])
    run = run_workload(tables, workload, VARIANT_DYNOPT, config)
    block_result = run.executions[0].block_results[0]
    return PlanEvolution(
        "Q8'",
        relopt_text,
        [record.plan_text for record in block_result.iterations],
        [record.plan_signature for record in block_result.iterations],
    )


def figure3(config: DynoConfig = DEFAULT_CONFIG) -> Figure3:
    """Figure 3: Q9' -- RELOPT's all-repartition plan vs DYNO's plan after
    pilot runs (broadcast joins throughout), and their join-method
    census."""
    workload = q9_prime()
    tables = dataset_for_paper_sf(300).tables
    block = Dyno({}, udfs=workload.udfs).prepare(workload.final_spec).block
    relopt, _ = relopt_plan(block, tables, config)
    run = run_workload(tables, workload, VARIANT_SIMPLE, config)
    block_result = run.executions[0].block_results[0]
    plans = PlanEvolution(
        "Q9'",
        render_plan(relopt),
        [record.plan_text for record in block_result.iterations[:1]],
        [record.plan_signature for record in block_result.iterations[:1]],
    )
    summaries = [("RELOPT", summarize_plan(relopt)),
                 ("DYNO (after pilot runs)",
                  summarize_plan(block_result.plans[0]))]
    counts = ExperimentTable(
        "Figure 3",
        "Q9' join methods: traditional optimizer vs DYNO after pilot runs",
        ["Plan", "repartition joins", "broadcast joins", "chained"],
        [[name, summary.repartition_joins, summary.broadcast_joins,
          summary.chained_joins] for name, summary in summaries],
        notes=["paper: RELOPT picks all repartition joins (UDF selectivity "
               "unknown); DYNO picks only broadcast joins"],
    )
    return Figure3(plans, counts)


# ---------------------------------------------------------------------------
# Figure 4: overhead of pilot runs, re-optimization, statistics collection
# ---------------------------------------------------------------------------


def figure4_overhead(config: DynoConfig = DEFAULT_CONFIG) -> ExperimentTable:
    """Figure 4: overhead breakdown at SF=300, normalized to execution with
    pre-collected statistics."""
    workloads = [q2(), q7(), q8_prime(), q10()]
    tables = dataset_for_paper_sf(300).tables
    columns = ["Query", "plan execution", "re-optimization", "PILR",
               "stats collection", "total overhead"]
    rows = []
    for workload in workloads:
        # Run with everything on (pilot runs + online stats collection).
        full = run_workload(tables, workload, VARIANT_DYNOPT, config)
        # Reference run: statistics already in the metastore (we re-drive
        # DYNOPT with pilot statistics reused and no column collection),
        # mirroring the paper's two-execution methodology.
        reference = run_workload(
            tables, workload, VARIANT_DYNOPT, config,
            collect_column_stats=False,
        )
        baseline = reference.execution_seconds + reference.optimizer_seconds
        # The makespan delta understates collection cost when another task
        # sits on the critical path, so the charged per-record model time
        # provides the floor.
        charged = config.cluster.stats_seconds_per_record * sum(
            record.stats_records
            for execution in full.executions
            for block_result in execution.block_results
            for record in block_result.iterations
        )
        stats_overhead = max(
            charged, full.execution_seconds - reference.execution_seconds
        )
        total_overhead = (full.pilot_seconds + full.optimizer_seconds
                          + stats_overhead)
        rows.append([
            workload.name,
            f"{100 * normalized(reference.execution_seconds, baseline):.1f}%",
            f"{100 * normalized(full.optimizer_seconds, baseline):.2f}%",
            f"{100 * normalized(full.pilot_seconds, baseline):.1f}%",
            f"{100 * normalized(stats_overhead, baseline):.1f}%",
            f"{100 * normalized(total_overhead, baseline):.1f}%",
        ])
    return ExperimentTable(
        "Figure 4",
        "Overhead of pilot runs, re-optimization and statistics collection "
        "(SF=300)",
        columns, rows,
        notes=[
            "paper: re-optimization <0.25% except Q8' (~7%, 8-way join); "
            "PILR 2.5%-6.7%; stats collection 0.1%-2.8%; total 7%-10%",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 5: execution strategies
# ---------------------------------------------------------------------------


def figure5_strategies(config: DynoConfig = DEFAULT_CONFIG) -> ExperimentTable:
    """Figure 5: DYNOPT/DYNOPT-SIMPLE execution strategies at SF=300.

    At simulation scale the default memory budget lets whole queries
    collapse into one or two chained jobs, leaving strategies nothing to
    choose between; the budget is reduced here so plans span several jobs,
    matching the job counts of the paper's cluster runs.
    """
    config = config.with_memory(task_memory_bytes=24 * 1024)
    workloads = [q7(), q8_prime(), q10()]
    tables = dataset_for_paper_sf(300).tables
    strategies = [
        (VARIANT_SIMPLE, "SIMPLE_SO"),
        (VARIANT_SIMPLE, "SIMPLE_MO"),
        (VARIANT_DYNOPT, "UNC-1"),
        (VARIANT_DYNOPT, "UNC-2"),
        (VARIANT_DYNOPT, "CHEAP-1"),
        (VARIANT_DYNOPT, "CHEAP-2"),
    ]
    columns = ["Query"] + [
        name if variant == VARIANT_SIMPLE else f"DYNOPT_{name}"
        for variant, name in strategies
    ]
    rows = []
    for workload in workloads:
        measured: list[float] = []
        for variant, strategy in strategies:
            run = run_workload(tables, workload, variant, config,
                               strategy=strategy)
            measured.append(run.seconds)
        baseline = measured[0]
        rows.append(
            [workload.name]
            + [f"{100 * normalized(seconds, baseline):.1f}%"
               for seconds in measured]
        )
    return ExperimentTable(
        "Figure 5",
        "Comparison of execution strategies (normalized to "
        "DYNOPT-SIMPLE_SO, SF=300)",
        columns, rows,
        notes=[
            "paper: SIMPLE_MO always beats SIMPLE_SO; UNC-1 wins for "
            "Q7/Q8'; all strategies tie on Q10 (left-deep plan chosen)",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 6: UDF selectivity sweep on Q9'
# ---------------------------------------------------------------------------


def figure6_udf_selectivity(
    config: DynoConfig = DEFAULT_CONFIG,
) -> ExperimentTable:
    """Figure 6: Q9' runtime vs dimension-UDF selectivity, DYNOPT-SIMPLE
    normalized to RELOPT."""
    tables = dataset_for_paper_sf(300).tables
    columns = ["UDF selectivity", "RELOPT", "DYNOPT-SIMPLE",
               "speedup", "DYNO map-only jobs"]
    rows = []
    for selectivity in FIGURE6_SELECTIVITIES:
        workload = q9_prime(udf_selectivity=selectivity)
        relopt = run_workload(tables, workload, VARIANT_RELOPT, config)
        simple = run_workload(tables, workload, VARIANT_SIMPLE, config)
        map_only = _map_only_jobs(simple)
        rows.append([
            f"{selectivity * 100:g}%",
            "100%",
            f"{100 * normalized(simple.seconds, relopt.seconds):.1f}%",
            f"{normalized(relopt.seconds, simple.seconds):.2f}x",
            map_only,
        ])
    return ExperimentTable(
        "Figure 6",
        "Performance impact of UDF selectivity on Q9' (SF=300, normalized "
        "to RELOPT)",
        columns, rows,
        notes=[
            "paper: 1.78x/1.71x speedup at 0.01%/0.1% (2 map-only jobs), "
            "~1.15x at 1%/10% (3 jobs), parity at 100% (same plan)",
        ],
    )


def _map_only_jobs(run) -> int:
    count = 0
    for execution in run.executions:
        for block_result in execution.block_results:
            for record in block_result.iterations:
                count += len(record.jobs_executed)
    return count


# ---------------------------------------------------------------------------
# Figure 7: query execution times across variants and scale factors
# ---------------------------------------------------------------------------


def figure7_query_times(
    config: DynoConfig = DEFAULT_CONFIG,
) -> ExperimentTable:
    """Figure 7: 4 variants normalized to BESTSTATICJAQL, per SF."""
    factories = [q2, q8_prime, q9_prime, q10]
    columns = ["SF", "Query"] + list(ALL_VARIANTS)
    rows = []
    for paper_sf in (100, 300, 1000):
        tables = dataset_for_paper_sf(paper_sf).tables
        for factory in factories:
            measured = {}
            for variant in ALL_VARIANTS:
                workload = factory()
                run = run_workload(tables, workload, variant, config)
                measured[variant] = run.seconds
            baseline = measured[VARIANT_STATIC_JAQL]
            rows.append(
                [paper_sf, factory().name]
                + [f"{100 * normalized(measured[v], baseline):.1f}%"
                   for v in ALL_VARIANTS]
            )
    return ExperimentTable(
        "Figure 7",
        "Query execution times normalized to BESTSTATICJAQL",
        columns, rows,
        notes=[
            "paper: DYNOPT/DYNOPT-SIMPLE are at least as good as the best "
            "left-deep plan everywhere and up to 2x better (Q8' SF100, "
            "Q9'); RELOPT is sometimes worse than BESTSTATICJAQL",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 8: the same plans under the Hive backend
# ---------------------------------------------------------------------------


def figure8_hive(config: DynoConfig = DEFAULT_CONFIG) -> ExperimentTable:
    """Figure 8: benefits of DYNO's plans in Hive (SF=300).

    The paper replays the plans in Hive 0.12 and excludes DYNO's overheads;
    we run every variant under the Hive backend and report plan execution
    time only.
    """
    hive = config.with_backend("hive")
    factories = [q2, q8_prime, q9_prime, q10]
    variants = (VARIANT_STATIC_HIVE, VARIANT_RELOPT, VARIANT_SIMPLE,
                VARIANT_DYNOPT)
    tables = dataset_for_paper_sf(300).tables
    columns = ["Query"] + list(variants)
    rows = []
    for factory in factories:
        measured = {}
        for variant in variants:
            workload = factory()
            run = run_workload(tables, workload, variant, hive)
            # Execution time only ("these numbers do not include the
            # overheads of our techniques", Section 6.6).
            measured[variant] = run.execution_seconds or run.seconds
        baseline = measured[VARIANT_STATIC_HIVE]
        rows.append(
            [factory().name]
            + [f"{100 * normalized(measured[v], baseline):.1f}%"
               for v in variants]
        )
    return ExperimentTable(
        "Figure 8",
        "Benefits of applying DYNOPT in Hive (SF=300, execution time only, "
        "normalized to BESTSTATICHIVE)",
        columns, rows,
        notes=[
            "paper: same trends as Jaql; Q9' speedup grows to 3.98x because "
            "Hive's broadcast join uses the DistributedCache",
        ],
    )


# ---------------------------------------------------------------------------
# Ablations (beyond the paper's figures)
# ---------------------------------------------------------------------------


def ablation_chain_rule(
    config: DynoConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """The broadcast-chain rule (Section 5.2): Q9' execution seconds at
    SF=300 with and without it.

    Without the chain rule every broadcast join runs as its own map-only
    job, re-reading and re-writing the probe stream each time. Q9' --
    whose plan is a chain of dimension broadcasts over lineitem --
    quantifies the win.
    """
    def run(enable_chain_rule: bool) -> float:
        chain_config = replace(
            config,
            optimizer=replace(config.optimizer,
                              enable_chain_rule=enable_chain_rule),
        )
        workload = q9_prime()
        dyno = Dyno(dataset_for_paper_sf(300).tables, config=chain_config,
                    udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode="simple",
                                 strategy="SIMPLE_MO")
        return execution.execution_seconds

    return run(True), run(False)


def ablation_dynamic_join(config: DynoConfig = DEFAULT_CONFIG):
    """The Section-8 dynamic join operator vs fixed execution.

    How much of DYNOPT's benefit does pure method-switching (no
    re-optimization, no pilot runs) recover? An ultra-conservative
    all-repartition Q9' plan (planned under an 8-byte Mmax, run on the
    configured cluster) executes as planned, and again with the dynamic
    operator flipping joins whose inputs actually fit in memory. Returns
    the (fixed, dynamic) block results.
    """
    def conservative_setup():
        workload = q9_prime()
        dyno = Dyno(dataset_for_paper_sf(300).tables, config=config,
                    udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        stats = oracle_leaf_stats(dyno.tables, block)
        plan = JoinOptimizer(
            block, stats, config.optimizer,
            replace(config.cluster, task_memory_bytes=8),
        ).optimize().plan
        return dyno, block, plan

    dyno, block, plan = conservative_setup()
    fixed = dyno.executor.execute_physical_plan(block, plan,
                                                strategy="SIMPLE_SO")
    dyno, block, plan = conservative_setup()
    dynamic = dyno.executor.execute_switching_plan(block, plan)
    return fixed, dynamic
