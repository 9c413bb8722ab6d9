"""Two of the system's decisions, measured against the alternative.

Every number is simulated cluster seconds, except the skew join's
``plan_cost`` rows: the optimizer's estimated cost of the first plan.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.paper.harness import ExperimentTable
from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.dyno import Dyno
from repro.data.schema import estimate_value_size
from repro.incremental import (
    ChangeGenerator,
    StandingQueryManager,
    apply_change_batch,
)
from repro.optimizer.plans import summarize_plan
from repro.service import QueryService
from repro.validation import canonical_rows
from repro.workloads.changing import (
    KEY_COLUMNS,
    changing_tables,
    changing_udfs,
)
from repro.workloads.skewed import SKEWED_WORKLOADS, generate_skewed
from repro.workloads.weblogs import weblog_engagement

SEED = 2014
SKEW_SCALE = 1.0
WORKLOAD = "WeblogEngagement"
CHANGE_RATES = (("1%", 0.01), ("10%", 0.10), ("50%", 0.50))
#: The claims are asserted at the first scale factor; the second is
#: pinned by the committed table.
INCREMENTAL_SCALE_FACTORS = (0.05, 0.25)
#: the manager's default decision threshold, re-applied to the measured
#: ratio for the ``chosen`` column.
DECISION_THRESHOLD = 0.3


def _run_skewed(tables, name: str, config: DynoConfig):
    """One full DYNOPT run; returns (simulated_s, plan_cost, skew_joins)."""
    workload = SKEWED_WORKLOADS[name]()
    dyno = Dyno(tables, config=config, udfs=workload.udfs)
    execution = dyno.execute(workload.final_spec, mode="dynopt",
                             strategy="UNC-1", name=name)
    cost = sum(block.iterations[0].estimated_cost
               for block in execution.block_results if block.iterations)
    skew_joins = sum(summarize_plan(plan).skew_joins
                     for block in execution.block_results
                     for plan in block.plans)
    return execution.total_seconds, cost, skew_joins


def skew_join(config: DynoConfig = DEFAULT_CONFIG) -> ExperimentTable:
    """The skew join (``./s``) vs the best feasible alternative.

    On the seeded hot-key workload (two hot keys carrying 35% of the fact
    table over a Zipf(1.2) tail, build side sized past the broadcast
    memory gate) each skewed workload runs twice through the full DYNOPT
    driver: *after* with the default optimizer, whose plan must contain a
    skew join, and *before* with ``enable_skew_rule=False``, where the
    optimizer picks the cheaper of broadcast and repartition. Broadcast
    is memory-infeasible here, so "best alternative" degenerates to the
    repartition join -- exactly the hot-key convoy the operator exists
    to beat.
    """
    no_skew = replace(config, optimizer=replace(config.optimizer,
                                                enable_skew_rule=False))
    tables = generate_skewed(scale=SKEW_SCALE, seed=SEED)
    rows = []
    for name in sorted(SKEWED_WORKLOADS):
        after_s, after_cost, with_rule = _run_skewed(tables, name, config)
        before_s, before_cost, without_rule = _run_skewed(tables, name,
                                                          no_skew)
        for metric, before, after in (("plan_cost", before_cost, after_cost),
                                      ("sim_seconds", before_s, after_s)):
            rows.append([f"{name.lower()}_{metric}", str(round(before, 6)),
                         str(round(after, 6)), str(round(before / after, 3)),
                         with_rule, without_rule])
    rows.sort()
    # Why broadcast is out: the users build side vs its memory gate.
    budget = config.cluster.task_memory_bytes
    build_bytes = sum(estimate_value_size(row)
                      for row in tables["users"].rows)
    feasible = (build_bytes * config.optimizer.broadcast_safety_factor
                <= budget)
    return ExperimentTable(
        "Skew join",
        f"./s vs the best feasible alternative (hot-key workload, scale "
        f"{SKEW_SCALE}, seed {SEED}; before = enable_skew_rule=False)",
        ["Entry", "before", "after", "speedup", "./s with rule",
         "./s without"], rows,
        notes=[
            f"broadcast feasible: {feasible} (users build {build_bytes} B, "
            f"task memory {budget} B)",
            "sim_seconds: one DYNOPT UNC-1 run end to end; plan_cost: the "
            "optimizer's estimated cost of the first plan",
        ],
    )


def run_refresh(scale_factor: float, change_rate: float, strategy: str,
                config: DynoConfig = DEFAULT_CONFIG):
    """One forced-strategy refresh of the standing query after an
    append-only change batch; returns (simulated_s, ratio, rows,
    canonical maintained rows).

    Forcing goes through the decision threshold (1.0 admits any delta,
    ~0 forces every refresh full), so the measured path is exactly what
    the manager executes when it decides that way itself.
    """
    tables = changing_tables(scale_factor, seed=23)
    service = QueryService(tables, config=config, udfs=changing_udfs())
    threshold = 1.0 if strategy == "delta" else 1e-9
    manager = StandingQueryManager(service, full_threshold=threshold)
    manager.register(WORKLOAD, weblog_engagement().final_spec)

    generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                KEY_COLUMNS["pageviews"], seed=SEED)
    batch = generator.next_batch(change_rate)
    applied = apply_change_batch(service.dyno, batch,
                                 KEY_COLUMNS["pageviews"])
    outcome, = manager.refresh(applied).outcomes
    if not outcome.ok:
        raise RuntimeError(f"refresh failed: {outcome.error}")
    if outcome.decision.strategy != strategy:
        raise RuntimeError(
            f"could not force {strategy} at rate {change_rate}: "
            f"manager chose {outcome.decision.strategy} "
            f"({outcome.decision.reason})"
        )
    return (outcome.simulated_seconds, outcome.decision.ratio, outcome.rows,
            canonical_rows(manager.result(WORKLOAD), float_places=6))


def incremental_refresh(
    config: DynoConfig = DEFAULT_CONFIG,
) -> ExperimentTable:
    """Delta refresh vs full recompute of one standing query.

    At each change rate and scale factor the refresh runs forced onto the
    delta path (the core query re-runs over the batch's delta file and
    merges into the maintained state) and onto the full recompute. Both
    execute through the service (pilots, optimizer, replans), and the
    ``delta == full`` column says whether their maintained rows agree.
    """
    rows = []
    for scale_factor in INCREMENTAL_SCALE_FACTORS:
        for label, change_rate in CHANGE_RATES:
            delta_s, ratio, count, delta_rows = run_refresh(
                scale_factor, change_rate, "delta", config)
            full_s, _, _, full_rows = run_refresh(
                scale_factor, change_rate, "full", config)
            speedup = full_s / delta_s if delta_s > 0 else float("inf")
            rows.append([
                str(scale_factor), label, f"{delta_s:.3f}", f"{full_s:.3f}",
                f"{speedup:.3f}x", f"{ratio:.6f}",
                "delta" if ratio <= DECISION_THRESHOLD else "full", count,
                delta_rows == full_rows,
            ])
    return ExperimentTable(
        "Incremental refresh",
        f"delta vs full recompute of {WORKLOAD} (simulated seconds, "
        f"change seed {SEED})",
        ["SF", "Change rate", "delta_s", "full_s", "speedup", "ratio",
         "chosen", "rows", "delta == full"], rows,
        notes=[
            f"speedup = full_s / delta_s; chosen = what the manager's "
            f"full_threshold rule ({DECISION_THRESHOLD}) picks at that "
            f"ratio",
            f"claims (delta >= 2x and chosen at 1%, full chosen at 50%) are "
            f"asserted at SF {INCREMENTAL_SCALE_FACTORS[0]}; SF "
            f"{INCREMENTAL_SCALE_FACTORS[1]} is pinned by this table",
        ],
    )
