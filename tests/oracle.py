"""Differential test oracle: fault schedules must be result-invisible.

The paper's fault-tolerance claim (Section 1) is behavioural: because every
MapReduce job checkpoints its output, failures cost *time*, never *answers*.
This module turns that claim into reusable test infrastructure:

* :func:`run_workload` executes one workload query under a given execution
  strategy and config (optionally with an armed
  :class:`~repro.cluster.faults.FaultPlan`);
* :func:`fingerprint` reduces an execution to everything that must be
  *identical* between a faulted and a fault-free run -- result rows, row
  counts and per-block output statistics -- and deliberately excludes
  simulated time, which faults are allowed (expected!) to inflate;
* :func:`fault_matrix` is the standard matrix of adverse schedules every
  future PR can sweep (task flakiness, boundary job kills, node losses of
  materialized outputs, doomed broadcast joins, stragglers, and a chaos
  mix of all of them).

Float values are canonicalized to 6 decimal places: recovery may execute a
different-but-equivalent plan, and floating-point aggregation over a
different arrival order can differ in the last ulps. Row *sets* are
compared (sorted canonical rows): a replanned join may emit the same
multiset in a different file order.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.faults import FaultPlan
from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.dyno import Dyno
from repro.data.tpch import generate_tpch
from repro.workloads.queries import TPCH_WORKLOADS
from repro.workloads.skewed import SKEWED_WORKLOADS, generate_skewed

#: Scale factor for oracle datasets: big enough that Q10/Q2/Q7/Q8' return
#: non-empty results and plans have several joins, small enough that the
#: full query x strategy x plan matrix stays test-suite friendly.
ORACLE_SCALE_FACTOR = 0.1
ORACLE_SEED = 2014

#: The strategy set the acceptance criteria sweep: every Figure 5 dynamic
#: strategy plus all-at-once execution.
ORACLE_STRATEGIES = ("CHEAP-1", "CHEAP-2", "UNC-1", "UNC-2", "ALL")

#: Everything :func:`run_workload` can execute: the paper's TPC-H
#: workloads plus the skewed hot-key workloads (which run against
#: :func:`skewed_oracle_tables`, not the TPC-H dataset).
ORACLE_WORKLOADS = {**TPCH_WORKLOADS, **SKEWED_WORKLOADS}

ORACLE_QUERIES = tuple(sorted(TPCH_WORKLOADS))
SKEWED_ORACLE_QUERIES = tuple(sorted(SKEWED_WORKLOADS))


def oracle_tables():
    """The dataset the oracle runs against (generate once per module)."""
    return generate_tpch(ORACLE_SCALE_FACTOR, seed=ORACLE_SEED).tables


def skewed_oracle_tables():
    """The hot-key dataset for the skew-join sweeps (Zipf(1.2) tail).

    Under the default config its plans contain a skew join, so every
    sweep over :data:`SKEWED_ORACLE_QUERIES` exercises the heavy-key
    side channel, the tail shuffle, and the map-side-output runtime
    path against the same fingerprints as the rest of the oracle.
    """
    return generate_skewed(seed=ORACLE_SEED)


def fault_matrix() -> list[FaultPlan]:
    """The standard adverse schedules (>= 6 distinct plans).

    Covers every injection channel on its own plus one chaos mix:
    - ``task-flaky``: frequent task-attempt failures; occasionally a task
      exhausts its budget, killing the job -> replan/retry recovery.
    - ``job-boundaries``: transient whole-job kills at map/reduce/finalize
      boundaries -> runtime retry with backoff.
    - ``node-loss``: materialized intermediate outputs deleted ->
      provenance-based sub-plan re-execution.
    - ``broadcast-doom``: every broadcast join fails permanently ->
      re-optimization must fall back to repartition joins.
    - ``stragglers``: slowdowns only; never changes results, only time
      (paired with speculative execution in the scheduler tests).
    - ``chaos``: everything at once.
    """
    return [
        FaultPlan(seed=11, name="task-flaky", task_failure_rate=0.25),
        FaultPlan(seed=23, name="job-boundaries", job_failure_rate=0.6,
                  max_job_failures=2),
        FaultPlan(seed=37, name="node-loss", node_loss_rate=0.95,
                  max_node_losses=3),
        FaultPlan(seed=41, name="broadcast-doom",
                  broadcast_failure_rate=1.0),
        FaultPlan(seed=53, name="stragglers", straggler_rate=0.3,
                  straggler_factor=8.0),
        FaultPlan(seed=67, name="chaos", task_failure_rate=0.15,
                  job_failure_rate=0.3, node_loss_rate=0.5,
                  max_node_losses=1, broadcast_failure_rate=0.5,
                  straggler_rate=0.2),
    ]


def plan_named(name: str) -> FaultPlan:
    for plan in fault_matrix():
        if plan.name == name:
            return plan
    raise KeyError(name)


def run_workload(tables, query_name: str, strategy: str = "UNC-1",
                 config: DynoConfig = DEFAULT_CONFIG, mode: str = "dynopt",
                 **execute_kwargs):
    """Execute one workload query end to end; returns ``(dyno, execution)``.

    ``dyno`` is returned alongside the execution so callers can inspect
    the DFS (block output statistics) and the armed fault injector.
    """
    workload = ORACLE_WORKLOADS[query_name]()
    dyno = Dyno(tables, config=config, udfs=workload.udfs)
    if len(workload.stages) > 1:
        execution = dyno.execute_multi(workload.stages, mode=mode,
                                       strategy=strategy, **execute_kwargs)
    else:
        execution = dyno.execute(workload.final_spec, mode=mode,
                                 strategy=strategy, name=query_name,
                                 **execute_kwargs)
    return dyno, execution


def faulted_config(plan: FaultPlan) -> DynoConfig:
    """The default config with ``plan`` armed."""
    config = DEFAULT_CONFIG.with_fault_plan(plan)
    if plan.straggler_rate > 0.0:
        # Stragglers are countered by speculative execution; turning it on
        # exercises the scheduler's backup-copy modeling under the oracle.
        config = replace(
            config, cluster=replace(config.cluster,
                                    speculative_execution=True))
    return config


def canonical_value(value, float_places: int = 6):
    if isinstance(value, float):
        return round(value, float_places)
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(item, float_places) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, canonical_value(item, float_places))
            for key, item in value.items()
        ))
    return value


def canonical_rows(rows, float_places: int = 6):
    """Order-insensitive canonical form of a row multiset."""
    return sorted(
        tuple(sorted((key, canonical_value(value, float_places))
                     for key, value in row.items()))
        for row in rows
    )


def fingerprint(dyno: Dyno, execution) -> dict:
    """Everything that must match between faulted and fault-free runs.

    Result rows, result cardinality, and per-block output statistics
    (row multiset, row count, materialized bytes). Excludes anything
    time-like: makespans, pilot/optimizer seconds, retry backoff -- the
    *only* thing a fault schedule may change.
    """
    blocks = []
    for block_result in execution.block_results:
        output = block_result.output_file
        rows = dyno.dfs.read_all(output)
        blocks.append({
            "block": block_result.block_name,
            "output_rows": canonical_rows(rows),
            "row_count": len(rows),
            "output_bytes": dyno.dfs.file_size(output),
        })
    return {
        "rows": canonical_rows(execution.rows),
        "row_count": len(execution.rows),
        "blocks": blocks,
    }


def fault_visible_diff(baseline: dict, faulted: dict) -> str:
    """Human-readable first difference between two fingerprints, or ''."""
    if baseline == faulted:
        return ""
    if baseline["row_count"] != faulted["row_count"]:
        return (f"result cardinality changed: {baseline['row_count']} "
                f"-> {faulted['row_count']}")
    if baseline["rows"] != faulted["rows"]:
        return "result rows changed"
    for base_block, fault_block in zip(baseline["blocks"],
                                       faulted["blocks"]):
        for key in ("row_count", "output_bytes", "output_rows"):
            if base_block[key] != fault_block[key]:
                return (f"block {base_block['block']!r} statistics "
                        f"changed: {key}")
    return "fingerprints differ"
