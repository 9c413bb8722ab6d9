"""Central configuration for the DYNO reproduction.

One frozen dataclass gathers every knob: the simulated cluster topology
(matching the paper's 15-node deployment, Section 6.1), the analytic time
model constants, the optimizer cost constants from Section 5.2, and the
pilot-run parameters from Section 4.

The defaults reproduce the paper's setup:

* 15 nodes x (10 map + 6 reduce) slots = 140 map / 84 reduce usable slots
  (the paper reports totals of 140 and 84; one node hosts the jobtracker).
* MapReduce job startup cost of ~15 seconds (Section 4.2).
* KMV synopsis size 1024 (worst-case distinct-value error about 6%,
  Section 4.3); the pilot stop count ``k`` is scaled with the downscaled
  data (DESIGN.md Section 5).
* Cost-model ordering ``crep >> cprobe > cbuild > cout`` (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.faults import FaultPlan


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated cluster topology and task-level time model.

    Byte rates are deliberately scaled to the downscaled datasets (DESIGN.md
    Section 2): all reported results are relative, as in the paper.
    """

    nodes: int = 15
    map_slots_per_node: int = 10
    reduce_slots_per_node: int = 6
    #: One node is reserved for the jobtracker, as in the paper's totals.
    worker_nodes: int = 14

    #: DFS block size; tables split into blocks of this many bytes.
    #: (Scaled with the datasets: the paper uses 128 MB blocks on 100 GB+
    #: tables; we keep the same blocks-per-table ratios.)
    block_size_bytes: int = 16 * 1024

    #: --- analytic time model (seconds / bytes-per-second) ---
    #: Rates are scaled to the downscaled datasets so that the *ratios*
    #: match the paper's cluster: one split scan is commensurate with task
    #: startup, a full fact-table scan takes a few waves at large scale
    #: factors, and the 15 s job startup matters exactly as much as it did
    #: on Hadoop 1.1.1 (Sections 4.2, 6.1).
    job_startup_seconds: float = 15.0
    task_startup_seconds: float = 0.5
    #: sequential read from local disk
    read_bytes_per_second: float = 1024.0
    #: write of job output to DFS
    write_bytes_per_second: float = 768.0
    #: shuffle (network + sort/merge) of map output to reducers; the
    #: dominant cost of a repartition join (network hop + external sort)
    shuffle_bytes_per_second: float = 512.0
    #: re-read of a broadcast build file by the tasks of one node; faster
    #: than a cold split read because the datanode's page cache serves
    #: every task after the first
    broadcast_read_bytes_per_second: float = 4096.0
    #: per-record CPU cost of plain map-side processing
    cpu_seconds_per_record: float = 0.00002
    #: extra per-probe cost of the in-memory hash join
    probe_seconds_per_record: float = 0.00001
    #: per-record cost of inserting into a broadcast hash table
    build_seconds_per_record: float = 0.00002
    #: per-output-record cost of online statistics collection (Section 5.4;
    #: shows up as the 0.1%-2.8% overhead of Figure 4)
    stats_seconds_per_record: float = 0.001

    #: memory available to a task for broadcast-join build sides (bytes).
    task_memory_bytes: int = 96 * 1024
    #: degrade-in-place margin: a build side overflowing
    #: ``task_memory_bytes`` by up to this factor spills partitions to the
    #: simulated DFS (hybrid hash join) instead of aborting the job;
    #: beyond it the overflow is a pathological misestimate and still
    #: raises :class:`repro.errors.BroadcastBuildOverflowError` (which the
    #: dynamic executor turns into a ban-and-replan).
    spill_overflow_factor: float = 4.0
    #: cluster-wide memory pool shared by concurrently scheduled jobs
    #: (bytes). 0 derives the pool from the topology:
    #: ``total_map_slots * task_memory_bytes`` -- every map slot can hold
    #: one task-sized working set, as on the real cluster.
    cluster_memory_bytes: int = 0

    #: slot scheduling policy: "fifo" (Hadoop 1.x default, used by the
    #: paper) or "fair" (Section 6.3's future-work experiment).
    scheduler_policy: str = "fifo"

    #: attempt budget per task (Hadoop's mapred.*.max.attempts, default 4).
    #: A task that fails this many times -- failures are injected by an
    #: armed :class:`repro.cluster.faults.FaultPlan` -- kills its job with
    #: :class:`repro.errors.TaskRetriesExhaustedError`.
    max_task_attempts: int = 4
    #: how often the runtime retries a whole job that died from a
    #: *transient* injected fault before giving up.
    max_job_attempts: int = 4
    #: exponential backoff between whole-job retries (simulated seconds,
    #: charged as extra startup time in the slot schedule):
    #: ``min(base * 2**(attempt-1), cap)``.
    job_retry_backoff_seconds: float = 4.0
    job_retry_backoff_cap_seconds: float = 64.0
    #: launch speculative backup copies of straggling tasks (Hadoop's
    #: speculative execution). Off by default, matching the paper's
    #: Hadoop 1.1.1 setup; the fault-injection tests turn it on.
    speculative_execution: bool = False
    #: a task is a straggler candidate once its duration exceeds this
    #: multiple of the job's median task duration.
    speculative_slowdown_threshold: float = 3.0

    @property
    def total_map_slots(self) -> int:
        return self.worker_nodes * self.map_slots_per_node

    @property
    def total_reduce_slots(self) -> int:
        return self.worker_nodes * self.reduce_slots_per_node

    @property
    def effective_cluster_memory_bytes(self) -> int:
        """The scheduler's memory pool: explicit, or slots x task memory."""
        if self.cluster_memory_bytes > 0:
            return self.cluster_memory_bytes
        return self.total_map_slots * self.task_memory_bytes


@dataclass(frozen=True)
class OptimizerConfig:
    """Cost constants of Section 5.2 and search controls.

    The paper requires ``crep >> cprobe > cbuild > cout`` so broadcast joins
    win whenever the build side fits in memory.
    """

    crep: float = 10.0
    cprobe: float = 1.0
    cbuild: float = 0.5
    cout: float = 0.25
    #: fixed cost per MapReduce job (startup + scheduling). The paper's
    #: formulas omit it -- negligible at cluster scale -- but at simulation
    #: scale it breaks ties between one chained job and a cascade of tiny
    #: jobs exactly like the real ~15 s job startup does (Section 4.2).
    cjob: float = 20000.0
    #: memory budget Mmax used by the broadcast and chain rules (bytes).
    max_broadcast_bytes: int = 96 * 1024
    #: headroom applied to estimated build sizes before declaring them
    #: broadcast-safe (guards against mild underestimation; a broadcast
    #: build that overflows at runtime aborts the query, Section 2.2.1).
    #: DYNO can afford a small margin because its leaf estimates come from
    #: pilot runs; conservative optimizers use a much larger one
    #: (see repro.core.baselines.RELOPT_SAFETY_FACTOR).
    broadcast_safety_factor: float = 1.3
    #: per-byte cost of spilling one partitioned byte to disk and reading
    #: it back (hybrid hash join). Sits between ``cprobe`` and ``crep`` so
    #: a marginally oversized build degrades to a spilling hash join
    #: rather than a full repartition, but spilling *everything* never
    #: beats the repartition join.
    cspill: float = 4.0
    #: how far past ``Mmax`` a build side may be (estimated, after the
    #: safety factor) for the spillable hybrid hash join to stay
    #: applicable. Matches the runtime's degrade-in-place margin
    #: (:attr:`ClusterConfig.spill_overflow_factor`).
    spill_margin_factor: float = 4.0
    #: consider the skew-aware join (heavy keys broadcast map-side, tail
    #: repartitioned). It can only ever beat a repartition join -- a plain
    #: broadcast always costs less where it applies -- so disabling it
    #: exactly restores the pre-skew plan space.
    enable_skew_rule: bool = True
    #: a join-key value is a heavy hitter when its sampled frequency is at
    #: least this fraction of the probe side. 0.1 sits well above every
    #: TPC-H foreign-key frequency at our test scales (those are uniform)
    #: while catching any genuinely hot key.
    skew_key_fraction: float = 0.1
    #: minimum combined probe fraction of the selected heavy keys for the
    #: skew join to be worth a broadcast side channel at all.
    skew_min_probe_fraction: float = 0.2
    #: at most this many heavy keys ride the side channel (also bounded by
    #: the statistics layer's HEAVY_HITTER_K).
    skew_max_keys: int = 8
    #: abandon plans whose cost exceeds the best found so far (B&B pruning).
    enable_pruning: bool = True
    #: apply the broadcast-chain rule (Section 5.2). Disabling it makes
    #: every broadcast join its own map-only job, as stock Jaql would
    #: without the chain rewrite -- used by the ablation benchmark.
    enable_chain_rule: bool = True


@dataclass(frozen=True)
class PilotConfig:
    """Pilot-run parameters (Section 4)."""

    #: records to collect per relation before stopping the pilot job.
    #: (The paper uses k=1024 on tables ~1000x larger; k scales with the
    #: downscaled data so a pilot run touches the same *fraction* of a
    #: selective relation as in the paper. The first wave of sampled
    #: splits always completes, so typical sample sizes stay much larger
    #: than k.)
    k_records: int = 64
    #: KMV synopsis size (Section 4.3; k=1024 -> ~6% DV error bound).
    kmv_size: int = 1024
    #: fraction of a relation scanned beyond which a nearly-complete pilot
    #: job is allowed to run to completion so its output can be reused
    #: (Section 4.1, "Optimization for selective predicates").
    reuse_completion_threshold: float = 0.8
    #: random seed for split sampling.
    seed: int = 42


@dataclass(frozen=True)
class DynoConfig:
    """Top-level configuration bundle."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    pilot: PilotConfig = field(default_factory=PilotConfig)
    #: execution backend: "jaql" (build loaded per task) or "hive"
    #: (DistributedCache: build loaded once per node). Section 6.6.
    backend: str = "jaql"
    #: the re-optimization condition (Section 5.1) as a q-error: after a
    #: round of jobs, with jobs of the compiled graph still pending, the
    #: executor re-optimizes iff some executed job's
    #: ``max(q_error(rows), q_error(bytes))`` reached this value. ``1.0``
    #: (every estimate "misses") is the paper's re-optimize-after-every-
    #: job policy; a finite value above it re-optimizes only on a
    #: surprise; ``inf`` never re-optimizes voluntarily (what
    #: ``mode="simple"`` sets for its block).
    reoptimization_qerror_threshold: float = 1.0
    #: armed fault schedule, or None (the default: no fault machinery on
    #: the hot path at all). See :class:`repro.cluster.faults.FaultPlan`.
    fault_plan: "FaultPlan | None" = None
    #: how many times the dynamic executor may replan around a permanent
    #: job failure (e.g. a doomed broadcast join) before re-raising.
    max_recovery_replans: int = 8

    def __post_init__(self) -> None:
        if not self.reoptimization_qerror_threshold >= 1.0:
            raise ValueError(
                "reoptimization_qerror_threshold is a q-error: it must be "
                ">= 1.0 (1.0 means a perfect estimate)")

    def with_backend(self, backend: str) -> "DynoConfig":
        if backend not in ("jaql", "hive"):
            raise ValueError(f"unknown backend: {backend!r}")
        return replace(self, backend=backend)

    def with_memory(self, task_memory_bytes: int | None = None,
                    cluster_memory_bytes: int | None = None,
                    ) -> "DynoConfig":
        """Config with the memory budgets changed coherently.

        ``task_memory_bytes`` is the paper's ``Mmax``: it gates both the
        runtime's build-side check and the optimizer's broadcast/chain
        rules, so the two must move together -- this helper is the only
        supported way to change either.
        """
        cluster = self.cluster
        optimizer = self.optimizer
        if task_memory_bytes is not None:
            if task_memory_bytes <= 0:
                raise ValueError("task_memory_bytes must be positive")
            cluster = replace(cluster, task_memory_bytes=task_memory_bytes)
            optimizer = replace(optimizer,
                                max_broadcast_bytes=task_memory_bytes)
        if cluster_memory_bytes is not None:
            if cluster_memory_bytes < 0:
                raise ValueError("cluster_memory_bytes must be >= 0")
            cluster = replace(cluster,
                              cluster_memory_bytes=cluster_memory_bytes)
        return replace(self, cluster=cluster, optimizer=optimizer)

    def with_fault_plan(self, plan: "FaultPlan | None") -> "DynoConfig":
        """Config with a fault schedule armed (or disarmed with None)."""
        if plan is not None:
            from repro.cluster.faults import FaultPlan
            if not isinstance(plan, FaultPlan):
                raise ValueError(
                    f"fault_plan must be a FaultPlan, got "
                    f"{type(plan).__name__}")
        return replace(self, fault_plan=plan)


DEFAULT_CONFIG = DynoConfig()
