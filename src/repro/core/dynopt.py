"""DYNOPT: dynamic plan execution with re-optimization (Alg. 2, Section 5).

One loop serves every way a job graph gets executed: obtain a plan
(cost-based optimization of the remaining join block, or a plan or job
the caller fixed), compile it to a MapReduce job graph, execute the jobs
the execution strategy picks, substitute the executed sub-plans by
intermediate leaves, and -- where an executed job's estimate missed by at
least ``DynoConfig.reoptimization_qerror_threshold`` while jobs of the
graph are still pending -- go back for a new plan.

``mode="simple"`` gives DYNOPT-SIMPLE (Section 6.1): that loop with the
threshold at ``inf`` for the block. Everything else follows from there:
no statistics are collected (nothing would read them), and a strategy of
unbounded parallelism (SIMPLE_MO) gets the whole graph as one batch,
because no re-optimization point can split it. Static-plan replay and
the post-join GROUP BY job are the same loop over a fixed graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from repro.cluster.job import MapReduceJob
from repro.cluster.runtime import ClusterRuntime, JobResult
from repro.config import DynoConfig
from repro.errors import (
    BroadcastBuildOverflowError,
    JobFaultInjectedError,
    PlanError,
    StorageError,
    TaskRetriesExhaustedError,
)
from repro.feedback.keys import (
    BlockFeedbackContext,
    block_feedback_context,
    canonical_block_key,
    group_key,
)
from repro.jaql.blocks import JoinBlock
from repro.jaql.compiler import CompiledJob, JobGraph, PlanCompiler
from repro.obs.metrics import q_error
from repro.optimizer.plans import PhysicalNode, plan_signature, render_plan
from repro.optimizer.search import JoinOptimizer
from repro.stats.collector import stats_scope
from repro.stats.metastore import StatisticsMetastore
from repro.stats.statistics import TableStats
from repro.core.pilot import (
    PilotReport,
    PilotRunner,
    composite_join_columns,
    predicate_columns,
)
from repro.core.strategies import ExecutionStrategy, strategy_named

MODE_DYNOPT = "dynopt"
MODE_SIMPLE = "simple"

#: failures the dynamic loop treats as *permanent* for the failing plan:
#: the job cannot succeed as compiled, so the executor replans around it
#: (Section 1's "route around the failure" argument) instead of aborting.
PERMANENT_JOB_FAILURES = (
    TaskRetriesExhaustedError,
    BroadcastBuildOverflowError,
    JobFaultInjectedError,
)


@dataclass
class _RecoveryState:
    """Per-block recovery bookkeeping for the dynamic executor."""

    #: alias sets whose broadcast join failed permanently; fed back into
    #: the optimizer so replanning falls back to repartition joins.
    banned_broadcast: frozenset = frozenset()
    #: replans consumed against ``DynoConfig.max_recovery_replans``.
    replans: int = 0
    #: materialized output -> the job that produced it. Node-loss recovery
    #: re-runs exactly this sub-plan (transitively through lost inputs).
    provenance: dict[str, MapReduceJob] = field(default_factory=dict)


@dataclass(frozen=True)
class _Planned:
    """One compiled plan, as the rounds that execute it record it."""

    graph: JobGraph
    signature: str = ""
    text: str = ""
    cost: float = 0.0
    optimizer_seconds: float = 0.0


@dataclass
class IterationRecord:
    """One optimize-execute round."""

    index: int
    plan_signature: str
    plan_text: str
    estimated_cost: float
    jobs_executed: list[str]
    makespan_seconds: float
    optimizer_seconds: float
    collected_statistics: bool
    #: output records that passed through statistics collectors this
    #: iteration (drives the Figure 4 stats-collection overhead report).
    stats_records: int = 0


@dataclass
class BlockExecutionResult:
    """Everything measured while executing one join block."""

    block_name: str
    mode: str
    output_file: str = ""
    iterations: list[IterationRecord] = field(default_factory=list)
    plans: list[PhysicalNode] = field(default_factory=list)
    pilot: PilotReport | None = None
    #: simulated time components (seconds).
    pilot_seconds: float = 0.0
    optimizer_seconds: float = 0.0
    execution_seconds: float = 0.0
    #: --- fault recovery bookkeeping (empty on fault-free runs) ---
    #: jobs re-executed because a node loss deleted their output.
    recovered_jobs: list[str] = field(default_factory=list)
    #: materialized outputs deleted by injected node-loss events.
    lost_outputs: list[str] = field(default_factory=list)
    #: permanent job failures the executor replanned around.
    replanned_failures: list[str] = field(default_factory=list)
    #: re-optimization triggers that fired: a job whose estimate audit
    #: reached the re-optimization q-error threshold while jobs of its
    #: graph were still pending (every such job, under the default 1.0).
    midjob_replans: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.pilot_seconds + self.optimizer_seconds + self.execution_seconds

    @property
    def reoptimization_count(self) -> int:
        """Optimizer invocations beyond the first."""
        return max(0, len(self.iterations) - 1)

    @property
    def plan_changes(self) -> int:
        """How many re-optimizations actually changed the plan shape."""
        changes = 0
        for before, after in zip(self.iterations, self.iterations[1:]):
            if before.plan_signature != after.plan_signature:
                changes += 1
        return changes


class DynoptExecutor:
    """Executes join blocks, static plans and stage jobs: one loop."""

    def __init__(self, runtime: ClusterRuntime,
                 metastore: StatisticsMetastore, config: DynoConfig):
        self.runtime = runtime
        self.metastore = metastore
        self.config = config
        self.tracer = runtime.tracer
        self.metrics = runtime.metrics
        self.pilot_runner = PilotRunner(runtime, metastore, config)
        #: optional cross-query plan cache, installed by the service layer
        #: (see :mod:`repro.service.plan_cache`). None = always optimize.
        self.plan_cache = None
        #: optional workload feedback store (see :mod:`repro.feedback`),
        #: installed by :class:`repro.core.dyno.Dyno`. None = no learning:
        #: estimates, plans and pilot sizing match the paper's behaviour.
        self.feedback = None

    # -- public ---------------------------------------------------------------------

    def execute_block(
        self,
        block: JoinBlock,
        mode: str = MODE_DYNOPT,
        strategy: ExecutionStrategy | str = "UNC-1",
        pilot_mode: str = "MT",
        run_pilots: bool = True,
        reuse_statistics: bool = True,
        leaf_stats_override: dict[str, TableStats] | None = None,
        collect_column_stats: bool = True,
    ) -> BlockExecutionResult:
        """Run one join block to completion; returns timings and plans.

        ``leaf_stats_override`` bypasses pilot runs with caller-provided
        leaf statistics (used by the RELOPT baseline).
        """
        if mode not in (MODE_DYNOPT, MODE_SIMPLE):
            raise PlanError(f"unknown execution mode: {mode!r}")
        if isinstance(strategy, str):
            strategy = strategy_named(strategy)

        result = BlockExecutionResult(block.name, mode)

        with self.tracer.span("block", block=block.name, mode=mode,
                              strategy=strategy.name) as span:
            if leaf_stats_override is not None:
                for signature, stats in leaf_stats_override.items():
                    self.metastore.put(signature, stats)
            elif run_pilots:
                report = self.pilot_runner.run(
                    block, mode=pilot_mode,
                    reuse_statistics=reuse_statistics
                )
                result.pilot = report
                result.pilot_seconds = report.simulated_seconds
                block = self._apply_reusable_outputs(block, report)

            self._run(
                block.name, strategy, result, block=block,
                threshold=(inf if mode == MODE_SIMPLE
                           else self.config.reoptimization_qerror_threshold),
                collect_column_stats=collect_column_stats,
            )
            span.set(
                iterations=len(result.iterations),
                sim_total_s=round(result.total_seconds, 6),
                replans=len(result.replanned_failures),
                recovered_jobs=len(result.recovered_jobs),
            )
        return result

    def execute_physical_plan(
        self,
        block: JoinBlock,
        plan: PhysicalNode,
        strategy: ExecutionStrategy | str = "SIMPLE_MO",
        estimated_cost: float | None = None,
        label: str = "plan",
    ) -> BlockExecutionResult:
        """Execute a caller-provided physical plan without optimization.

        Used by the baselines (BESTSTATICJAQL hand-written plans, RELOPT
        plans "hand-coded to a Jaql script", Section 6.1).
        """
        if isinstance(strategy, str):
            strategy = strategy_named(strategy)
        result = BlockExecutionResult(block.name, MODE_SIMPLE)
        result.plans.append(plan)
        fixed = self._compile(
            block.name, label, plan,
            estimated_cost if estimated_cost is not None else plan.cost,
        )
        self._run(block.name, strategy, result, block=block, fixed=fixed)
        return result

    def execute_stage_job(self, compiled: CompiledJob,
                          name: str) -> BlockExecutionResult:
        """Run one post-join stage job (a compiled GROUP BY).

        There is no join block behind it -- nothing to substitute, audit
        or re-optimize -- but submission, the trace records and the
        resubmission of a job whose tasks exhausted their retries are the
        loop's, like any other job's.
        """
        result = BlockExecutionResult(name, MODE_SIMPLE)
        graph = JobGraph([compiled], compiled.job.output_name)
        self._run(name, strategy_named("SIMPLE_SO"), result,
                  fixed=_Planned(graph))
        return result

    # -- the loop ---------------------------------------------------------------------

    def _run(self, name: str, strategy: ExecutionStrategy,
             result: BlockExecutionResult,
             block: JoinBlock | None = None,
             fixed: _Planned | None = None,
             threshold: float = inf,
             collect_column_stats: bool = True) -> None:
        """The optimize-compile-execute-substitute loop of Algorithm 2.

        Three inputs set every variant apart. The *plan source*: with
        ``fixed`` None the optimizer plans what remains of ``block`` each
        time round (jobs compile under ``<name>.it<iteration>``, or
        ``.s<iteration>`` when nothing will be re-optimized); otherwise the caller's compiled plan or job is all there is. The
        *strategy* picks the jobs of a round. The *threshold* is Section
        5.1's re-optimization condition as a q-error: after a round, with
        jobs of the graph still pending, the loop goes back to the plan
        source iff some executed job's ``max(q_error(rows),
        q_error(bytes))`` reached it. ``1.0`` is the paper's every-job
        policy; at ``inf`` nothing can fire, so no statistics are
        collected, and a strategy of unbounded parallelism gets the
        whole remaining graph, dependencies included, as one batch.

        This loop is also where failures recover (Section 1: materialized
        checkpoints make re-optimization fault-tolerant). A *permanent*
        job failure (task retries exhausted, broadcast build overflow)
        goes back to the plan source: the optimizer replans what remains
        with the failed broadcast's alias set banned, so the new plan
        repartitions that join; a fixed graph resubmits its unfinished
        jobs -- unless the failed job is a broadcast join, which no
        resubmission can save, so the failure re-raises. A *lost*
        intermediate relation (node loss) is rebuilt by re-running just
        its producing sub-plan, found through the provenance map.
        """
        recovery = _RecoveryState()
        iteration = 0
        tag = "s" if threshold == inf else "it"
        # Learned corrections describe this optimizer's estimates; a plan
        # costed elsewhere must not teach the store. The snapshot is taken
        # before any substitution: keys use the original block's shape.
        feedback_context = (block_feedback_context(block)
                            if fixed is None and self.feedback is not None
                            else None)
        planned, planned_block, completed = fixed, block, set()
        while True:
            if fixed is None:
                optimization = self._optimize(
                    block, recovery.banned_broadcast, iteration=iteration,
                    feedback_context=feedback_context)
                result.optimizer_seconds += optimization.simulated_seconds
                result.plans.append(optimization.plan)
                planned = self._compile(
                    name, f"{tag}{iteration}", optimization.plan,
                    optimization.cost, optimization.simulated_seconds,
                    iteration)
                planned_block, completed = block, set()
            graph = planned.graph
            while len(completed) < graph.job_count:
                ready = graph.leaf_jobs(completed)
                if not ready:
                    raise PlanError(
                        f"no ready jobs in {name!r} "
                        f"(graph: {graph.describe()})"
                    )
                dependencies = None
                if threshold == inf and strategy.parallelism is None \
                        and not recovery.replans:
                    # No re-optimization point can split the graph and the
                    # strategy overlaps all it is given: one batch. (Only
                    # while nothing has failed -- a failed batch returns no
                    # results, so from then on every round is a checkpoint.)
                    chosen = [compiled for compiled in graph.jobs
                              if compiled.name not in completed]
                    dependencies = {
                        compiled.name: [dep for dep in compiled.depends_on
                                        if dep not in completed]
                        for compiled in chosen
                    }
                else:
                    chosen = strategy.choose(ready)
                # Statistics are for the next optimization: none follows
                # the graph's last round, or any round at ``inf``.
                collect = threshold != inf and \
                    len(completed) + len(chosen) < graph.job_count
                if collect and collect_column_stats:
                    for compiled in chosen:
                        compiled.job.stats_columns = self._stats_columns(
                            block, chosen, compiled
                        )

                jobs = [compiled.job for compiled in chosen]
                try:
                    # Re-running a lost input's producer can fail for good
                    # like any other job.
                    self._ensure_relations(self._required_inputs(jobs),
                                           recovery, result)
                    with self.tracer.span(
                        "execute", block=name, iteration=iteration,
                        jobs=[c.name for c in chosen],
                    ) as span:
                        batch = self.runtime.execute_batch(jobs,
                                                           dependencies)
                        span.set(makespan_s=round(batch.makespan, 6))
                except PERMANENT_JOB_FAILURES as failure:
                    self._replan_around_failure(failure, chosen, recovery,
                                                result,
                                                replannable=fixed is None)
                    break  # back to the plan source; nothing was folded in
                result.execution_seconds += batch.makespan
                result.iterations.append(IterationRecord(
                    index=iteration,
                    plan_signature=planned.signature,
                    plan_text=planned.text,
                    estimated_cost=planned.cost,
                    jobs_executed=[c.name for c in chosen],
                    makespan_seconds=batch.makespan,
                    optimizer_seconds=(planned.optimizer_seconds
                                       if not completed else 0.0),
                    collected_statistics=collect,
                    stats_records=sum(
                        batch[c.name].output_rows for c in chosen
                        if c.job.stats_columns
                    ),
                ))
                completed.update(c.name for c in chosen)
                fired: list[tuple[str, float]] = []
                if block is not None:
                    for compiled in chosen:
                        job_result = batch[compiled.name]
                        if feedback_context is not None:
                            self._ingest_feedback(feedback_context,
                                                  planned_block, compiled,
                                                  job_result)
                        recovery.provenance[compiled.job.output_name] = \
                            compiled.job
                        block = self._substitute(block, compiled,
                                                 job_result)
                        missed_by = self._audit_estimate(
                            compiled, job_result, iteration, threshold)
                        if missed_by is not None:
                            fired.append((compiled.name, missed_by))
                    # A node loss may eat any freshly materialized output;
                    # recovery happens lazily, when something needs it again.
                    self._inject_node_losses(jobs, result)
                iteration += 1
                if fired and len(completed) < graph.job_count:
                    # Re-optimization point: abandon the rest of this graph
                    # and plan again with the fresh statistics (the block
                    # substitutions above checkpoint everything executed).
                    for job_name, worst in fired:
                        result.midjob_replans.append(job_name)
                        if self.tracer.enabled:
                            self.tracer.event(
                                "midjob_replan", job=job_name,
                                q_error=round(worst, 6),
                                threshold=threshold,
                            )
                        if self.metrics.enabled:
                            self.metrics.inc("dynopt.midjob_replans")
                    break
            else:
                self._ensure_relations([graph.final_output], recovery,
                                       result)
                result.output_file = graph.final_output
                return

    def _compile(self, name: str, label: str, plan: PhysicalNode,
                 cost: float, optimizer_seconds: float = 0.0,
                 iteration: int = 0) -> _Planned:
        compiler = PlanCompiler(self.runtime.dfs, self.config,
                                f"{name}.{label}")
        graph = compiler.compile_block(plan)
        if self.tracer.enabled:
            self.tracer.event("compile", block=name, iteration=iteration,
                              jobs=graph.job_count, trivial=graph.trivial)
        return _Planned(graph, plan_signature(plan), render_plan(plan),
                        cost, optimizer_seconds)

    # -- fault recovery ---------------------------------------------------------------

    def _replan_around_failure(self, failure: Exception,
                               chosen: list[CompiledJob],
                               recovery: _RecoveryState,
                               result: BlockExecutionResult,
                               replannable: bool) -> None:
        """A job of the current graph failed permanently: plan around it.

        The executed part of the block is already substituted (its
        checkpoints are safe in the DFS); only what *remains* runs again.
        A failed broadcast join additionally bans its alias set, so the
        optimizer's next plan repartitions that join instead -- the
        paper's "re-optimization routes around the failure". A fixed
        graph (``replannable`` False) cannot honour a ban, so there the
        failed broadcast re-raises.
        """
        recovery.replans += 1
        job_name = getattr(failure, "job_name", "")
        failed = next((c for c in chosen if c.name == job_name), None)
        banned_now = failed is not None and failed.job.is_broadcast_join
        if recovery.replans > self.config.max_recovery_replans \
                or (banned_now and not replannable):
            raise failure
        if banned_now:
            recovery.banned_broadcast = recovery.banned_broadcast | \
                {frozenset(failed.output_aliases)}
        result.replanned_failures.append(
            f"{job_name or '<batch>'}: {type(failure).__name__}")
        if self.tracer.enabled:
            self.tracer.event(
                "replan",
                job=job_name or "<batch>",
                error=type(failure).__name__,
                replans=recovery.replans,
                banned_broadcast=(sorted(failed.output_aliases)
                                  if banned_now else []),
            )
        self.metrics.inc("dynopt.replans")
        # The dead batch may have published partial statistics; replanned
        # jobs can reuse the same names and must publish from scratch.
        for compiled in chosen:
            self.runtime.coordination.clear_scope(
                stats_scope(compiled.job.name))

    def _inject_node_losses(self, jobs: list[MapReduceJob],
                            result: BlockExecutionResult) -> None:
        """Let the armed fault plan delete freshly materialized outputs."""
        injector = self.runtime.fault_injector
        if injector is None:
            return
        lost = injector.lose_outputs([job.output_name for job in jobs])
        for name in lost:
            self.runtime.dfs.delete_if_exists(name)
            result.lost_outputs.append(name)

    def _required_inputs(self, jobs: list[MapReduceJob]) -> list[str]:
        """Relations ``jobs`` read that must already be materialized."""
        produced = {job.output_name for job in jobs}
        names: list[str] = []
        for job in jobs:
            names.extend(job.inputs)
            names.extend(build.input_file for build in job.broadcast_builds)
        return [name for name in names if name not in produced]

    def _ensure_relations(self, names: list[str],
                          recovery: _RecoveryState,
                          result: BlockExecutionResult) -> None:
        """Re-materialize any of ``names`` a node loss deleted."""
        for name in names:
            if not self.runtime.dfs.exists(name):
                self._recover_relation(name, recovery, result)

    def _recover_relation(self, name: str, recovery: _RecoveryState,
                          result: BlockExecutionResult) -> None:
        """Re-run the sub-plan that produced the lost relation ``name``.

        Recurses through lost upstream inputs first, so exactly the lost
        part of the lineage re-executes -- never the whole query (the
        checkpointing argument of Section 1). Outputs are considered for
        node loss at most once per run, so recovery always terminates.
        """
        producer = recovery.provenance.get(name)
        if producer is None:
            raise StorageError(
                f"lost relation {name!r} has no recorded producer; "
                f"cannot recover")
        self._ensure_relations(self._required_inputs([producer]),
                               recovery, result)
        with self.tracer.span("recover", relation=name,
                              job=producer.name) as span:
            batch = self.runtime.execute_batch([producer])
            span.set(makespan_s=round(batch.makespan, 6))
        result.execution_seconds += batch.makespan
        result.recovered_jobs.append(producer.name)
        self.metrics.inc("dynopt.recovered_jobs")

    def _audit_estimate(self, compiled: CompiledJob, job_result: JobResult,
                        iteration: int, threshold: float) -> float | None:
        """Record estimated-vs-actual for one executed sub-plan.

        The q-error per executed job is the paper's core feedback signal
        (observed statistics replacing estimates); surfacing it is what
        makes a DYNOPT replan explainable from a trace. Returns the job's
        worst q-error when it reached ``threshold`` -- the estimate
        *missed*, which is the one re-optimization condition -- else None.
        """
        rows_q = q_error(compiled.estimated_rows, job_result.output_rows)
        bytes_q = q_error(compiled.estimated_bytes, job_result.output_bytes)
        worst = max(rows_q, bytes_q)
        missed = worst >= threshold
        tracer = self.tracer
        metrics = self.metrics
        if tracer.enabled:
            tracer.event(
                "estimate",
                job=compiled.name,
                iteration=iteration,
                joins=compiled.join_count,
                estimated_rows=round(compiled.estimated_rows, 3),
                actual_rows=job_result.output_rows,
                estimated_bytes=round(compiled.estimated_bytes, 3),
                actual_bytes=job_result.output_bytes,
                q_error_rows=round(rows_q, 6),
                q_error_bytes=round(bytes_q, 6),
                missed=missed,
            )
        if metrics.enabled:
            metrics.observe("qerror.rows", rows_q)
            metrics.observe("qerror.bytes", bytes_q)
            metrics.inc("dynopt.subplans_executed")
            if missed:
                metrics.inc("dynopt.estimate_misses")
        return worst if missed else None

    def _ingest_feedback(self, context: BlockFeedbackContext,
                         block: JoinBlock, compiled: CompiledJob,
                         job_result: JobResult) -> None:
        """Feed one executed job's estimate audit into the feedback store.

        Only join results are learnable: leaf-only and stage jobs carry
        no cardinality-model estimate (their rows/bytes come straight
        from statistics or are unestimated), so correcting them would
        poison unrelated keys.
        """
        if compiled.join_count < 1 or not compiled.output_aliases:
            return
        if compiled.estimated_rows <= 0.0:
            return
        key = group_key(context, block, compiled.output_aliases)
        if key is None:
            return
        identity = tuple(sorted(
            (alias, context.alias_identity[alias])
            for alias in compiled.output_aliases
        ))
        escalated = self.feedback.ingest(
            key, identity,
            estimated_rows=compiled.estimated_rows,
            actual_rows=float(job_result.output_rows),
            estimated_bytes=compiled.estimated_bytes,
            actual_bytes=float(job_result.output_bytes),
        )
        if escalated and self.tracer.enabled:
            self.tracer.event(
                "feedback_escalate",
                job=compiled.name,
                signatures=sorted(escalated),
            )

    # -- helpers --------------------------------------------------------------------------

    def _optimize(self, block: JoinBlock,
                  banned_broadcast: frozenset = frozenset(),
                  iteration: int = 0,
                  feedback_context: BlockFeedbackContext | None = None,
                  leaf_stats: dict[str, TableStats] | None = None,
                  record: bool = True):
        """The one planning call: corrections and bans applied.

        ``record`` False plans without leaving a trace in the plan cache
        or the feedback store's choice log (``Dyno.explain``: explaining
        must not teach); ``leaf_stats`` replaces the metastore's.
        """
        if leaf_stats is None:
            leaf_stats = self._leaf_stats(block)
        feedback = self.feedback
        # Learned corrections change this block's estimates without
        # changing the statistics; salting the fingerprint keeps plans
        # cached under other correction states from resurfacing.
        salt = ""
        if feedback is not None and feedback_context is not None:
            salt = feedback.correction_token(
                feedback_context.alias_identity)
        # Recovery replans carry banned broadcasts that are not part of the
        # cache key; bypass the cache entirely on that (rare) path.
        cache = self.plan_cache if record and not banned_broadcast else None
        if cache is not None:
            cached = cache.lookup(block, leaf_stats, salt=salt)
            if self.tracer.enabled:
                self.tracer.event("plan_cache", block=block.name,
                                  iteration=iteration,
                                  hit=cached is not None)
            if cached is not None:
                if self.metrics.enabled:
                    self.metrics.inc("plan_cache.hits")
                if feedback is not None:
                    feedback.record_choice(canonical_block_key(block),
                                           plan_signature(cached.plan),
                                           cached.cost)
                return cached
            if self.metrics.enabled:
                self.metrics.inc("plan_cache.misses")
        optimizer = JoinOptimizer(block, leaf_stats, self.config.optimizer,
                                  banned_broadcast=banned_broadcast,
                                  feedback=feedback,
                                  feedback_context=feedback_context)
        with self.tracer.span("optimize", block=block.name,
                              iteration=iteration,
                              leaves=len(block.leaves),
                              banned_broadcasts=len(banned_broadcast),
                              ) as span:
            optimization = optimizer.optimize()
            span.set(
                cost=round(optimization.cost, 3),
                plans_considered=optimization.plans_considered,
                sim_s=round(optimization.simulated_seconds, 6),
                plan=plan_signature(optimization.plan),
            )
        if self.metrics.enabled:
            self.metrics.inc("dynopt.optimizations")
            self.metrics.observe("optimizer.sim_s",
                                 optimization.simulated_seconds)
        if cache is not None:
            cache.store(block, leaf_stats, optimization.plan,
                        optimization.cost, salt=salt)
        if record and feedback is not None:
            feedback.record_choice(canonical_block_key(block),
                                   plan_signature(optimization.plan),
                                   optimization.cost)
        return optimization

    def _leaf_stats(self, block: JoinBlock) -> dict[str, TableStats]:
        stats: dict[str, TableStats] = {}
        for leaf in block.leaves:
            signature = leaf.signature()
            entry = self.metastore.get(signature)
            if entry is None:
                raise PlanError(
                    f"no statistics for leaf {leaf.describe()}; run pilots "
                    f"or provide leaf_stats_override"
                )
            stats[signature] = entry
        return stats

    def _apply_reusable_outputs(self, block: JoinBlock,
                                report: PilotReport) -> JoinBlock:
        """Selective-predicate optimization (Section 4.1): pilot outputs
        covering the whole relation replace their leaf."""
        for leaf in block.base_leaves():
            outcome = report.outcomes.get(leaf.signature())
            if outcome is None or outcome.reusable_output is None:
                continue
            if outcome.alias not in leaf.aliases:
                # Self-joins share one pilot run per signature, but its
                # output rows are qualified under the alias that ran it.
                continue
            if len(block.leaves) == 1:
                continue  # keep the final job; nothing to substitute into
            self.metastore.put(
                f"intermediate:{outcome.reusable_output}", outcome.stats
            )
            block = block.substitute(
                leaf.aliases, outcome.reusable_output, (),
                provenance=leaf.signature(),
            )
        return block

    def _stats_columns(self, block: JoinBlock, chosen: list[CompiledJob],
                       job: CompiledJob) -> list[str]:
        """Columns of this job's output needed to re-optimize the remainder
        (Section 5.4: only attributes in still-unexecuted join conditions)."""
        executed_sets = [compiled.output_aliases for compiled in chosen]
        applied: set = set()
        for compiled in chosen:
            applied.update(compiled.applied_predicates)
        columns: set[str] = set()
        for condition in block.conditions:
            if any(condition.aliases() <= aliases for aliases in executed_sets):
                continue  # evaluated inside an executed job
            for ref in (condition.left, condition.right):
                if ref.alias in job.output_aliases:
                    columns.add(ref.qualified)
        for predicate in block.non_local_predicates:
            if predicate in applied:
                continue
            if predicate.references() & job.output_aliases:
                columns.update(
                    predicate_columns(predicate, job.output_aliases)
                )
        columns.update(composite_join_columns(block, job.output_aliases))
        return sorted(columns)

    def _substitute(self, block: JoinBlock, compiled: CompiledJob,
                    job_result: JobResult) -> JoinBlock:
        output = job_result.output_name
        stats = job_result.collected_stats
        if stats is None:
            stats = TableStats(
                float(job_result.output_rows),
                float(job_result.output_bytes),
                exact=True,
            )
        else:
            stats = TableStats(
                float(job_result.output_rows),
                float(job_result.output_bytes),
                dict(stats.columns),
                exact=True,
            )
        self.metastore.put(f"intermediate:{output}", stats)
        if self.tracer.enabled:
            self.tracer.event(
                "substitute",
                job=compiled.name,
                output=output,
                aliases=sorted(compiled.output_aliases),
                rows=job_result.output_rows,
                collected_columns=sorted(stats.columns),
            )
        return block.substitute(
            compiled.output_aliases, output, compiled.applied_predicates
        )
