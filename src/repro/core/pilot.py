"""Pilot runs: the PILR algorithm (paper Section 4, Algorithm 1).

For each base leaf of a join block (scan + local predicates/UDFs), a
map-only job runs over a sample of the relation until ``k`` output records
exist, and statistics over the output are collected and extrapolated to the
full relation. Two execution modes are reproduced:

* **PILR_ST** -- leaf jobs submitted one after another; each starts (at
  least) a first wave of map tasks over the relation's splits in file
  order, a ZooKeeper-backed global counter tracks emitted records, and no
  new task starts once the counter passes ``k`` (started tasks finish their
  whole block, avoiding the inspection paradox of Section 4.2);
* **PILR_MT** -- all leaf jobs submitted together, each over ``m/|R|``
  randomly reservoir-sampled splits, growing the sample on demand when
  ``k`` records are not reached. Its runtime depends only on the sample
  size, not on the relation size (Table 1).

Reuse (Section 4.1): statistics are looked up by leaf signature before any
job runs, and when a selective leaf consumes (almost) the whole relation the
pilot job is run to completion so its output file can replace the leaf in
the actual query execution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.job import BatchEmit, MapReduceJob, TaskContext
from repro.cluster.runtime import ClusterRuntime, DispatchGate
from repro.config import DynoConfig
from repro.errors import PlanError
from repro.jaql.blocks import BlockLeaf, JoinBlock
from repro.jaql.compiler import intermediate_schema, leaf_scan
from repro.stats.metastore import StatisticsMetastore
from repro.stats.statistics import TableStats
from repro.storage.dfs import Split

PILR_ST = "ST"
PILR_MT = "MT"


@dataclass
class PilotLeafOutcome:
    """What one leaf's pilot run produced."""

    signature: str
    reused: bool
    stats: TableStats
    #: DFS file holding the leaf's full output, when the pilot consumed the
    #: whole relation and the output is reusable for the real execution.
    #: Its rows are qualified with :attr:`alias`, so only the leaf under
    #: that alias may be substituted (self-joins share one signature).
    reusable_output: str | None = None
    alias: str = ""
    scanned_fraction: float = 0.0
    output_rows: int = 0


@dataclass
class PilotReport:
    """Aggregate result of the pilot runs of one join block."""

    mode: str
    outcomes: dict[str, PilotLeafOutcome] = field(default_factory=dict)
    simulated_seconds: float = 0.0
    jobs_run: int = 0

    def stats_by_signature(self) -> dict[str, TableStats]:
        return {sig: out.stats for sig, out in self.outcomes.items()}


def stats_columns_for_leaf(block: JoinBlock, leaf: BlockLeaf) -> list[str]:
    """Output columns worth collecting statistics on for one leaf.

    The paper collects statistics "only for the attributes that participate
    in join predicates" (Section 4.3); we also include columns referenced by
    the block's non-local predicates, plus *composite* columns for
    multi-column join keys (so partkey+suppkey style joins estimate on the
    distinct count of the pair rather than the product of the parts).
    """
    columns: set[str] = set()
    for condition in block.conditions:
        for ref in (condition.left, condition.right):
            if ref.alias in leaf.aliases:
                columns.add(ref.qualified)
    for predicate in block.non_local_predicates:
        if predicate.references() & leaf.aliases:
            columns.update(predicate_columns(predicate, leaf.aliases))
    columns.update(composite_join_columns(block, leaf.aliases))
    return sorted(columns)


def signature_stats_columns(block: JoinBlock, leaf: BlockLeaf) -> list[str]:
    """Statistics columns for one run shared across same-signature leaves.

    Leaves with the same signature (a self-joined table) share one pilot
    run / one statistics entry, so it must cover the union of the columns
    every such leaf needs, re-qualified under the alias that actually runs
    (consumers re-qualify back, see
    :func:`repro.stats.statistics.requalify_stats`).
    """
    from repro.stats.statistics import COMPOSITE_SEPARATOR, composite_parts

    signature = leaf.signature()
    alias = leaf.alias
    columns: set[str] = set()
    for peer in block.base_leaves():
        if peer.signature() != signature:
            continue
        for name in stats_columns_for_leaf(block, peer):
            requalified = []
            for part in composite_parts(name):
                _, _, column = part.partition(".")
                requalified.append(f"{alias}.{column}")
            columns.add(COMPOSITE_SEPARATOR.join(requalified))
    return sorted(columns)


def composite_join_columns(block: JoinBlock,
                           aliases: frozenset[str]) -> list[str]:
    """Composite statistics columns for joins leaving ``aliases``.

    Conditions crossing from ``aliases`` to the same peer leaf form one
    composite key on this side (see
    :func:`repro.stats.statistics.composite_name`).
    """
    from repro.stats.statistics import composite_name

    groups: dict[int, set[str]] = {}
    for condition in block.conditions:
        for ref, other in ((condition.left, condition.right),
                           (condition.right, condition.left)):
            if ref.alias in aliases and other.alias not in aliases:
                peer = id(block.leaf_for(other.alias))
                groups.setdefault(peer, set()).add(ref.qualified)
    return sorted(
        composite_name(names) for names in groups.values() if len(names) >= 2
    )


def predicate_columns(predicate, aliases: frozenset[str]) -> list[str]:
    """Qualified column names a predicate reads from the given aliases."""
    from repro.jaql.expr import And, ColumnRef, Comparison, Or, UdfPredicate

    names: list[str] = []
    if isinstance(predicate, (And, Or)):
        for part in predicate.parts:
            names.extend(predicate_columns(part, aliases))
    elif isinstance(predicate, Comparison):
        for ref in (predicate.left, predicate.right):
            if isinstance(ref, ColumnRef) and ref.alias in aliases:
                names.append(ref.qualified)
    elif isinstance(predicate, UdfPredicate):
        for ref in predicate.args:
            if ref.alias in aliases:
                names.append(ref.qualified)
    return names


class PilotRunner:
    """Runs PILR over the base leaves of a join block."""

    def __init__(self, runtime: ClusterRuntime, metastore: StatisticsMetastore,
                 config: DynoConfig):
        self.runtime = runtime
        self.metastore = metastore
        self.config = config
        self.dfs = runtime.dfs
        #: optional :class:`repro.feedback.FeedbackStore`; set by the
        #: driver when the workload feedback loop is enabled. Drives
        #: re-pilots (stale statistics are re-collected with a larger
        #: sample instead of silently reused).
        self.feedback = None

    # -- public --------------------------------------------------------------------

    def run(self, block: JoinBlock, mode: str = PILR_MT,
            reuse_statistics: bool = True) -> PilotReport:
        """Execute pilot runs for every base leaf lacking statistics."""
        if mode not in (PILR_ST, PILR_MT):
            raise PlanError(f"unknown pilot mode: {mode!r}")
        with self.runtime.tracer.span("pilot", block=block.name,
                                      mode=mode) as span:
            report = self._run(block, mode, reuse_statistics)
            span.set(
                jobs_run=report.jobs_run,
                reused=sum(1 for outcome in report.outcomes.values()
                           if outcome.reused),
                sim_s=round(report.simulated_seconds, 6),
            )
        metrics = self.runtime.metrics
        if metrics.enabled:
            if report.jobs_run:
                metrics.inc("pilot.jobs_run", report.jobs_run)
                metrics.observe("pilot.sim_s", report.simulated_seconds)
            reused = sum(1 for outcome in report.outcomes.values()
                         if outcome.reused)
            if reused:
                metrics.inc("pilot.reused", reused)
        return report

    def _run(self, block: JoinBlock, mode: str,
             reuse_statistics: bool) -> PilotReport:
        report = PilotReport(mode)
        tracer = self.runtime.tracer

        def skip(leaf: BlockLeaf, signature: str, stats: TableStats) -> None:
            """Record a metastore hit: the leaf's pilot run is skipped."""
            report.outcomes[signature] = PilotLeafOutcome(
                signature, reused=True, stats=stats
            )
            if tracer.enabled:
                tracer.event(
                    "pilot_skipped",
                    block=block.name,
                    signature=signature,
                    leaf=leaf.describe(),
                    estimated_rows=round(stats.row_count, 3),
                )

        pending: list[BlockLeaf] = []
        queued: set[str] = set()
        for leaf in block.base_leaves():
            signature = leaf.signature()
            if signature in report.outcomes or signature in queued:
                continue  # two leaves with identical table+predicates
            existing = self.metastore.get(signature) if reuse_statistics else None
            if (existing is not None and self.feedback is not None
                    and self.feedback.should_repilot(signature)):
                # Feedback flagged this signature's estimates as
                # persistently bad: re-pilot with the boosted sample
                # instead of reusing the stale entry.
                existing = None
            if existing is not None:
                skip(leaf, signature, existing)
                continue
            if not leaf.predicates:
                # Bare scans reuse plain table statistics when present
                # (Section 4.1: "if there are no predicates ... use the
                # existing statistics for R").
                bare = self.metastore.get(f"table:{leaf.source_name}|")
                if reuse_statistics and bare is not None:
                    skip(leaf, signature, bare)
                    continue
            pending.append(leaf)
            queued.add(signature)

        if not pending:
            return report

        jobs: list[MapReduceJob] = []
        gates: dict[str, DispatchGate | None] = {}
        dependencies: dict[str, list[str]] = {}
        leaf_of_job: dict[str, BlockLeaf] = {}
        previous_name: str | None = None
        for index, leaf in enumerate(pending):
            job, gate = self._leaf_job(block, leaf, index, len(pending), mode)
            jobs.append(job)
            gates[job.name] = gate
            leaf_of_job[job.name] = leaf
            if mode == PILR_ST and previous_name is not None:
                dependencies[job.name] = [previous_name]
            previous_name = job.name

        # Pilots run fault-free: they precede the real query, and keeping
        # their leaf statistics deterministic means a faulted run starts
        # from the same first plan as its fault-free twin (the property
        # the differential oracle in tests/oracle.py checks).
        with self.runtime.suspended_faults():
            batch = self.runtime.execute_batch(jobs, dependencies, gates)
        report.simulated_seconds = batch.makespan
        report.jobs_run = len(jobs)

        tracer = self.runtime.tracer
        for job in jobs:
            result = batch[job.name]
            leaf = leaf_of_job[job.name]
            outcome = self._extrapolate(leaf, result)
            report.outcomes[outcome.signature] = outcome
            self.metastore.put(outcome.signature, outcome.stats)
            if self.feedback is not None:
                self.feedback.repilot_done(outcome.signature)
            if tracer.enabled:
                tracer.event(
                    "pilot.leaf",
                    job=job.name,
                    signature=outcome.signature,
                    scanned_fraction=round(outcome.scanned_fraction, 6),
                    sample_rows=outcome.output_rows,
                    estimated_rows=round(outcome.stats.row_count, 3),
                    estimated_bytes=round(outcome.stats.size_bytes, 3),
                    reusable=outcome.reusable_output is not None,
                )
        return report

    # -- job construction -----------------------------------------------------------

    def _leaf_job(self, block: JoinBlock, leaf: BlockLeaf, index: int,
                  relation_count: int,
                  mode: str) -> tuple[MapReduceJob, DispatchGate]:
        input_file = leaf.source_name
        all_splits = self.dfs.file_splits(input_file)
        counter = self.runtime.coordination.counter(
            f"pilr/{block.name}/{index}"
        )
        counter.value = 0
        k_records = self.config.pilot.k_records
        if self.feedback is not None:
            boost = self.feedback.pilot_boost(leaf.signature())
            if boost > 1.0:
                k_records = int(round(k_records * boost))
        scan = leaf_scan(leaf)

        def mapper(context: TaskContext, source: str, batch) -> BatchEmit:
            out = scan(context, batch)
            if out.rows:
                # One shared-counter update per split, not per record: the
                # dispatch gate only reads the counter between splits, so
                # early-stop decisions are unchanged.
                counter.increment(len(out.rows))
            return BatchEmit(rows=out.rows, sizes=out.ensure_sizes(),
                             columns=out)

        total_map_slots = self.config.cluster.total_map_slots
        threshold = self.config.pilot.reuse_completion_threshold
        total_splits = len(all_splits)

        if mode == PILR_ST:
            # Natural split order; first wave always runs, then the global
            # counter gates further dispatch; near-complete scans finish.
            splits = all_splits
            first_wave = min(total_map_slots, total_splits)

            def gate(started: int) -> bool:
                if started < first_wave:
                    return True
                if counter.value < k_records:
                    return True
                return started / total_splits >= threshold
        else:
            # Reservoir-sample m/|R| splits; the remaining splits follow in
            # random order so the sample can grow on demand (Section 4.2).
            rng = random.Random(self.config.pilot.seed + index)
            initial_count = min(
                max(1, total_map_slots // max(1, relation_count)),
                total_splits,
            )
            sampled = _reservoir_sample(all_splits, initial_count, rng)
            sampled_set = {(s.file_name, s.index) for s in sampled}
            remainder = [s for s in all_splits
                         if (s.file_name, s.index) not in sampled_set]
            rng.shuffle(remainder)
            splits = sampled + remainder

            def gate(started: int) -> bool:
                if started < initial_count:
                    return True
                if counter.value < k_records:
                    return True
                return started / total_splits >= threshold

        job = MapReduceJob(
            name=f"{block.name}.pilr{index}",
            inputs=[input_file],
            mapper=mapper,
            output_name=f"{block.name}.pilr{index}.out",
            # Qualified rows, like every compiled job's output: no key
            # matches the raw table's typed schema.
            output_schema=intermediate_schema(),
            splits=splits,
            stats_columns=self._columns_for_signature(block, leaf),
            description=f"pilot run for {leaf.describe()}",
        )
        return job, gate

    def _columns_for_signature(self, block: JoinBlock,
                               leaf: BlockLeaf) -> list[str]:
        return signature_stats_columns(block, leaf)

    # -- extrapolation (Section 4.3) ---------------------------------------------------

    def _extrapolate(self, leaf: BlockLeaf, result) -> PilotLeafOutcome:
        signature = leaf.signature()
        sample_stats = result.collected_stats
        consumed_bytes = result.counters.get("map", "MAP_INPUT_BYTES")
        file_bytes = self.dfs.file_size(leaf.source_name)
        fraction = (consumed_bytes / file_bytes) if file_bytes else 1.0
        fraction = min(1.0, max(fraction, 1e-9))

        if sample_stats is None:
            from repro.stats.statistics import TableStats as _TS

            sample_stats = _TS(float(result.output_rows),
                               float(result.output_bytes))

        if fraction >= 1.0:
            stats = TableStats(
                sample_stats.row_count,
                sample_stats.size_bytes,
                dict(sample_stats.columns),
                exact=True,
            )
            reusable = result.output_name
        else:
            estimated_rows = sample_stats.row_count / fraction
            estimated_bytes = sample_stats.size_bytes / fraction
            stats = sample_stats.scaled_to(estimated_rows, estimated_bytes)
            reusable = None

        return PilotLeafOutcome(
            signature=signature,
            reused=False,
            stats=stats,
            reusable_output=reusable,
            alias=leaf.alias,
            scanned_fraction=result.scanned_fraction,
            output_rows=result.output_rows,
        )


def _reservoir_sample(items: list[Split], count: int,
                      rng: random.Random) -> list[Split]:
    """Classic reservoir sampling (Algorithm 1, line 7)."""
    reservoir: list[Split] = []
    for index, item in enumerate(items):
        if index < count:
            reservoir.append(item)
            continue
        slot = rng.randint(0, index)
        if slot < count:
            reservoir[slot] = item
    return reservoir
