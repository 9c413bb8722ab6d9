"""Standing queries: registered once, kept fresh across change batches.

The manager mirrors the dynamic-tables design (SNIPPETS.md §1): each
registered query is split into a *core* (the join block plus an optional
GROUP BY -- everything that runs as MapReduce jobs) and a *tail* (the
trailing ORDER BY / projection stages Jaql evaluates client-side). The
maintained state lives at core level; the tail is re-applied to the full
state after every refresh, which is what makes LIMIT queries safely
maintainable (the state is never truncated).

Per change batch, each affected query picks a refresh strategy:

* **delta** -- run the core query with the changed table's scan
  substituted by the batch's delta file(s)
  (:func:`repro.jaql.rewrites.substitute_scan`), then merge the delta
  rows into the maintained state: group-level merge for GROUP BY cores
  (count/sum add, min/max take extrema -- append-only batches only),
  multiset union/subtract for pure-join cores (inserts and deletes);
* **full** -- re-run the core query from scratch and replace the state.

The choice is cardinality-based, via the optimizer's own
:class:`~repro.optimizer.cardinality.CardinalityModel`: estimate the
core's output once with the changed leaf at delta size and once at full
size; when the ratio exceeds ``full_threshold`` (default 0.3, the
dynamic-tables rule of thumb) the delta join would touch so much of the
data that recomputing is cheaper. Queries whose shape cannot be merged
(avg aggregates, self-joined change tables, delete batches against
GROUP BY state -- synopses and group states cannot un-count) force the
full strategy with an explicit reason.

Both strategies execute as ordinary :class:`QueryRequest`s through the
service's tenant scheduler -- refreshes compete fairly with ad-hoc
traffic, and the refresh query itself goes through the complete
optimize->pilot->replan path, so corrections and mid-job triggers apply
to maintenance work exactly as to queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.job import TaskContext
from repro.core.pilot import signature_stats_columns
from repro.data.table import Row
from repro.errors import PlanError
from repro.incremental.cdc import AppliedChange
from repro.jaql.blocks import BlockLeaf, JoinBlock, apply_client_stage
from repro.jaql.compiler import leaf_scan
from repro.jaql.expr import GroupBy, OrderBy, Project, QuerySpec
from repro.jaql.rewrites import substitute_scan
from repro.optimizer.cardinality import CardinalityModel
from repro.service.service import QueryOutcome, QueryRequest
from repro.stats.statistics import RunningStats, TableStats

__all__ = [
    "RefreshDecision",
    "RefreshOutcome",
    "RefreshReport",
    "StandingQuery",
    "StandingQueryManager",
]

#: aggregate ops whose per-group outputs merge exactly under appends.
MERGEABLE_OPS = frozenset(("count", "sum", "min", "max"))


@dataclass(frozen=True)
class RefreshDecision:
    """Why one standing query refreshed the way it did."""

    query: str
    table: str
    sequence: int
    #: "delta" or "full".
    strategy: str
    reason: str
    #: estimated core-output rows with the changed leaf at delta size.
    delta_estimate: float
    #: estimated core-output rows at full size.
    full_estimate: float
    #: delta_estimate / full_estimate (0 when estimation was skipped).
    ratio: float


@dataclass
class RefreshOutcome:
    """One standing query's refresh result for one change batch."""

    query: str
    decision: RefreshDecision
    #: final (tail-applied) row count after the refresh.
    rows: int = 0
    #: simulated seconds spent by the refresh queries.
    simulated_seconds: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RefreshReport:
    """Everything one change batch triggered."""

    table: str
    sequence: int
    outcomes: list[RefreshOutcome] = field(default_factory=list)
    #: outcomes of ad-hoc requests submitted alongside the refreshes.
    adhoc: list[QueryOutcome] = field(default_factory=list)

    @property
    def delta_count(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.decision.strategy == "delta")

    @property
    def full_count(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.decision.strategy == "full")


@dataclass
class StandingQuery:
    """One registered query and its maintained core-level state."""

    name: str
    spec: QuerySpec
    #: core spec: the original root with trailing Project/OrderBy stripped.
    core: QuerySpec
    #: stripped trailing stages, outermost first.
    tail: tuple[Any, ...]
    base_tables: frozenset[str]
    #: table -> number of block aliases scanning it (self-join detection).
    alias_counts: dict[str, int]
    group_by: GroupBy | None
    #: static reason delta refresh can never apply (None = eligible).
    ineligible: str | None
    tenant: str
    priority: int
    #: maintained rows at core level (group rows or raw join rows).
    state: list[Row] = field(default_factory=list)
    decisions: list[RefreshDecision] = field(default_factory=list)


class StandingQueryManager:
    """Registers queries with a service and keeps their results fresh."""

    def __init__(self, service, full_threshold: float = 0.3,
                 tenant: str = "standing", priority: int = 1):
        if not 0 < full_threshold <= 1:
            raise PlanError("full_threshold must be in (0, 1]")
        self.service = service
        self.full_threshold = full_threshold
        self.tenant = tenant
        self.priority = priority
        self.queries: dict[str, StandingQuery] = {}

    # -- registration --------------------------------------------------------

    def register(self, name: str, query: QuerySpec | str,
                 tenant: str | None = None,
                 priority: int | None = None) -> StandingQuery:
        """Register a query and seed its state with an initial run.

        The seed executes the *core* query through the service (full
        pilot/optimize path), so the metastore is warm for the very
        first refresh decision.
        """
        if name in self.queries:
            raise PlanError(f"standing query {name!r} already registered")
        dyno = self.service.dyno
        spec = dyno.parse(query, name) if isinstance(query, str) else query

        node = spec.root
        tail: list[Any] = []
        while isinstance(node, (Project, OrderBy)):
            tail.append(node)
            node = node.children()[0]
        core = QuerySpec(f"{name}.core", node, spec.description)
        group_by = node if isinstance(node, GroupBy) else None

        extracted = dyno.prepare(core)
        alias_counts: dict[str, int] = {}
        for leaf in extracted.block.base_leaves():
            for _ in leaf.aliases:
                alias_counts[leaf.source_name] = \
                    alias_counts.get(leaf.source_name, 0) + 1
        base_tables = frozenset(alias_counts)

        ineligible = None
        if group_by is not None:
            bad = sorted({agg.op for agg in group_by.aggregates}
                         - MERGEABLE_OPS)
            if bad:
                ineligible = (f"aggregate(s) {', '.join(bad)} cannot be "
                              "merged from partial outputs")

        standing = StandingQuery(
            name=name, spec=spec, core=core, tail=tuple(tail),
            base_tables=base_tables, alias_counts=alias_counts,
            group_by=group_by, ineligible=ineligible,
            tenant=tenant or self.tenant,
            priority=priority or self.priority,
        )
        scheduler = self.service.scheduler
        outcome, = scheduler.drain([scheduler.submit(
            QueryRequest.single(f"{name}.seed", core,
                                tenant=standing.tenant,
                                priority=standing.priority)
        )])
        if not outcome.ok:
            raise PlanError(
                f"seeding standing query {name!r} failed: {outcome.error}"
            )
        standing.state = [dict(row) for row in outcome.rows]
        self.queries[name] = standing
        if self.service.tracer.enabled:
            self.service.tracer.event(
                "standing.register", query=name,
                tables=sorted(base_tables),
                eligible=ineligible is None,
                rows=len(standing.state),
            )
        return standing

    def result(self, name: str) -> list[Row]:
        """Current maintained result (tail stages applied), a fresh copy."""
        standing = self._get(name)
        return self._apply_tail(standing, standing.state)

    # -- refresh -------------------------------------------------------------

    def refresh(self, applied: AppliedChange,
                adhoc: Sequence[QueryRequest] = ()) -> RefreshReport:
        """React to one applied change batch.

        Builds refresh requests for every affected standing query,
        submits them *together with* any ad-hoc requests through the
        service's tenant scheduler (fair competition), then folds the
        refresh results into the maintained states.
        """
        batch = applied.batch
        report = RefreshReport(batch.table, batch.sequence)
        affected = [q for q in self.queries.values()
                    if batch.table in q.base_tables]
        if not affected and not adhoc:
            return report

        requests: list[QueryRequest] = []
        plan: list[tuple[StandingQuery, RefreshDecision,
                         list[tuple[str, int]]]] = []
        with self.service.tracer.span(
            "refresh", table=batch.table, sequence=batch.sequence,
            queries=len(affected),
        ) as span:
            for standing in affected:
                decision = self._decide(standing, applied)
                standing.decisions.append(decision)
                slots: list[tuple[str, int]] = []
                for kind, spec in self._refresh_specs(standing, applied,
                                                      decision):
                    slots.append((kind, len(requests)))
                    requests.append(QueryRequest.single(
                        spec.name, spec,
                        tenant=standing.tenant,
                        priority=standing.priority,
                    ))
                plan.append((standing, decision, slots))
                if self.service.tracer.enabled:
                    self.service.tracer.event(
                        "refresh.decision",
                        query=standing.name,
                        table=batch.table,
                        sequence=batch.sequence,
                        strategy=decision.strategy,
                        reason=decision.reason,
                        ratio=round(decision.ratio, 6),
                    )
                if self.service.metrics.enabled:
                    self.service.metrics.inc(
                        f"incremental.refresh_{decision.strategy}"
                    )

            scheduler = self.service.scheduler
            outcomes = scheduler.drain(
                [scheduler.submit(request)
                 for request in requests + list(adhoc)])
            report.adhoc = outcomes[len(requests):]

            for standing, decision, slots in plan:
                outcome = self._merge(standing, applied, decision,
                                      {kind: outcomes[index]
                                       for kind, index in slots})
                report.outcomes.append(outcome)
            span.set(
                delta=report.delta_count, full=report.full_count,
                errors=sum(1 for o in report.outcomes if not o.ok),
            )
        return report

    # -- decision ------------------------------------------------------------

    def _decide(self, standing: StandingQuery,
                applied: AppliedChange) -> RefreshDecision:
        batch = applied.batch
        forced = self._forced_full_reason(standing, applied)
        if forced is not None:
            return RefreshDecision(standing.name, batch.table,
                                   batch.sequence, "full", forced,
                                   0.0, 0.0, 0.0)
        delta_est, full_est = self._estimate(standing, applied)
        ratio = delta_est / max(full_est, 1.0)
        if ratio > self.full_threshold:
            return RefreshDecision(
                standing.name, batch.table, batch.sequence, "full",
                f"estimated delta output is {ratio:.0%} of a full "
                f"recompute (> {self.full_threshold:.0%})",
                delta_est, full_est, ratio,
            )
        return RefreshDecision(
            standing.name, batch.table, batch.sequence, "delta",
            f"estimated delta output is {ratio:.0%} of a full "
            f"recompute (<= {self.full_threshold:.0%})",
            delta_est, full_est, ratio,
        )

    def _forced_full_reason(self, standing: StandingQuery,
                            applied: AppliedChange) -> str | None:
        if standing.ineligible is not None:
            return standing.ineligible
        if standing.alias_counts.get(applied.batch.table, 0) > 1:
            return (f"{applied.batch.table} is scanned under multiple "
                    "aliases (self-join deltas need cross terms)")
        if standing.group_by is not None \
                and not applied.batch.append_only:
            return ("group states cannot un-count deleted or updated "
                    "rows")
        return None

    def _estimate(self, standing: StandingQuery,
                  applied: AppliedChange) -> tuple[float, float]:
        """(delta-sized, full-sized) core-output row estimates."""
        dyno = self.service.dyno
        block = dyno.prepare(standing.core).block
        full_stats: dict[str, TableStats] = {}
        missing: list[BlockLeaf] = []
        for leaf in block.base_leaves():
            signature = leaf.signature()
            stats = dyno.metastore.get(signature)
            if stats is None:
                missing.append(leaf)
            else:
                full_stats[signature] = stats
        # The changed table's signatures are the first casualties of a
        # delta batch (the metastore invalidates them). The ratio needs
        # *column synopses* -- without distinct counts the model's join
        # selectivities default asymmetrically and the delta/full ratio
        # is noise -- so the missing leaves, and only those, are probed
        # for ground truth: a full scan through the kernel and the batch
        # ingest a pilot run uses. Deliberately NOT published to the
        # metastore and not on the simulated clock: these are
        # decision-local; the refresh query still re-pilots and
        # republishes honestly.
        for leaf in missing:
            signature = leaf.signature()
            if signature not in full_stats:  # self-joins share one
                full_stats[signature] = self._probe_leaf(block, leaf)
        delta_stats = dict(full_stats)
        delta_rows = float(max(applied.delta_rows, 1))
        for leaf in block.base_leaves():
            if leaf.source_name != applied.batch.table:
                continue
            signature = leaf.signature()
            stats = full_stats[signature]
            scale = delta_rows / max(stats.row_count, 1.0)
            delta_stats[signature] = stats.scaled_to(
                delta_rows, max(stats.size_bytes * scale, 1.0)
            )
        aliases = frozenset(
            alias for leaf in block.leaves for alias in leaf.aliases
        )
        full_est = CardinalityModel(block, full_stats).estimate(aliases)
        delta_est = CardinalityModel(block, delta_stats).estimate(aliases)
        return delta_est.rows, full_est.rows

    def _probe_leaf(self, block: JoinBlock, leaf: BlockLeaf) -> TableStats:
        """Exact statistics of one base leaf's output (rows, synopses)."""
        dyno = self.service.dyno
        scan = leaf_scan(leaf)
        out = scan(TaskContext(),
                   dyno.dfs.open(leaf.source_name).file_batch())
        running = RunningStats(signature_stats_columns(block, leaf),
                               dyno.config.pilot.kmv_size)
        running.update_columns(out, len(out), out.sizes)
        return running.freeze(exact=True)

    # -- refresh execution ---------------------------------------------------

    def _refresh_specs(self, standing: StandingQuery,
                       applied: AppliedChange,
                       decision: RefreshDecision,
                       ) -> list[tuple[str, QuerySpec]]:
        """(kind, spec) pairs to execute for one query's refresh."""
        batch = applied.batch
        if decision.strategy == "full":
            return [("full", QuerySpec(
                f"{standing.name}.full{batch.sequence}",
                standing.core.root,
            ))]
        specs: list[tuple[str, QuerySpec]] = []
        if applied.insert_delta is not None:
            specs.append(("insert", QuerySpec(
                f"{standing.name}.delta{batch.sequence}i",
                substitute_scan(standing.core.root, batch.table,
                                applied.insert_delta),
            )))
        if applied.delete_delta is not None:
            specs.append(("delete", QuerySpec(
                f"{standing.name}.delta{batch.sequence}d",
                substitute_scan(standing.core.root, batch.table,
                                applied.delete_delta),
            )))
        return specs

    def _merge(self, standing: StandingQuery, applied: AppliedChange,
               decision: RefreshDecision,
               by_kind: dict[str, QueryOutcome]) -> RefreshOutcome:
        outcome = RefreshOutcome(standing.name, decision)
        failed = [o for o in by_kind.values() if not o.ok]
        if failed:
            outcome.error = failed[0].error
            return outcome
        outcome.simulated_seconds = sum(
            o.execution.total_seconds
            for o in by_kind.values() if o.execution is not None
        )
        if decision.strategy == "full":
            standing.state = [dict(row)
                              for row in by_kind["full"].rows]
        elif standing.group_by is not None:
            inserted = by_kind.get("insert")
            if inserted is not None:
                self._merge_groups(standing, inserted.rows)
        else:
            inserted = by_kind.get("insert")
            if inserted is not None:
                standing.state.extend(
                    dict(row) for row in inserted.rows
                )
            deleted = by_kind.get("delete")
            if deleted is not None:
                self._subtract_rows(standing, deleted.rows)
        outcome.rows = len(self._apply_tail(standing, standing.state))
        return outcome

    def _merge_groups(self, standing: StandingQuery,
                      delta_rows: list[Row]) -> None:
        """Fold delta group rows into the state (append-only merges)."""
        group_by = standing.group_by
        assert group_by is not None
        key_names = [key.qualified for key in group_by.keys]
        index = {
            tuple(_hashable(row.get(k)) for k in key_names): row
            for row in standing.state
        }
        for delta in delta_rows:
            key = tuple(_hashable(delta.get(k)) for k in key_names)
            current = index.get(key)
            if current is None:
                fresh = dict(delta)
                standing.state.append(fresh)
                index[key] = fresh
                continue
            for agg in group_by.aggregates:
                name = agg.output_name
                old, new = current.get(name), delta.get(name)
                if agg.op in ("count", "sum"):
                    current[name] = (old or 0) + (new or 0)
                elif new is None:
                    continue
                elif old is None:
                    current[name] = new
                elif agg.op == "min":
                    current[name] = min(old, new)
                else:  # max
                    current[name] = max(old, new)

    def _subtract_rows(self, standing: StandingQuery,
                       delta_rows: list[Row]) -> None:
        """Multiset-subtract delete-side join rows from the state."""
        pending: dict[Any, int] = {}
        for row in delta_rows:
            key = _row_key(row)
            pending[key] = pending.get(key, 0) + 1
        kept: list[Row] = []
        for row in standing.state:
            key = _row_key(row)
            remaining = pending.get(key, 0)
            if remaining > 0:
                pending[key] = remaining - 1
            else:
                kept.append(row)
        leftovers = sum(pending.values())
        if leftovers:
            raise PlanError(
                f"standing query {standing.name!r} delete refresh "
                f"produced {leftovers} row(s) absent from the state; "
                "the maintained result diverged from the data"
            )
        standing.state = kept

    # -- helpers -------------------------------------------------------------

    def _apply_tail(self, standing: StandingQuery,
                    rows: list[Row]) -> list[Row]:
        current = list(rows)
        for stage in reversed(standing.tail):
            current = apply_client_stage(stage, current)
        return [dict(row) for row in current]

    def _get(self, name: str) -> StandingQuery:
        standing = self.queries.get(name)
        if standing is None:
            raise PlanError(f"unknown standing query {name!r}")
        return standing


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _hashable(item)) for key, item in value.items()
        ))
    return value


def _row_key(row: Row) -> Any:
    """Order-independent hashable fingerprint of one row."""
    return tuple(sorted(
        (name, _hashable(value)) for name, value in row.items()
    ))
