"""QueryService: a multi-tenant front end over one shared stack.

This is the serving layer the ROADMAP's north star asks for: many queries
against ONE :class:`~repro.storage.dfs.DistributedFileSystem`, ONE
:class:`~repro.cluster.runtime.ClusterRuntime` (so all queries compete for
the same simulated slots), and ONE persistent
:class:`~repro.stats.metastore.StatisticsMetastore` -- which is what makes
Section 4.1's statistics reuse observable end to end:

* **pilot-run skipping** -- before PILR, the metastore is probed by leaf
  signature; pilots run only for unseen signatures (a ``pilot_skipped``
  trace event per hit);
* **plan caching** -- optimizer results are cached by (canonical join-block
  key, statistics fingerprint) and invalidated when any contributing leaf's
  statistics are updated (:mod:`repro.service.plan_cache`).

One driver thread
-----------------

A ``QueryService`` and the :class:`~repro.core.dyno.Dyno` under it are
driven by one thread: the one that calls ``scheduler.submit`` /
``drain`` / ``run_sustained`` (and the standing-query manager and
``apply_change_batch`` over the same service). A drain admits its
requests and runs them one after another, in dispatch order, on that
thread; the service starts no thread and takes no lock. As in the paper,
where one Jaql client drives each query's job graph, cluster parallelism
is the simulated slots of :class:`~repro.cluster.scheduler.SlotScheduler`.
Nothing in :mod:`repro` is thread-safe -- not the metastore, tracer
(with its sinks, the metrics registry among them) or caches a caller may
hand in: share between processes, not threads.

Isolation and determinism
-------------------------

Every admitted query is renamed under a unique ``b<drain>.q<position>``
prefix. Compiled job names, DFS intermediate files, pilot counters,
plan-cache hit attribution and tracer spans all derive from the block
(= spec) name, so two copies of the same query never collide in the
shared namespace. Multi-block workloads additionally rename their
intermediate *tables* (and the later stages' scans of them) under the
same prefix.

Requests run in order, so each sees every statistic its predecessors
collected: a repeat in the same drain finds the first copy's pilot
statistics in the metastore and runs no pilot. Pilot jobs, cache hits and
simulated seconds are a function of the dispatch order alone, and fault
plans work in every mode.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.dyno import Dyno, QueryExecution
from repro.core.dynopt import MODE_DYNOPT
from repro.data.table import Row, Table
from repro.errors import DynoError, PlanError
from repro.jaql.expr import QuerySpec, Scan, transform_bottom_up
from repro.jaql.functions import UdfRegistry
from repro.obs.tracer import Tracer
from repro.service.plan_cache import PlanCache
from repro.service.result_cache import (
    RequestIdentity,
    ResultCache,
    request_identity,
)
from repro.stats.metastore import StatisticsMetastore


@dataclass
class QueryRequest:
    """One query submitted to the service.

    ``stages`` follows :meth:`Dyno.execute_multi`: a list of
    ``(QuerySpec or SQL text, output table name)`` pairs, the final stage's
    output name being ``None``. Single-block queries are one-element lists.
    """

    name: str
    stages: list[tuple[QuerySpec | str, str | None]]
    mode: str = MODE_DYNOPT
    strategy: str = "UNC-1"
    pilot_mode: str = "MT"
    #: owner of the request; the scheduler's fair dispatcher round-robins
    #: admission slots across tenants (see repro.service.scheduler).
    tenant: str = "default"
    #: relative weight of this tenant's admission share while this request
    #: is at the head of its queue; clamped to >= 1 by the dispatcher.
    priority: int = 1

    @classmethod
    def single(cls, name: str, query: QuerySpec | str,
               **kwargs) -> "QueryRequest":
        return cls(name, [(query, None)], **kwargs)

    @classmethod
    def from_workload(cls, workload, **kwargs) -> "QueryRequest":
        """Build from a :class:`repro.workloads.queries.Workload`."""
        return cls(workload.name, list(workload.stages), **kwargs)


@dataclass
class QueryOutcome:
    """Result and reuse evidence for one query of a batch."""

    index: int
    name: str
    #: prefixed name the query ran under (``q003.Q3``).
    query_name: str
    rows: list[Row] = field(default_factory=list)
    #: pilot jobs actually executed across the query's blocks.
    pilot_jobs: int = 0
    #: leaf signatures whose pilots were skipped via metastore hits.
    pilots_skipped: int = 0
    #: optimizer invocations answered from the plan cache.
    plan_cache_hits: int = 0
    execution: QueryExecution | None = None
    error: str | None = None
    #: owner of the originating request.
    tenant: str = "default"
    #: True when the rows came from the result cache (no execution at all).
    result_cache_hit: bool = False
    #: seconds from arrival at the scheduler to execution start.
    wait_seconds: float = 0.0
    #: seconds from arrival at the scheduler to completion.
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Admission:
    """Per-query state decided at admission."""

    index: int
    request: QueryRequest
    prefix: str
    stages: list[tuple[QuerySpec, str | None]]
    #: perf_counter timestamp of the request's arrival at the scheduler;
    #: wait and latency count from it.
    submitted_at: float
    #: admission-time failure (parse, isolation or identity error);
    #: skips execution.
    error: str | None = None
    #: result-cache identity of the original (unprefixed) request, or
    #: None when the request is not cacheable (see result_cache.py).
    identity: "RequestIdentity | None" = None

    @property
    def query_name(self) -> str:
        if not self.stages:
            return f"{self.prefix}.{self.request.name}"
        return self.stages[-1][0].name


class QueryService:
    """Runs queued queries over one shared simulated platform, on the
    thread that drains its scheduler (see the module docstring)."""

    def __init__(self, tables: dict[str, Table],
                 config: DynoConfig = DEFAULT_CONFIG,
                 udfs: UdfRegistry | None = None,
                 metastore: StatisticsMetastore | None = None,
                 tracer: Tracer | None = None,
                 workers: int = 1,
                 plan_cache: PlanCache | None = None,
                 result_cache: ResultCache | bool | None = None):
        # The keyword survives for callers that spell out the one thread.
        if workers != 1:
            raise PlanError(
                "a QueryService and the Dyno under it are driven by one "
                f"thread (asked for {workers} workers)"
            )
        # `or` would discard a caller's *empty* cache (len == 0 is falsy).
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.dyno = Dyno(tables, config=config, udfs=udfs,
                         metastore=metastore, tracer=tracer,
                         plan_cache=self.plan_cache)
        self.tracer = self.dyno.tracer
        #: optional result-set cache (opt-in: repeats then skip execution
        #: entirely, so reuse evidence like pilot/plan-cache counters no
        #: longer accrues for them). ``True`` builds a default cache.
        self.result_cache: ResultCache | None
        if isinstance(result_cache, bool) or result_cache is None:
            self.result_cache = ResultCache() if result_cache else None
        else:  # an instance, possibly still empty (len 0 is falsy)
            self.result_cache = result_cache
        if self.result_cache is not None:
            self.metastore.subscribe(self.result_cache.on_stats_update)
        self._batch_ids = itertools.count()
        from repro.service.scheduler import QueryScheduler

        #: long-lived submission queue (see repro.service.scheduler).
        self.scheduler = QueryScheduler(self)

    @property
    def metastore(self) -> StatisticsMetastore:
        return self.dyno.metastore

    # -- admission ------------------------------------------------------------

    def _admit(
        self, queued: list[tuple[int, QueryRequest, float]]
    ) -> list[_Admission]:
        """Parse, isolate and identify each ``(index, request,
        submitted_at)`` in dispatch order.

        ``index`` is the request's submission index, so outcomes can be
        returned in submission order even when the fair dispatcher
        admitted them in a different one. Every admission of one call
        shares a fresh drain id in its ``b{drain}.q{position}`` prefix.
        """
        batch = next(self._batch_ids)
        admissions: list[_Admission] = []
        for position, (index, request, submitted_at) in enumerate(queued):
            admission = _Admission(
                index=index, request=request,
                prefix=f"b{batch}.q{position:03d}", stages=[],
                submitted_at=submitted_at,
            )
            try:
                # Parse each SQL stage once; isolation and the
                # result-cache identity both read the parsed specs.
                parsed = [
                    (self.dyno.parse(spec, name="query")
                     if isinstance(spec, str) else spec, output)
                    for spec, output in request.stages
                ]
                admission.stages = self._isolate_stages(admission.prefix,
                                                        parsed)
                if self.result_cache is not None:
                    admission.identity = request_identity(self.dyno, parsed)
            except DynoError as error:
                # A malformed query fails alone, not the whole batch.
                admission.error = f"{type(error).__name__}: {error}"
            if self.tracer.enabled:
                self.tracer.event(
                    "service.admit",
                    query=admission.query_name,
                    request=request.name,
                    tenant=request.tenant,
                    priority=request.priority,
                    index=index,
                )
            admissions.append(admission)
        return admissions

    # -- batch execution ------------------------------------------------------

    def _execute_admissions(
        self, admissions: list[_Admission]
    ) -> list[QueryOutcome]:
        """Run admitted queries one after another, in dispatch order."""
        with self.tracer.span("service.batch",
                              queries=len(admissions)) as span:
            outcomes = [self._run_one(admission) for admission in admissions]
            span.set(
                pilot_jobs=sum(o.pilot_jobs for o in outcomes),
                pilots_skipped=sum(o.pilots_skipped for o in outcomes),
                plan_cache_hits=sum(o.plan_cache_hits for o in outcomes),
                result_cache_hits=sum(
                    1 for o in outcomes if o.result_cache_hit
                ),
                errors=sum(1 for o in outcomes if not o.ok),
            )
        return outcomes

    def _isolate_stages(
        self, prefix: str,
        stages: list[tuple[QuerySpec, str | None]],
    ) -> list[tuple[QuerySpec, str | None]]:
        """Rename specs (and intermediate tables) under a per-query prefix.

        Job names, DFS outputs, pilot counters and tracer spans all derive
        from the spec name, so the prefix is what keeps copies of one
        query apart in the shared namespace.
        """
        if not stages:
            raise PlanError("query request has no stages")
        renamed_tables = {
            output: f"{prefix}.{output}"
            for _, output in stages[:-1] if output is not None
        }

        def rename_scans(node):
            if isinstance(node, Scan) and node.table in renamed_tables:
                return Scan(renamed_tables[node.table], node.alias)
            return node

        isolated: list[tuple[QuerySpec, str | None]] = []
        for spec, output in stages:
            root = transform_bottom_up(spec.root, rename_scans)
            isolated.append((
                QuerySpec(f"{prefix}.{spec.name}", root, spec.description),
                renamed_tables.get(output) if output is not None else None,
            ))
        return isolated

    # -- execution ------------------------------------------------------------

    def _lookup_result(self, admission: _Admission) -> list[Row] | None:
        """Probe the result cache; None on miss or uncacheable identity."""
        if self.result_cache is None or admission.identity is None:
            return None
        key = admission.identity.key(self.metastore)
        if key is None:  # some contributing statistics still unknown
            return None
        rows = self.result_cache.lookup(key)
        if self.tracer.enabled:
            self.tracer.event("result_cache",
                              query=admission.query_name,
                              hit=rows is not None)
        return rows

    def _store_result(self, admission: _Admission,
                      rows: list[Row]) -> None:
        """Cache a completed query's rows under its post-run identity."""
        if self.result_cache is None or admission.identity is None:
            return
        key = admission.identity.key(self.metastore)
        if key is None:
            return
        self.result_cache.store(key, rows,
                                admission.identity.contributing)

    def _run_one(self, admission: _Admission) -> QueryOutcome:
        request = admission.request
        outcome = QueryOutcome(admission.index, request.name,
                               admission.query_name,
                               tenant=request.tenant)
        outcome.wait_seconds = time.perf_counter() - admission.submitted_at
        try:
            if admission.error is not None:
                outcome.error = admission.error
                return outcome
            cached_rows = self._lookup_result(admission)
            if cached_rows is not None:
                outcome.rows = cached_rows
                outcome.result_cache_hit = True
                return outcome
            execution = self.dyno.execute_multi(
                admission.stages,
                mode=request.mode,
                strategy=request.strategy,
                pilot_mode=request.pilot_mode,
            )
            outcome.execution = execution
            outcome.rows = execution.rows
            for block_result in execution.block_results:
                report = block_result.pilot
                if report is None:
                    continue
                outcome.pilot_jobs += report.jobs_run
                outcome.pilots_skipped += sum(
                    1 for leaf_outcome in report.outcomes.values()
                    if leaf_outcome.reused
                )
            outcome.plan_cache_hits = self.plan_cache.hits_for_prefix(
                f"{admission.prefix}."
            )
            self._store_result(admission, outcome.rows)
        except Exception as error:  # noqa: BLE001 - one query must not
            # take down the batch; UDFs run arbitrary user code.
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            outcome.latency_seconds = \
                time.perf_counter() - admission.submitted_at
            if self.tracer.enabled:
                self.tracer.event(
                    "service.complete",
                    query=admission.query_name,
                    tenant=request.tenant,
                    wait_s=round(outcome.wait_seconds, 6),
                    rows=len(outcome.rows),
                    pilot_jobs=outcome.pilot_jobs,
                    pilots_skipped=outcome.pilots_skipped,
                    plan_cache_hits=outcome.plan_cache_hits,
                    result_cache_hit=outcome.result_cache_hit,
                    error=outcome.error,
                )
        return outcome
