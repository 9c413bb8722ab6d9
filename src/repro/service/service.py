"""QueryService: a concurrent multi-query front end over one shared stack.

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
  statistics are updated (:mod:`repro.service.plan_cache`);
* **concurrent admission** -- N driver threads execute queries in parallel,
  sharing the cluster's slots through the (now reentrant)
  :class:`~repro.cluster.scheduler.SlotScheduler` behind the runtime's
  batch lock.

Isolation and determinism
-------------------------

Every admitted query is renamed under a unique ``q<index>`` prefix.
Compiled job names, DFS intermediate files, pilot counters and tracer
spans all derive from the block (= spec) name, so two concurrent copies of
the same query never collide in the shared namespace. Multi-block
workloads additionally rename their intermediate *tables* (and the later
stages' scans of them) under the same prefix.

Pilot ownership is decided at admission time, serially, in submission
order: each base-leaf signature is classified as *known* (already in the
metastore), *claimed* (this query will run its pilot), or *waiting*
(an earlier in-flight query claimed it; this query blocks on that query's
completion before starting). Claims make the set of pilot jobs -- and
therefore every reuse trace -- a function of the submitted batch alone,
not of thread timing; results are byte-identical regardless (plans never
change answers, only timings).

Fault plans are a single-driver feature: ``run_batch`` refuses to run
concurrently with an armed fault injector, since fault suspension during
pilots is runtime-global (``workers=1`` batches run fault plans fine).

Memory backpressure
-------------------

Each request may declare a memory demand
(:attr:`QueryRequest.memory_demand_bytes`); the service holds a gate over
the cluster memory pool and *blocks admission* of a query whose demand
would push the aggregate of running queries past the pool. Blocked
queries are granted memory in deterministic FIFO submission order (no
bypass), each wait traced as an ``admission_wait`` span. Backpressure
changes only timing, never results: concurrent outcomes stay
byte-identical to a serial run.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.dyno import Dyno, QueryExecution
from repro.core.dynopt import MODE_DYNOPT
from repro.data.table import Row, Table
from repro.errors import DynoError, PlanError
from repro.jaql.expr import QuerySpec, Scan, transform_bottom_up
from repro.jaql.functions import UdfRegistry
from repro.obs.metrics import MetricsRegistry
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
    #: declared build/buffer memory this query needs while running; 0
    #: admits immediately (no governance). Demands above the cluster pool
    #: are clamped, so an oversized query runs alone instead of never.
    memory_demand_bytes: int = 0
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
    #: seconds from scheduler submission to execution start.
    wait_seconds: float = 0.0
    #: seconds from scheduler submission to completion.
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Admission:
    """Per-query state decided serially at submission time."""

    index: int
    request: QueryRequest
    prefix: str
    stages: list[tuple[QuerySpec, str | None]]
    #: globally monotonic admission ticket; the memory gate orders its
    #: waiters by it, so concurrent batches never collide (they used to
    #: share per-batch indices -- see ``_MemoryGate``).
    ticket: int = 0
    #: signatures this query runs the pilot for (it owns their events).
    claimed: list[str] = field(default_factory=list)
    #: signatures already in the metastore at admission.
    known: list[str] = field(default_factory=list)
    #: events of earlier in-flight queries that claimed shared signatures.
    wait_for: list[threading.Event] = field(default_factory=list)
    #: events this query must set when done (one per claimed signature).
    own_events: list[threading.Event] = field(default_factory=list)
    #: admission-time failure (parse/extraction error); skips execution.
    error: str | None = None
    #: result-cache identity of the original (unprefixed) request, or
    #: None when the request is not cacheable (see result_cache.py).
    identity: "RequestIdentity | None" = None
    #: perf_counter timestamp of scheduler submission (None for direct
    #: batches); wait/latency metrics derive from it.
    submitted_at: float | None = None

    @property
    def query_name(self) -> str:
        if not self.stages:
            return f"{self.prefix}.{self.request.name}"
        return self.stages[-1][0].name


class _MemoryGate:
    """Admission gate over the cluster memory pool.

    Grants are FIFO by *admission ticket* -- a globally monotonic number
    minted under the service's admission lock -- not wall-clock arrival:
    when memory frees, the lowest-ticket waiter goes first, and no later
    waiter may bypass it even if its own demand would fit (starvation
    freedom + determinism given the admission order). Deadlock-free by
    ordering: queries acquire memory only *after* their pilot-claim
    waits, so a memory holder never waits on a later admission.

    Tickets must be unique across *all* concurrent batches. They used to
    be per-batch submission indices: two concurrent ``run_batch`` calls
    both waited as index 0, the set's second ``add(0)`` was a no-op, the
    first ``discard(0)`` erased both markers -- leaving the still-blocked
    second waiter invisible, so ``try_acquire``'s empty-waiters fast path
    bypassed it and its own wake-up crashed on ``min(set())``.
    """

    def __init__(self, pool_bytes: int):
        self.pool_bytes = max(pool_bytes, 0)
        self._free = self.pool_bytes
        self._waiters: set[int] = set()
        self._condition = threading.Condition()

    def clamp(self, demand: int) -> int:
        """Demands above the pool run alone instead of never."""
        return min(max(demand, 0), self.pool_bytes)

    def try_acquire(self, demand: int) -> bool:
        """Non-blocking fast path; never bypasses existing waiters."""
        with self._condition:
            if not self._waiters and demand <= self._free:
                self._free -= demand
                return True
            return False

    def acquire(self, ticket: int, demand: int) -> float:
        """Block until granted; returns seconds spent waiting.

        ``ticket`` must be unique among concurrent callers (the service
        passes ``_Admission.ticket``); a duplicate would corrupt the
        waiter set exactly the way per-batch indices used to.
        """
        started = time.perf_counter()
        with self._condition:
            if ticket in self._waiters:
                raise PlanError(
                    f"duplicate memory-gate ticket {ticket}: admission "
                    "tickets must be globally unique"
                )
            self._waiters.add(ticket)
            try:
                while not (ticket == min(self._waiters)
                           and demand <= self._free):
                    self._condition.wait()
            finally:
                self._waiters.discard(ticket)
            self._free -= demand
            # The next-lowest waiter may fit in what remains.
            self._condition.notify_all()
        return time.perf_counter() - started

    def release(self, demand: int) -> None:
        with self._condition:
            self._free += demand
            self._condition.notify_all()


class QueryService:
    """Executes batches of queries over one shared simulated platform."""

    def __init__(self, tables: dict[str, Table],
                 config: DynoConfig = DEFAULT_CONFIG,
                 udfs: UdfRegistry | None = None,
                 metastore: StatisticsMetastore | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 workers: int = 4,
                 plan_cache: PlanCache | None = None,
                 feedback=None,
                 result_cache: ResultCache | bool | None = None):
        if workers < 1:
            raise PlanError("QueryService needs at least one worker")
        self.workers = workers
        # `or` would discard a caller's *empty* cache (len == 0 is falsy).
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: optional shared workload feedback store (repro.feedback); its
        #: own RLock makes it safe under the service's driver threads.
        self.feedback = feedback
        self.dyno = Dyno(tables, config=config, udfs=udfs,
                         metastore=metastore, tracer=tracer,
                         metrics=metrics, plan_cache=self.plan_cache,
                         feedback=feedback)
        self.tracer = self.dyno.tracer
        self.metrics = self.dyno.metrics
        self._memory_gate = _MemoryGate(
            config.cluster.effective_cluster_memory_bytes
        )
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
        # Admission is a critical section: batch ids and memory-gate
        # tickets are minted here, and both must be globally monotonic
        # across concurrent run_batch / drain callers.
        self._admit_lock = threading.Lock()
        self._batch_ids = itertools.count()
        self._admission_tickets = itertools.count()
        from repro.service.scheduler import QueryScheduler

        #: long-lived submission queue (see repro.service.scheduler);
        #: ``run_batch`` is a thin submit-everything-then-drain wrapper
        #: over it.
        self.scheduler = QueryScheduler(self)

    # -- public ---------------------------------------------------------------

    @property
    def metastore(self) -> StatisticsMetastore:
        return self.dyno.metastore

    def run_batch(self, requests: list[QueryRequest]) -> list[QueryOutcome]:
        """Execute ``requests`` concurrently; outcomes in submission order.

        Compatibility wrapper over the scheduler's ``submit()/drain()``:
        the whole list is enqueued at once and drained to completion.
        Because the drain is scoped to exactly these tickets, concurrent
        ``run_batch`` callers never steal each other's outcomes.
        """
        tickets = [self.scheduler.submit(request) for request in requests]
        return self.scheduler.drain(tickets)

    # -- admission ------------------------------------------------------------

    def _check_fault_guard(self) -> None:
        if self.dyno.runtime.fault_injector is not None and self.workers > 1:
            raise PlanError(
                "fault injection is driver-global; run the service with "
                "workers=1 when a fault plan is armed"
            )

    def _admit(self, requests: list[QueryRequest],
               indices: list[int] | None = None) -> list[_Admission]:
        """Serially classify each query's base-leaf signatures.

        Processing in admission order gives deterministic pilot ownership:
        the first query to mention an unseen signature claims its pilot;
        later queries sharing it wait for the claimant instead of racing
        it. The whole pass holds the admission lock: the batch id and the
        per-admission memory-gate tickets must be minted atomically, or
        two concurrent batches mint the same ``b{batch}.q{position}``
        prefix -- colliding query names, DFS intermediates and
        ``hits_for_prefix`` attribution.

        ``indices`` carries each request's submission index (defaults to
        its position); the scheduler passes per-drain sequence numbers so
        outcomes can be returned in submission order even when the fair
        dispatcher admitted them in a different order.
        """
        claims: dict[str, threading.Event] = {}
        admissions: list[_Admission] = []
        if indices is None:
            indices = list(range(len(requests)))
        with self._admit_lock:
            batch = next(self._batch_ids)
            for position, request in enumerate(requests):
                prefix = f"b{batch}.q{position:03d}"
                admission = _Admission(
                    index=indices[position], request=request,
                    prefix=prefix, stages=[],
                    ticket=next(self._admission_tickets),
                )
                try:
                    # Parse each SQL stage once; isolation and the
                    # result-cache identity both read the parsed specs.
                    parsed = [
                        (self.dyno.parse(spec, name="query")
                         if isinstance(spec, str) else spec, output)
                        for spec, output in request.stages
                    ]
                    admission.stages = self._isolate_stages(prefix, parsed)
                    seen: set[str] = set()
                    for spec, _ in admission.stages:
                        extracted = self.dyno.prepare(spec)
                        for leaf in extracted.block.base_leaves():
                            signature = leaf.signature()
                            if signature in seen:
                                continue
                            seen.add(signature)
                            if signature in self.dyno.metastore:
                                admission.known.append(signature)
                                continue
                            event = claims.get(signature)
                            if event is None:
                                event = threading.Event()
                                claims[signature] = event
                                admission.claimed.append(signature)
                                admission.own_events.append(event)
                            else:
                                admission.wait_for.append(event)
                    if self.result_cache is not None:
                        admission.identity = request_identity(
                            self.dyno, parsed
                        )
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
                        ticket=admission.ticket,
                        claimed=sorted(admission.claimed),
                        known=len(admission.known),
                        waiting=len(admission.wait_for),
                    )
                admissions.append(admission)
        return admissions

    # -- batch execution ------------------------------------------------------

    def _execute_admissions(
        self, admissions: list[_Admission]
    ) -> list[QueryOutcome]:
        """Run admitted queries on the driver pool, in admission order."""
        with self.tracer.span("service.batch",
                              queries=len(admissions),
                              workers=self.workers) as span:
            if self.workers == 1:
                outcomes = [self._run_one(adm) for adm in admissions]
            else:
                with ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="query-driver",
                ) as pool:
                    futures = [pool.submit(self._run_one, adm)
                               for adm in admissions]
                    outcomes = [future.result() for future in futures]
            span.set(
                pilot_jobs=sum(o.pilot_jobs for o in outcomes),
                pilots_skipped=sum(o.pilots_skipped for o in outcomes),
                plan_cache_hits=sum(o.plan_cache_hits for o in outcomes),
                result_cache_hits=sum(
                    1 for o in outcomes if o.result_cache_hit
                ),
                errors=sum(1 for o in outcomes if not o.ok),
            )
        if self.metrics.enabled:
            self.metrics.inc("service.batches")
            self.metrics.inc("service.queries", len(outcomes))
        return outcomes

    def _isolate_stages(
        self, prefix: str,
        stages: list[tuple[QuerySpec, str | None]],
    ) -> list[tuple[QuerySpec, str | None]]:
        """Rename specs (and intermediate tables) under a per-query prefix.

        Job names, DFS outputs, pilot counters and tracer spans all derive
        from the spec name, so the prefix is what keeps concurrent copies
        of one query apart in the shared namespace.
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

    def _acquire_memory(self, admission: _Admission) -> int:
        """Charge the query's declared demand; block under backpressure.

        Returns the bytes actually held (0 for undeclared queries), which
        the caller must release when the query completes.
        """
        demand = self._memory_gate.clamp(
            admission.request.memory_demand_bytes
        )
        if demand == 0:
            return 0
        if self._memory_gate.try_acquire(demand):
            return demand
        with self.tracer.span(
            "admission_wait",
            query=admission.query_name,
            ticket=admission.ticket,
            demand_bytes=demand,
            pool_bytes=self._memory_gate.pool_bytes,
        ) as span:
            waited = self._memory_gate.acquire(admission.ticket, demand)
            span.set(waited_s=round(waited, 6))
        if self.metrics.enabled:
            self.metrics.inc("service.admission_waits")
            self.metrics.observe("service.admission_wait_s", waited)
        return demand

    def _lookup_result(self, admission: _Admission) -> list[Row] | None:
        """Probe the result cache; None on miss or uncacheable identity."""
        if self.result_cache is None or admission.identity is None:
            return None
        key = admission.identity.key(self.metastore, self.feedback)
        if key is None:  # some contributing statistics still unknown
            return None
        rows = self.result_cache.lookup(key)
        if self.tracer.enabled:
            self.tracer.event("result_cache",
                              query=admission.query_name,
                              hit=rows is not None)
        if self.metrics.enabled:
            self.metrics.inc("service.result_cache_hits"
                             if rows is not None
                             else "service.result_cache_misses")
        return rows

    def _store_result(self, admission: _Admission,
                      rows: list[Row]) -> None:
        """Cache a completed query's rows under its post-run identity."""
        if self.result_cache is None or admission.identity is None:
            return
        key = admission.identity.key(self.metastore, self.feedback)
        if key is None:
            return
        self.result_cache.store(key, rows,
                                admission.identity.contributing)

    def _run_one(self, admission: _Admission) -> QueryOutcome:
        request = admission.request
        outcome = QueryOutcome(admission.index, request.name,
                               admission.query_name,
                               tenant=request.tenant)
        started = time.perf_counter()
        if admission.submitted_at is not None:
            outcome.wait_seconds = started - admission.submitted_at
            if self.metrics.enabled:
                self.metrics.inc("service.tenant_waits")
                self.metrics.observe("service.tenant_wait_s",
                                     outcome.wait_seconds)
                self.metrics.observe(
                    f"service.tenant_wait_s.{request.tenant}",
                    outcome.wait_seconds,
                )
        held_bytes = 0
        try:
            if admission.error is not None:
                outcome.error = admission.error
                return outcome
            for event in admission.wait_for:
                event.wait()
            cached_rows = self._lookup_result(admission)
            if cached_rows is not None:
                outcome.rows = cached_rows
                outcome.result_cache_hit = True
                return outcome
            held_bytes = self._acquire_memory(admission)
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
            if held_bytes:
                self._memory_gate.release(held_bytes)
            # Claims are coordination, not correctness: if this query died
            # before collecting its claimed statistics, waiters find the
            # metastore still empty and simply run the pilots themselves.
            for event in admission.own_events:
                event.set()
            if admission.submitted_at is not None:
                outcome.latency_seconds = \
                    time.perf_counter() - admission.submitted_at
            if self.tracer.enabled:
                self.tracer.event(
                    "service.complete",
                    query=admission.query_name,
                    tenant=request.tenant,
                    rows=len(outcome.rows),
                    pilot_jobs=outcome.pilot_jobs,
                    pilots_skipped=outcome.pilots_skipped,
                    plan_cache_hits=outcome.plan_cache_hits,
                    result_cache_hit=outcome.result_cache_hit,
                    error=outcome.error,
                )
        return outcome
