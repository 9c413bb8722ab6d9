"""The four workloads: what each sets up, what one op is, what it checks.

Every workload runs under ``DEFAULT_CONFIG`` with one load-generating
thread in a closed loop over a fixed number of ops. ``setup`` builds
everything the timed phase needs (it is what ``setup_s`` times); ``run``
drives the ops through a :class:`Recorder`, timing only the segments it
opens -- the correctness gate runs between segments.

Why these four, and which is the bypass for which:

* ``adhoc_cold`` -- the paper's scenario: every query starts with an
  empty metastore, so pilots, optimizer search, compilation, the data
  path, statistics collection and re-optimization do all the work. It
  bypasses the service scheduler and both caches.
* ``serving_uncached`` -- the service with the result cache off: leaf
  statistics are reused and most optimizations hit the plan cache, so
  the data path dominates and pilots/search nearly vanish.
* ``serving_cached`` -- same request generator with the result cache
  on and smaller than the pool: the median request is a hit served by
  the front door (queue, admission, identity, key, copy-on-read); only
  the tail executes. It bypasses the data path on the median.
* ``standing_refresh`` -- writes beside reads: change batches land
  through the same service, caches and metastore and standing queries
  refresh by delta or full recompute.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.dyno import Dyno
from repro.core.dynopt import MODE_DYNOPT
from repro.data.tpch import generate_tpch
from repro.incremental import StandingQueryManager, cdc
from repro.service import QueryRequest, QueryService
from repro.workloads.changing import (
    KEY_COLUMNS,
    changing_tables,
    changing_udfs,
    standing_workloads,
)
from repro.workloads.mixed import mixed_tables, mixed_udfs
from repro.workloads.queries import TPCH_WORKLOADS
from repro.workloads.skewed import (
    DEFAULT_SEED as SKEW_SEED,
    SKEWED_WORKLOADS,
    generate_skewed,
)

from . import generators
from .checks import fingerprint, oracle_fingerprint
from .tracing import UNTIMED

#: the sizes are calibrated so a timed phase takes about this long on the
#: 2-core reference sandbox; ``--seconds`` scales the op counts linearly.
NOMINAL_SECONDS = 20
WINDOW = 12

SIZES = {
    "full": {
        "adhoc_cold": {"tpch_sf": 0.25, "skew_scale": 1.0, "passes": 15},
        "serving_uncached": {"tpch_sf": 0.02, "weblog_events": 2000,
                             "requests": 1080},
        "serving_cached": {"tpch_sf": 0.02, "weblog_events": 2000,
                           "requests": 3000},
        # ChangeGenerator.next_batch is quadratic in table size (each
        # insert rescans for the top key), so the weblog scale is what
        # keeps pre-generating 100+ batches inside the set-up budget.
        "standing_refresh": {"scale": 0.1, "cycles": 17},
    },
    "smoke": {
        "adhoc_cold": {"tpch_sf": 0.02, "skew_scale": 0.1, "passes": 2},
        "serving_uncached": {"tpch_sf": 0.01, "weblog_events": 300,
                             "requests": 48},
        "serving_cached": {"tpch_sf": 0.01, "weblog_events": 300,
                           "requests": 96},
        "standing_refresh": {"scale": 0.02, "cycles": 2},
    },
}
#: the size keys that count ops and therefore scale with ``--seconds``.
OP_COUNT_KEYS = ("passes", "requests", "cycles")


def sizes_for(workload: str, size: str, seconds: float) -> dict:
    """The size table entry with its op count scaled to ``seconds``."""
    sizes = dict(SIZES[size][workload])
    factor = seconds / NOMINAL_SECONDS
    for key in OP_COUNT_KEYS:
        if key in sizes:
            scaled = max(1, round(sizes[key] * factor))
            if key == "requests":
                scaled = max(WINDOW, scaled // WINDOW * WINDOW)
            sizes[key] = scaled
    return sizes


@dataclass
class Recorder:
    """Per-op measurements of one timed phase."""

    tracer: object | None = None
    timed_wall_s: float = 0.0
    latencies_s: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    sim_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @contextmanager
    def segment(self, op_id: int):
        """Time one stretch of load; everything outside is untimed."""
        if self.tracer is not None:
            self.tracer.op = op_id
        started = time.perf_counter()
        try:
            yield
        finally:
            self.timed_wall_s += time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.op = UNTIMED

    def op(self, op_class: str, latency_s: float, sim_s: float) -> None:
        self.attempted += 1
        self.latencies_s[op_class].append(latency_s)
        self.sim_s += sim_s

    def fail(self, reason: str) -> None:
        """One op raised, returned an error, or failed its check."""
        self.failures.append(reason)

    def expect(self, what: str, actual: str, expected: str) -> None:
        if actual != expected:
            self.fail(f"{what}: result differs from its reference")


@dataclass
class State:
    """What a set-up hands the timed phase (and the layer summary)."""

    engines: list[Dyno]
    service: QueryService | None = None
    extra: dict = field(default_factory=dict)


# -- adhoc_cold --------------------------------------------------------------


def adhoc_setup(seed: int, sizes: dict) -> State:
    tpch = [factory() for factory in TPCH_WORKLOADS.values()]
    skewed = [factory() for factory in SKEWED_WORKLOADS.values()]
    tpch_engine = Dyno(generate_tpch(sizes["tpch_sf"], seed=seed).tables,
                       udfs=mixed_udfs(tpch))
    # The skewed tables keep their generator's tuned seed: where the two
    # hot keys land decides SkewJoin's plan, which moves its simulated
    # seconds 2x from seed to seed and would drown sim_s_per_op.
    skew_engine = Dyno(generate_skewed(sizes["skew_scale"], seed=SKEW_SEED),
                       udfs=mixed_udfs(skewed))
    queries = ([(tpch_engine, workload) for workload in tpch]
               + [(skew_engine, workload) for workload in skewed])
    return State([tpch_engine, skew_engine], extra={"queries": queries})


def adhoc_run(state: State, sizes: dict, rec: Recorder) -> None:
    """One op = clear the metastore, then one query end to end."""
    first: dict[str, str] = {}
    results = []
    op_id = 0
    for _ in range(sizes["passes"]):
        for engine, workload in state.extra["queries"]:
            with rec.segment(op_id):
                started = time.perf_counter()
                try:
                    engine.metastore.clear()
                    execution = engine.execute_multi(
                        workload.stages, mode=MODE_DYNOPT,
                        strategy="UNC-1", pilot_mode="MT")
                except Exception as error:  # noqa: BLE001 - a failed op
                    # is a counted outcome, not a harness crash.
                    execution = None
                    failure = f"{type(error).__name__}: {error}"
                latency = time.perf_counter() - started
            op_id += 1
            if execution is None:
                rec.op(workload.name, latency, 0.0)
                rec.fail(f"{workload.name}: {failure}")
                continue
            rec.op(workload.name, latency, execution.total_seconds)
            results.append((engine, workload, execution.rows))
    for engine, workload, rows in results:
        seen = fingerprint(workload.final_spec, rows)
        if workload.name not in first:
            first[workload.name] = seen
            # Intermediate tables of multi-block queries (Q2) live in
            # engine.tables; the oracle rebuilds them from base tables.
            rec.expect(f"{workload.name} vs interpreter", seen,
                       oracle_fingerprint(engine.tables, workload.stages))
        else:
            rec.expect(f"{workload.name} repeat", seen,
                       first[workload.name])


# -- serving_uncached / serving_cached ---------------------------------------


def serving_setup(seed: int, sizes: dict, result_cache: bool) -> State:
    tables = mixed_tables(sizes["tpch_sf"], seed=seed,
                          weblog_events=sizes["weblog_events"])
    # workers=1: under the GIL a second driver adds no throughput and
    # makes cache-hit counts wobble with thread timing; with one, every
    # count repeats exactly.
    service = QueryService(tables, udfs=changing_udfs(), workers=1,
                           result_cache=result_cache)
    pool = generators.query_pool(seed)
    stream = generators.request_stream(len(pool), sizes["requests"], seed)
    requests = []
    for position, index in enumerate(stream):
        tenant, priority = generators.tenant_of(position)
        query = pool[index]
        requests.append(QueryRequest.single(
            query.name, query.sql, tenant=tenant, priority=priority))
    return State([service.dyno], service,
                 {"pool": {query.name: query for query in pool},
                  "requests": requests})


def serving_run(state: State, sizes: dict, rec: Recorder) -> None:
    """One op = one request; driven in windows of 12 submits + a drain."""
    service = state.service
    pool = state.extra["pool"]
    requests = state.extra["requests"]
    specs: dict[str, object] = {}
    first: dict[str, str] = {}
    for window, begin in enumerate(range(0, len(requests), WINDOW)):
        batch = requests[begin:begin + WINDOW]
        with rec.segment(window):
            tickets = [service.scheduler.submit(request)
                       for request in batch]
            outcomes = service.scheduler.drain(tickets)
        if len(outcomes) != len(batch):
            rec.fail(f"window {window}: {len(batch) - len(outcomes)} "
                     "request(s) lost")
        for outcome in outcomes:
            query = pool[outcome.name]
            sim_s = (outcome.execution.total_seconds
                     if outcome.execution is not None else 0.0)
            rec.op(query.template, outcome.latency_seconds, sim_s)
            if outcome.error is not None:
                rec.fail(f"{outcome.name}: {outcome.error}")
                continue
            spec = specs.get(outcome.name)
            if spec is None:
                spec = specs[outcome.name] = service.dyno.parse(
                    query.sql, outcome.name)
            seen = fingerprint(spec, outcome.rows)
            if outcome.name not in first:
                first[outcome.name] = seen
                rec.expect(f"{outcome.name} vs interpreter", seen,
                           oracle_fingerprint(service.dyno.tables,
                                              [(spec, None)]))
            else:
                kind = "cache hit" if outcome.result_cache_hit \
                    else "repeat"
                rec.expect(f"{outcome.name} {kind}", seen,
                           first[outcome.name])


# -- standing_refresh --------------------------------------------------------


def standing_setup(seed: int, sizes: dict) -> State:
    tables = changing_tables(sizes["scale"], seed=seed)
    service = QueryService(tables, udfs=changing_udfs(), workers=1,
                           result_cache=True)
    manager = StandingQueryManager(service)
    for workload in standing_workloads():
        manager.register(workload.name, workload.final_spec)
    batches = generators.change_batches(tables, sizes["cycles"], seed)
    return State([service.dyno], service,
                 {"manager": manager, "batches": batches})


def standing_run(state: State, sizes: dict, rec: Recorder) -> None:
    """One op = apply one change batch + refresh the standing queries."""
    dyno = state.service.dyno
    manager = state.extra["manager"]
    steps = len(generators.CYCLE)
    for op_id, (step, batch) in enumerate(state.extra["batches"]):
        with rec.segment(op_id):
            started = time.perf_counter()
            try:
                # Looked up on the module so the traced pass sees it.
                applied = cdc.apply_change_batch(
                    dyno, batch, KEY_COLUMNS[batch.table])
                report = manager.refresh(applied)
            except Exception as error:  # noqa: BLE001 - counted, as above
                report = None
                failure = f"{type(error).__name__}: {error}"
            latency = time.perf_counter() - started
        if report is None:
            rec.op(step, latency, 0.0)
            rec.fail(f"batch {op_id} ({step}): {failure}")
            continue
        rec.op(step, latency, sum(outcome.simulated_seconds
                                  for outcome in report.outcomes))
        for outcome in report.outcomes:
            if not outcome.ok:
                rec.fail(f"batch {op_id} ({step}) {outcome.query}: "
                         f"{outcome.error}")
        if (op_id + 1) % steps == 0:
            for name, standing in manager.queries.items():
                rec.expect(
                    f"{name} after cycle {op_id // steps}",
                    fingerprint(standing.spec, manager.result(name)),
                    oracle_fingerprint(dyno.tables,
                                       [(standing.spec, None)]))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    run: object


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            "adhoc_cold",
            "the paper's scenario: cold metastore, so pilots, search, "
            "the data path and re-optimization do all the work; "
            "scheduler and caches bypassed",
            adhoc_setup, adhoc_run),
        Workload(
            "serving_uncached",
            "service with the result cache off: statistics and plans "
            "are reused, so the data path dominates and pilots/search "
            "nearly vanish",
            lambda seed, sizes: serving_setup(seed, sizes, False),
            serving_run),
        Workload(
            "serving_cached",
            "result cache smaller than the query pool: the median "
            "request is a hit served by the front door, only the tail "
            "executes; bypasses the data path",
            lambda seed, sizes: serving_setup(seed, sizes, True),
            serving_run),
        Workload(
            "standing_refresh",
            "change batches beside reads through the same service: "
            "delta tables, epoch bumps, cache invalidation and the "
            "delta-vs-full refresh rule",
            standing_setup, standing_run),
    )
}
