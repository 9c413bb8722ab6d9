"""Benchmark-side tracing: timing wrappers around each layer's entry points.

The traced pass patches the public entry points listed in ``TARGETS``
with wrappers that record one span per call -- id, name, start, end,
parent, op id, thread -- and harvest counts from the call's *return
value* (``PilotReport``, ``OptimizationResult``, ``BatchResult`` ...), so
ratios are measured where the work happens. Nothing inside ``src/`` is
edited and ``repro.obs`` is not used; :meth:`Tracer.remove` puts every
original attribute back.

Spans stay in memory until :func:`write_spans` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

from repro.cluster.counters import Counters

#: op id of spans recorded outside the timed segments (set-up, checks).
UNTIMED = -1


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int


# -- harvesters: counts read off return values -------------------------------


def _pilot(tracer: "Tracer", report) -> None:
    tracer.add("pilot.jobs_run", report.jobs_run)
    tracer.add("pilot.leaves_reused",
               sum(1 for leaf in report.outcomes.values() if leaf.reused))
    tracer.add("pilot.sim_s", report.simulated_seconds)


def _search(tracer: "Tracer", result) -> None:
    tracer.add("optimizer.plans_considered", result.plans_considered)


def _block(tracer: "Tracer", result) -> None:
    tracer.add("dynopt.iterations", len(result.iterations))
    tracer.add("dynopt.plan_changes", result.plan_changes)
    tracer.add("dynopt.sim_optimizer_s", result.optimizer_seconds)
    tracer.add("dynopt.sim_execution_s", result.execution_seconds)


def _batch(tracer: "Tracer", batch) -> None:
    tracer.add("runtime.jobs", len(batch.results))
    for job in batch.results.values():
        counters = job.counters
        tracer.add("runtime.map_input_records",
                   counters.total(Counters.MAP_INPUT_RECORDS))
        tracer.add("runtime.shuffle_bytes",
                   counters.total(Counters.SHUFFLE_BYTES))
        tracer.add("runtime.output_records", job.output_rows)
        tracer.add("runtime.spilled_bytes", job.spilled_bytes)


def _drain(tracer: "Tracer", outcomes) -> None:
    for outcome in outcomes:
        tracer.sample("sched.wait_ms", outcome.wait_seconds * 1e3)
        tracer.sample("sched.exec_ms", (outcome.latency_seconds
                                        - outcome.wait_seconds) * 1e3)
        tracer.sample("sched.latency_ms", outcome.latency_seconds * 1e3)


def _apply(tracer: "Tracer", applied) -> None:
    tracer.add("cdc.delta_rows", applied.delta_rows)


def _refresh(tracer: "Tracer", report) -> None:
    tracer.add("standing.delta_count", report.delta_count)
    tracer.add("standing.full_count", report.full_count)
    tracer.add("standing.sim_s",
               sum(outcome.simulated_seconds
                   for outcome in report.outcomes))


class Target(NamedTuple):
    #: ``module:Class`` for a method, ``module`` for a module attribute
    #: (the module that *looks the name up* at call time).
    owner: str
    attr: str
    span: str
    harvest: Callable[["Tracer", object], None] | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.core.dyno:Dyno", "parse", "jaql.parse"),
    Target("repro.core.dyno:Dyno", "prepare", "jaql.prepare"),
    Target("repro.core.dyno:Dyno", "execute_multi", "dyno.execute_multi"),
    Target("repro.jaql.compiler:PlanCompiler", "compile_block",
           "jaql.compile"),
    Target("repro.jaql.compiler:PlanCompiler", "compile_group_by",
           "jaql.compile"),
    Target("repro.core.pilot:PilotRunner", "run", "pilot.run", _pilot),
    Target("repro.optimizer.search:JoinOptimizer", "optimize",
           "optimizer.search", _search),
    Target("repro.core.dynopt:DynoptExecutor", "execute_block",
           "dynopt.execute_block", _block),
    Target("repro.cluster.runtime:ClusterRuntime", "execute_batch",
           "runtime.execute_batch", _batch),
    Target("repro.cluster.scheduler:SlotScheduler", "schedule",
           "slots.schedule"),
    Target("repro.stats.collector:TaskStatsCollector", "observe",
           "stats.observe"),
    Target("repro.stats.collector:TaskStatsCollector", "observe_batch",
           "stats.observe"),
    Target("repro.stats.collector:TaskStatsCollector", "observe_columns",
           "stats.observe"),
    Target("repro.cluster.runtime", "merge_published_stats",
           "stats.merge"),
    Target("repro.stats.metastore:StatisticsMetastore", "put",
           "stats.metastore.put"),
    Target("repro.storage.dfs:DistributedFileSystem", "write_rows",
           "dfs.write_rows"),
    Target("repro.storage.dfs:DistributedFileSystem", "read_all",
           "dfs.read_all"),
    Target("repro.service.scheduler:QueryScheduler", "submit",
           "sched.submit"),
    Target("repro.service.scheduler:QueryScheduler", "drain",
           "sched.drain", _drain),
    Target("repro.service.plan_cache:PlanCache", "lookup",
           "plan_cache.lookup"),
    Target("repro.service.plan_cache:PlanCache", "store",
           "plan_cache.store"),
    Target("repro.service.service", "request_identity",
           "result_cache.identity"),
    Target("repro.service.result_cache:RequestIdentity", "key",
           "result_cache.key"),
    Target("repro.service.result_cache:ResultCache", "lookup",
           "result_cache.lookup"),
    Target("repro.service.result_cache:ResultCache", "store",
           "result_cache.store"),
    Target("repro.incremental.cdc:ChangeGenerator", "next_batch",
           "cdc.generate"),
    Target("repro.incremental.cdc", "apply_change_batch", "cdc.apply",
           _apply),
    Target("repro.incremental.standing:StandingQueryManager", "refresh",
           "standing.refresh", _refresh),
)

DRAIN_SPAN = "sched.drain"


def resolve(owner: str):
    """The class or module a target's attribute lives on."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Span and count recorder; install() patches, remove() restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: id of the op the load thread is inside, UNTIMED between ops.
        self.op = UNTIMED
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_drain: int | None = None
        self._harvest_lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            owner = resolve(target.owner)
            original = vars(owner)[target.attr]
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr,
                    self.wrap(original, target.span, target.harvest))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def wrap(self, fn, name: str, harvest=None):
        """``fn`` timed as one span per call.

        A span's parent is the innermost open span of its own thread;
        a span opened on a thread with no open span (a service driver
        thread) takes the open ``sched.drain`` span as parent, since the
        drain is what dispatched it.
        """
        is_drain = name == DRAIN_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._open_drain
            op = self.op
            stack.append(span_id)
            if is_drain:
                self._open_drain = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_drain:
                    self._open_drain = None
                self.spans.append(Span(span_id, name, start, end, parent,
                                       op, threading.get_ident()))
            if harvest is not None and op != UNTIMED:
                with self._harvest_lock:
                    harvest(self, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- harvested values ----------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the part its child spans cover.

    Children may overlap one another (driver threads under one drain),
    so the covered part is the *union* of the child intervals clipped to
    the parent's own interval.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda item: item.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end - span.start) - covered
    return result


class LayerTotals(NamedTuple):
    calls: int
    busy_s: float
    self_s: float


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive time and self time, summed
    over threads."""
    own = self_times(spans)
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own[span.id]
    return {name: LayerTotals(int(calls), busy, self_s)
            for name, (calls, busy, self_s) in totals.items()}


def time_under(spans: list[Span], name: str, ancestor: str) -> float:
    """Inclusive time of ``name`` spans that have an ``ancestor`` span
    somewhere above them."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None:
            above = by_id[parent]
            if above.name == ancestor:
                total += span.end - span.start
                break
            parent = above.parent
    return total


def root_time(spans: list[Span]) -> float:
    """Time covered by parentless spans: what the trace accounts for."""
    return sum(span.end - span.start for span in spans
               if span.parent is None)


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
