"""Metrics registry: counters and observation summaries, read off the trace.

Complements :mod:`repro.obs.tracer`: the tracer answers "what happened,
in what order"; the registry answers "how much, in total". It is not a
second instrumentation channel. A registry is a trace sink -- hand it to
the tracer (``Tracer(registry)``, or ``Tracer(JsonLinesSink(path),
registry)`` beside a trace file) and :meth:`MetricsRegistry.write` folds
every record through :data:`FOLD_TABLE`, the one place metric names
are defined. Two primitive kinds keep it dependency-free and cheap:

* **counters** -- monotonically increasing tallies
  (``jobs.executed``, ``dynopt.replans``);
* **observations** -- per-sample statistics (count / total / min / max /
  mean) over a named value stream (``qerror.rows``,
  ``query.sim_pilot_s``). The q-error observations are the paper's
  estimated-vs-actual audit in aggregate form.

``summary()`` renders everything as one plain dict, ``save()`` writes it
as JSON (the CLI's ``--metrics PATH``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = ["FOLDS", "FOLD_TABLE", "Fold", "MetricsRegistry", "q_error"]


def q_error(estimated: float, actual: float) -> float:
    """The standard cardinality-estimation quality metric.

    ``max(est/act, act/est)`` with both sides clamped to >= 1 row, so a
    perfect estimate scores 1.0 and the measure is symmetric in over- and
    under-estimation.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated / actual, actual / estimated)


COUNTER, OBSERVATION = "counter", "observation"


class Fold(NamedTuple):
    """One metric read off one kind of trace record."""

    record: str
    #: ``{attr}`` fields are filled from the record's attrs.
    metric: str
    kind: str
    #: the attribute (or ``dur_s``) carrying the value; None counts 1.
    value: str | None = None
    #: fold only the records whose attrs this predicate accepts.
    when: Callable[[dict], bool] | None = None


#: Every metric and the record it is read off. Events fold when emitted,
#: spans when they end; a span that raised (``error`` set on its end)
#: folds nothing. ``docs/observability.md`` tabulates this mapping.
FOLD_TABLE: tuple[Fold, ...] = (
    Fold("query", "queries.executed", COUNTER),
    Fold("query", "query.driver_wall_s", OBSERVATION, "dur_s"),
    Fold("query", "query.sim_pilot_s", OBSERVATION, "sim_pilot_s"),
    Fold("query", "query.sim_optimizer_s", OBSERVATION, "sim_optimizer_s"),
    Fold("query", "query.sim_execution_s", OBSERVATION, "sim_execution_s"),
    Fold("pilot", "pilot.jobs_run", COUNTER, "jobs_run",
         lambda a: a["jobs_run"]),
    Fold("pilot", "pilot.sim_s", OBSERVATION, "sim_s",
         lambda a: a["jobs_run"]),
    Fold("pilot", "pilot.reused", COUNTER, "reused", lambda a: a["reused"]),
    Fold("plan_cache", "plan_cache.hits", COUNTER, when=lambda a: a["hit"]),
    Fold("plan_cache", "plan_cache.misses", COUNTER,
         when=lambda a: not a["hit"]),
    Fold("optimize", "dynopt.optimizations", COUNTER),
    Fold("optimize", "optimizer.sim_s", OBSERVATION, "sim_s"),
    Fold("estimate", "dynopt.subplans_executed", COUNTER),
    Fold("estimate", "dynopt.estimate_misses", COUNTER,
         when=lambda a: a["missed"]),
    Fold("estimate", "qerror.rows", OBSERVATION, "q_error_rows"),
    Fold("estimate", "qerror.bytes", OBSERVATION, "q_error_bytes"),
    Fold("midjob_replan", "dynopt.midjob_replans", COUNTER),
    Fold("replan", "dynopt.replans", COUNTER),
    Fold("recover", "dynopt.recovered_jobs", COUNTER),
    Fold("job", "jobs.executed", COUNTER),
    Fold("job", "rows.output", COUNTER, "rows"),
    Fold("job", "bytes.output", COUNTER, "bytes"),
    Fold("job", "job.driver_wall_s", OBSERVATION, "driver_wall_s"),
    Fold("job", "job.sim_elapsed_s", OBSERVATION, "sim_elapsed_s"),
    Fold("spill", "bytes.spilled", COUNTER, "spilled_bytes"),
    Fold("batch", "batch.makespan_s", OBSERVATION, "makespan_s"),
    Fold("fault", "faults.events", COUNTER),
    Fold("fault", "faults.node_losses", COUNTER,
         when=lambda a: a["detail"].startswith("node-loss")),
    Fold("task_retry", "faults.task_retries", COUNTER),
    Fold("straggler", "faults.stragglers", COUNTER),
    Fold("service.submit", "service.queue_depth", OBSERVATION, "depth"),
    Fold("service.drain", "service.queue_depth", OBSERVATION,
         "remaining_depth"),
    Fold("service.batch", "service.batches", COUNTER),
    Fold("service.batch", "service.queries", COUNTER, "queries"),
    Fold("result_cache", "service.result_cache_hits", COUNTER,
         when=lambda a: a["hit"]),
    Fold("result_cache", "service.result_cache_misses", COUNTER,
         when=lambda a: not a["hit"]),
    Fold("service.complete", "service.tenant_waits", COUNTER),
    Fold("service.complete", "service.tenant_wait_s", OBSERVATION, "wait_s"),
    Fold("service.complete", "service.tenant_wait_s.{tenant}", OBSERVATION,
         "wait_s"),
    Fold("cdc.batch", "incremental.cdc_batches", COUNTER),
    Fold("cdc.batch", "incremental.cdc_rows", OBSERVATION, "delta_rows"),
    Fold("refresh.decision", "incremental.refresh_{strategy}", COUNTER),
)

#: :data:`FOLD_TABLE` by record name.
FOLDS: dict[str, list[Fold]] = {}
for _fold in FOLD_TABLE:
    FOLDS.setdefault(_fold.record, []).append(_fold)


class MetricsRegistry:
    """Named counters and observation streams; a trace sink."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        #: name -> [count, total, min, max]
        self._observations: dict[str, list[float]] = {}

    # -- the sink ---------------------------------------------------------

    def write(self, record: dict) -> None:
        """Fold one trace record into the metrics :data:`FOLDS` names."""
        attrs = record["attrs"]
        if record["kind"] == "span_start" or (
                record["kind"] == "span_end" and "error" in attrs):
            return
        for fold in FOLDS.get(record["name"], ()):
            if fold.when is not None and not fold.when(attrs):
                continue
            metric = fold.metric.format_map(attrs)
            value = (1.0 if fold.value is None else attrs[fold.value]
                     if fold.value in attrs else record[fold.value])
            if fold.kind == COUNTER:
                self.inc(metric, value)
            else:
                self.observe(metric, value)

    def close(self) -> None:
        pass

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        entry = self._observations.get(name)
        if entry is None:
            self._observations[name] = [1.0, value, value, value]
        else:
            entry[0] += 1.0
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def observation(self, name: str) -> dict | None:
        entry = self._observations.get(name)
        if entry is None:
            return None
        count, total, low, high = entry
        return {
            "count": int(count),
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count,
        }

    def summary(self) -> dict:
        """Everything recorded so far, as one JSON-serializable dict."""
        counters = dict(sorted(self._counters.items()))
        names = sorted(self._observations)
        return {
            "counters": counters,
            "observations": {
                name: self.observation(name) for name in names
            },
        }

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"
        )
