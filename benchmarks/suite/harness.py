"""One workload, one process: set up, time, check, assemble the metrics.

``measure`` is the whole protocol for one workload:

* untraced (``trace=False``): set up ``SETUP_REPEATS`` times or more
  (``setup_s`` is their median, so one slow allocation does not read as
  a regression), run the timed phase once on the last set-up, report the
  end-to-end metrics;
* traced (``trace=True``): one untraced pass for the reference
  throughput, then a second pass at the same sizes with the timing
  wrappers installed; report the per-layer metrics and the overhead.

Metric names, units and directions are defined in :mod:`.metrics`.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path

from . import stats
from .metrics import END_TO_END, FAILED_OPS_RATIO, PER_LAYER, TRACED_COUNTS
from .tracing import (
    UNTIMED,
    LayerTotals,
    Tracer,
    layer_totals,
    root_time,
    time_under,
    write_spans,
)
from .workloads import WORKLOADS, Recorder, State, sizes_for

SETUP_REPEATS = 3
#: cheap set-ups (tens of ms) repeat until this much time went into them,
#: up to MAX_SETUP_REPEATS, so their median is not one noisy sample.
SETUP_BUDGET_S = 1.5
MAX_SETUP_REPEATS = 15


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counts(state: State) -> dict[str, float]:
    """Hit/miss/invalidation counts from the caches' own summaries."""
    counts: dict[str, float] = {}
    service = state.service
    caches = {"plan_cache": service.plan_cache if service else None,
              "result_cache": service.result_cache if service else None}
    for name, cache in caches.items():
        summary = cache.summary() if cache is not None else {}
        for key in ("hits", "misses", "invalidations"):
            counts[f"{name}.{key}"] = float(summary.get(key, 0))
    return counts


def _timed_pass(workload, seed: int, sizes: dict, tracer: Tracer | None,
                setups: list[float]) -> tuple[Recorder, State]:
    """One set-up (its time appended to ``setups``) + one timed phase."""
    started = time.perf_counter()
    state = workload.setup(seed, sizes)
    setups.append(time.perf_counter() - started)
    gc.collect()
    rec = Recorder(tracer)
    workload.run(state, sizes, rec)
    return rec, state


def _end_to_end(rec: Recorder, setups: list[float]) -> dict[str, float]:
    latencies_ms = {
        op_class: [value * 1e3 for value in values]
        for op_class, values in rec.latencies_s.items()
    }
    everything = [value for values in latencies_ms.values()
                  for value in values]
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": rec.attempted / rec.timed_wall_s,
        "latency_ms_p50": stats.percentile(everything, 0.50),
        "latency_ms_p90": stats.percentile(everything, 0.90),
        "latency_ms_geomean": stats.geomean_of_class_medians(latencies_ms),
        "sim_s_per_op": rec.sim_s / rec.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "failed_ops_ratio": _failed(rec) / rec.attempted,
    }


def _failed(rec: Recorder) -> int:
    return min(len(rec.failures), rec.attempted)


def _layer_extras(tracer: Tracer, timed: list, rec: Recorder, state: State,
                  untraced_throughput: float) -> dict[str, float]:
    """Per-layer values that are not plain span totals or harvested counts."""
    untimed = layer_totals(
        [span for span in tracer.spans if span.op == UNTIMED])
    caches = _cache_counts(state)
    extras = {
        "runtime.execute_batch.under_pilot_s": time_under(
            timed, "runtime.execute_batch", "pilot.run"),
        "stats.metastore.entries": float(sum(
            len(engine.metastore) for engine in state.engines)),
        "dfs.files": float(sum(
            len(engine.dfs.list_files()) for engine in state.engines)),
        "cdc.generate.self_s": untimed.get(
            "cdc.generate", LayerTotals(0, 0.0, 0.0)).self_s,
        "plan_cache.invalidations": caches["plan_cache.invalidations"],
        "result_cache.invalidations": caches["result_cache.invalidations"],
        "trace.overhead_pct": (untraced_throughput
                               / (rec.attempted / rec.timed_wall_s)
                               - 1.0) * 100.0,
        "trace.coverage_pct": root_time(timed) / rec.timed_wall_s * 100.0,
    }
    for cache in ("plan_cache", "result_cache"):
        probes = caches[f"{cache}.hits"] + caches[f"{cache}.misses"]
        extras[f"{cache}.hit_ratio"] = (
            caches[f"{cache}.hits"] / probes if probes else 0.0)
    for name, fraction in (("sched.wait_ms", 0.50), ("sched.exec_ms", 0.50),
                           ("sched.latency_ms", 0.99)):
        samples = tracer.samples.get(name)
        extras[f"{name}_p{round(fraction * 100)}"] = (
            stats.percentile(samples, fraction) if samples else 0.0)
    return extras


def _per_layer(tracer: Tracer, rec: Recorder, state: State,
               untraced_throughput: float) -> dict[str, float]:
    timed = [span for span in tracer.spans if span.op != UNTIMED]
    totals = layer_totals(timed)
    extras = _layer_extras(tracer, timed, rec, state, untraced_throughput)
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in extras:
            values[name] = extras[name]
        elif kind in LayerTotals._fields:
            values[name] = float(getattr(
                totals.get(span, LayerTotals(0, 0.0, 0.0)), kind))
        else:
            values[name] = float(tracer.counts.get(name, 0.0))
    return values


def measure(workload_name: str, seed: int, seconds: float, size: str,
            trace: bool, out_dir: Path | None = None) -> dict:
    """Run one workload in this process; returns its full record."""
    workload = WORKLOADS[workload_name]
    sizes = sizes_for(workload_name, size, seconds)
    began = time.perf_counter()
    setups: list[float] = []

    if not trace:
        # Discarded set-ups first, so the state the timed phase runs on
        # is the only one alive while it runs.
        while (len(setups) < SETUP_REPEATS - 1
               or (sum(setups) < SETUP_BUDGET_S
                   and len(setups) < MAX_SETUP_REPEATS - 1)):
            started = time.perf_counter()
            workload.setup(seed, sizes)
            setups.append(time.perf_counter() - started)
            gc.collect()
    rec, state = _timed_pass(workload, seed, sizes, None, setups)
    values = _end_to_end(rec, setups)
    table = END_TO_END + (FAILED_OPS_RATIO,)
    counts = {"sim_s_per_op": values["sim_s_per_op"],
              **_cache_counts(state)}
    wall = {"untraced_timed_s": rec.timed_wall_s, "setup_s": setups}

    if trace:
        untraced_throughput = values["throughput_ops_s"]
        untraced_failures = rec.failures
        del state
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            rec, state = _timed_pass(workload, seed, sizes, tracer, [])
        finally:
            tracer.remove()
        rec.failures = untraced_failures + rec.failures
        values = _per_layer(tracer, rec, state, untraced_throughput)
        table = PER_LAYER
        counts.update({name: tracer.counts.get(name, 0.0)
                       for name in TRACED_COUNTS})
        wall["traced_timed_s"] = rec.timed_wall_s
        if out_dir is not None:
            write_spans(tracer.spans,
                        out_dir / f"spans-{workload_name}-{seed}.jsonl")

    wall["total_s"] = time.perf_counter() - began
    return {
        "workload": workload_name,
        "seed": seed,
        "size": size,
        "sizes": sizes,
        "trace": int(trace),
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": _failed(rec),
        "failures": rec.failures[:10],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in table},
        "samples": {
            "ops": rec.attempted,
            "beyond_p90": stats.samples_beyond(rec.attempted, 0.90),
            "per_class": {op_class: len(v)
                          for op_class, v in rec.latencies_s.items()},
        },
        "counts": counts,
        "wall": wall,
    }
