"""Performance microbenchmark harness (wall-clock, not simulated time).

Every other benchmark in this directory measures *simulated* cluster
seconds; this one tracks the real wall-clock of the driver itself -- the
Python hot loops the whole experiment suite funnels through. It times:

* ``kmv_ingest``      -- KMV synopsis ingest of 200k (50k distinct) values;
* ``kmv_merge``       -- union of 64 partial synopses (client-side merge);
* ``runtime_row_loop``-- one map-only job + one repartition join through
                         ``ClusterRuntime._run_job_data``;
* ``optimizer_search``-- repeated optimizer searches over the Q8' block;
* ``q8_dynopt_driver``-- a full Q8' DYNOPT run (``run_workload``),
                         including DFS load, pilots and re-optimization;
* ``pilr_mt_pilots``  -- PILR_MT pilot runs for the Q9' block.

Each entry reports the *median* of N timed runs after a warmup run.
Results are written as JSON. The checked-in ``BENCH_PR6.json`` at the repo
root records the current before/after numbers; CI re-runs the suite in
``--mode smoke`` and fails when any entry regresses more than the
``--max-regression`` factor against that baseline (see ``--check``).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_micro.py --mode full \
        --output BENCH_PR6.json [--before /tmp/before.json]
    PYTHONPATH=src python benchmarks/bench_perf_micro.py --mode smoke \
        --check BENCH_PR6.json --max-regression 1.5
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.baselines import relopt_leaf_stats
from repro.core.dyno import Dyno
from repro.core.pilot import PilotRunner
from repro.optimizer.search import JoinOptimizer
from repro.workloads.queries import q8_prime, q9_prime

#: Per-mode sizing knobs: (kmv values, kmv distinct, partials, row-loop rows,
#: optimizer repetitions, paper scale factor, driver repetitions).
MODES = {
    "full": dict(kmv_values=200_000, kmv_distinct=50_000, partials=64,
                 row_loop_rows=20_000, optimizer_reps=20, paper_sf=300,
                 reps=3),
    "smoke": dict(kmv_values=40_000, kmv_distinct=10_000, partials=16,
                  row_loop_rows=4_000, optimizer_reps=5, paper_sf=100,
                  reps=2),
}

#: Canonical entry names this suite produces, importable by
#: latest_baseline.py so baseline compatibility checks don't have to
#: guess from JSON shape alone (a bespoke experiment record can look
#: structurally identical while sharing zero entry names).
BENCHMARK_NAMES = (
    "kmv_ingest",
    "kmv_merge",
    "runtime_row_loop",
    "optimizer_search",
    "q8_dynopt_driver",
    "pilr_mt_pilots",
)


def _parallel_config(base: DynoConfig) -> DynoConfig:
    """Enable the parallel data-path executor when this revision has it."""
    executor = getattr(base, "executor", None)
    if executor is None:
        return base  # pre-PR1 revision: serial only
    return replace(base, executor=replace(executor, parallel_jobs=True))


def _timed(fn: Callable[[], Any], reps: int, warmup: int = 1) -> float:
    """Median wall-clock of ``reps`` runs after ``warmup`` discarded runs.

    The warmup absorbs one-time costs (imports, allocator growth, memoized
    caches filling) and the median resists scheduler noise -- min-of-N
    systematically under-reports and made the CI regression gate flaky.
    """
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# individual benchmarks
# ---------------------------------------------------------------------------


def bench_kmv_ingest(params: dict[str, Any]) -> float:
    from repro.stats.kmv import KMVSynopsis

    rng = random.Random(1729)
    distinct = params["kmv_distinct"]
    values: list[Any] = [
        rng.randrange(distinct) for _ in range(params["kmv_values"] // 2)
    ]
    values += [
        f"key-{rng.randrange(distinct)}"
        for _ in range(params["kmv_values"] - len(values))
    ]

    def run() -> None:
        synopsis = KMVSynopsis(1024)
        synopsis.add_all(values)
        synopsis.estimate()

    return _timed(run, params["reps"])


def bench_kmv_merge(params: dict[str, Any]) -> float:
    from repro.stats.kmv import KMVSynopsis

    rng = random.Random(31337)
    partials = []
    for _ in range(params["partials"]):
        synopsis = KMVSynopsis(1024)
        synopsis.add_all(rng.randrange(1 << 40) for _ in range(4096))
        partials.append(synopsis)

    def run() -> None:
        merged = partials[0]
        for partial in partials[1:]:
            merged = merged.merge(partial)
        merged.estimate()

    return _timed(run, params["reps"])


def bench_runtime_row_loop(params: dict[str, Any]) -> float:
    from repro.cluster.job import BatchEmit, MapReduceJob, TaskContext
    from repro.cluster.runtime import ClusterRuntime
    from repro.data.columns import RowBatch
    from repro.data.schema import INT, STRING, Schema, estimate_dict_size
    from repro.storage.dfs import DistributedFileSystem

    rows = params["row_loop_rows"]
    schema = Schema.of(k=INT, grp=INT, payload=STRING)
    data = [
        {"k": i, "grp": i % 97, "payload": f"value-{i % 1000:04d}"}
        for i in range(rows)
    ]

    def map_only_mapper(context: TaskContext, source: str,
                       batch: Any) -> BatchEmit:
        grp = batch.column("grp")
        all_rows = batch.rows
        sizes = batch.ensure_sizes()
        selection = [i for i in range(len(all_rows)) if grp[i] % 2 == 0]
        out_rows = [all_rows[i] for i in selection]
        out_sizes = [sizes[i] for i in selection]
        return BatchEmit(rows=out_rows, sizes=out_sizes,
                         columns=RowBatch(out_rows, out_sizes))

    def keyed_mapper(context: TaskContext, source: str,
                    batch: Any) -> BatchEmit:
        return BatchEmit(rows=list(batch.rows),
                         sizes=list(batch.ensure_sizes()),
                         keys=list(batch.column("grp")))

    def reducer(context: TaskContext, groups: list) -> BatchEmit:
        out_rows = []
        out_sizes = []
        for key, values, _sizes in groups:
            row = {"grp": key, "n": len(values)}
            out_rows.append(row)
            out_sizes.append(estimate_dict_size(row))
        return BatchEmit(rows=out_rows, sizes=out_sizes)

    def run() -> None:
        dfs = DistributedFileSystem(DEFAULT_CONFIG.cluster.block_size_bytes)
        dfs.write_rows("input", schema, data)
        runtime = ClusterRuntime(dfs, DEFAULT_CONFIG)
        runtime.execute(MapReduceJob(
            name="map_only", inputs=["input"], mapper=map_only_mapper,
            output_name="map_only.out", output_schema=schema,
            stats_columns=["k", "grp"],
        ))
        runtime.execute(MapReduceJob(
            name="repartition", inputs=["input"], mapper=keyed_mapper,
            output_name="repartition.out", output_schema=schema,
            reducer=reducer, num_reducers=8,
        ))

    return _timed(run, params["reps"])


def bench_optimizer_search(params: dict[str, Any]) -> float:
    from repro.bench.harness import dataset_for_paper_sf

    dataset = dataset_for_paper_sf(100)
    workload = q8_prime()
    dyno = Dyno(dataset.tables, config=DEFAULT_CONFIG, udfs=workload.udfs)
    extracted = dyno.prepare(workload.final_spec, name="opt_bench")
    leaf_stats = relopt_leaf_stats(dyno.tables, extracted.block)

    def run() -> None:
        for _ in range(params["optimizer_reps"]):
            JoinOptimizer(extracted.block, leaf_stats,
                          DEFAULT_CONFIG.optimizer).optimize()

    return _timed(run, params["reps"])


def bench_q8_dynopt_driver(params: dict[str, Any],
                           config: DynoConfig) -> float:
    from repro.bench.harness import (
        VARIANT_DYNOPT,
        dataset_for_paper_sf,
        run_workload,
    )

    dataset = dataset_for_paper_sf(params["paper_sf"])
    workload = q8_prime()

    def run() -> None:
        run_workload(dataset.tables, workload, VARIANT_DYNOPT, config=config)

    return _timed(run, params["reps"])


def bench_pilr_mt_pilots(params: dict[str, Any],
                         config: DynoConfig) -> float:
    from repro.bench.harness import dataset_for_paper_sf

    dataset = dataset_for_paper_sf(params["paper_sf"])
    workload = q9_prime()

    def run() -> None:
        dyno = Dyno(dataset.tables, config=config, udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec, name="pilr_bench")
        runner = PilotRunner(dyno.runtime, dyno.metastore, config)
        runner.run(extracted.block, mode="MT")

    return _timed(run, params["reps"])


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def run_suite(mode: str, parallel: bool = True) -> dict[str, float]:
    """Run every microbenchmark; returns {entry: best wall-clock seconds}."""
    params = MODES[mode]
    config = _parallel_config(DEFAULT_CONFIG) if parallel else DEFAULT_CONFIG
    results: dict[str, float] = {}
    runners = {
        "kmv_ingest": lambda: bench_kmv_ingest(params),
        "kmv_merge": lambda: bench_kmv_merge(params),
        "runtime_row_loop": lambda: bench_runtime_row_loop(params),
        "optimizer_search": lambda: bench_optimizer_search(params),
        "q8_dynopt_driver": lambda: bench_q8_dynopt_driver(params, config),
        "pilr_mt_pilots": lambda: bench_pilr_mt_pilots(params, config),
    }
    for name in BENCHMARK_NAMES:
        fn = runners[name]
        results[name] = fn()
        print(f"  {name:20s} {results[name]*1000:10.2f} ms", flush=True)
    return results


def build_report(mode: str, measured: dict[str, float],
                 before: dict[str, float] | None) -> dict[str, Any]:
    entries: dict[str, Any] = {}
    for name, seconds in measured.items():
        entry: dict[str, Any] = {"after_s": round(seconds, 6)}
        reference = before.get(name) if before else None
        if reference is not None:
            entry["before_s"] = round(reference, 6)
            if seconds > 0:
                entry["speedup"] = round(reference / seconds, 3)
        entries[name] = entry
    return {"mode": mode, "entries": entries}


def check_against_baseline(measured: dict[str, float], baseline: dict,
                           mode: str, max_regression: float) -> list[str]:
    """Return failure messages for entries slower than baseline * factor."""
    failures: list[str] = []
    base_entries = baseline.get("modes", {}).get(mode, {}).get("entries", {})
    for name, seconds in measured.items():
        reference = base_entries.get(name, {}).get("after_s")
        if reference is None or reference <= 0:
            continue
        if seconds > reference * max_regression:
            failures.append(
                f"{name}: {seconds*1000:.2f} ms > {max_regression:.1f}x "
                f"baseline ({reference*1000:.2f} ms)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="smoke")
    parser.add_argument("--output", type=Path, default=None,
                        help="write/update a JSON report at this path")
    parser.add_argument("--before", type=Path, default=None,
                        help="JSON file with baseline numbers to merge as "
                             "'before_s' (same --mode)")
    parser.add_argument("--check", type=Path, default=None,
                        help="compare against this baseline JSON and fail "
                             "on regression")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--serial", action="store_true",
                        help="keep the parallel executor disabled")
    args = parser.parse_args(argv)

    print(f"perf micro suite: mode={args.mode} "
          f"parallel={not args.serial}", flush=True)
    measured = run_suite(args.mode, parallel=not args.serial)

    before: dict[str, float] | None = None
    if args.before is not None and args.before.exists():
        payload = json.loads(args.before.read_text())
        raw = (payload.get("modes", {}).get(args.mode, {})
               .get("entries", payload.get("entries", {})))
        before = {
            name: entry.get("after_s", entry.get("seconds"))
            for name, entry in raw.items()
            if isinstance(entry, dict)
        }

    report = build_report(args.mode, measured, before)
    if args.output is not None:
        existing: dict[str, Any] = {}
        if args.output.exists():
            existing = json.loads(args.output.read_text())
        existing.setdefault("pr", 6)
        existing.setdefault("schema_version", 1)
        existing["python"] = platform.python_version()
        existing.setdefault("modes", {})
        existing["modes"][args.mode] = report
        args.output.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_against_baseline(
            measured, baseline, args.mode, args.max_regression
        )
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"perf check OK (within {args.max_regression:.1f}x of "
              f"{args.check})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
