"""Command-line interface: run queries on a generated TPC-H cluster.

Examples::

    # one of the paper's workloads, with plans and timing breakdown
    python -m repro --workload Q10 --paper-sf 100 --show-plans

    # ad-hoc SQL under the Hive backend, EXPLAIN only
    python -m repro --sql "SELECT n.n_name AS n FROM nation n, region r \
        WHERE n.n_regionkey = r.r_regionkey" --backend hive --explain

    # persist pilot-run statistics across invocations
    python -m repro --workload Q9' --save-stats stats.json
    python -m repro --workload Q9' --load-stats stats.json
"""

from __future__ import annotations

import argparse
import sys

from repro.config import DEFAULT_CONFIG
from repro.data.tpch import PAPER_SCALE_FACTORS, generate_tpch
from repro.errors import DynoError
from repro.obs import JsonLinesSink, MetricsRegistry, Tracer
from repro.stats.metastore import StatisticsMetastore
from repro.workloads.queries import TPCH_WORKLOADS, q3
from repro.workloads.skewed import SKEWED_WORKLOADS, generate_skewed


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(
            f"must be > 0 (the generator cannot build a {value}-scale "
            f"dataset)")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be > 0 (a {value}-byte memory budget admits nothing)")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (cannot print {value} rows)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DYNO (SIGMOD 2014) reproduction: dynamically "
                    "optimized queries over a simulated MapReduce cluster.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--workload",
        choices=sorted(TPCH_WORKLOADS) + ["Q3"] + sorted(SKEWED_WORKLOADS),
        help="one of the paper's TPC-H workloads, or a skewed hot-key "
             "workload (implies --skew)",
    )
    source.add_argument("--sql", help="ad-hoc SQL text to execute")
    source.add_argument("--sql-file", help="file containing SQL text")
    source.add_argument(
        "--batch", choices=["mixed"],
        help="run a query batch through the QueryService (shared "
             "metastore, pilot skipping, plan cache); 'mixed' is TPC-H "
             "+ weblogs with repeats",
    )
    source.add_argument(
        "--standing", action="store_true",
        help="run the changing-data scenario: register standing weblog "
             "queries, apply seeded CDC batches, and keep results fresh "
             "via cardinality-chosen delta refresh or full recompute "
             "(see docs/incremental.md)",
    )
    parser.add_argument(
        "--changes", type=_positive_int, default=None, metavar="N",
        help="number of change batches for --standing (default: one "
             "pass over the scenario's step list)",
    )
    parser.add_argument(
        "--change-rate", type=_positive_float, default=None, metavar="R",
        help="override every --standing step's change rate (fraction "
             "of the table touched per batch)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-batch differential check of --standing "
             "(maintained result vs from-scratch recompute)",
    )
    parser.add_argument(
        "--tenants", type=_positive_int, default=1, metavar="N",
        help="replicate the --batch workload across N tenants with "
             "varied priorities; the scheduler's deficit-weighted "
             "round robin shares admission slots fairly between them "
             "(default 1)",
    )
    parser.add_argument(
        "--qps", type=_positive_float, default=None, metavar="RATE",
        help="submit --batch queries at RATE per second through the "
             "long-lived scheduler queue instead of all at once; "
             "reports queue wait and end-to-end latency per tenant",
    )
    parser.add_argument(
        "--result-cache", action="store_true",
        help="enable the result-set cache for --batch: a recurring "
             "(block key x stats fingerprint) identity returns "
             "cached rows without executing",
    )

    parser.add_argument(
        "--skew", action="store_true",
        help="generate the seeded hot-key dataset (Zipfian clicks x "
             "oversized users x pages) instead of TPC-H; default scale "
             "factor becomes 1.0 so the skew join is in play",
    )

    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--scale-factor", type=_positive_float, default=None,
                       help="generator scale factor, > 0 (default 0.25)")
    scale.add_argument("--paper-sf", type=int,
                       choices=sorted(PAPER_SCALE_FACTORS),
                       help="use the paper's SF 100/300/1000 mapping")

    parser.add_argument("--mode", choices=["dynopt", "simple"],
                        default="dynopt")
    parser.add_argument("--strategy", default="UNC-1",
                        help="execution strategy (UNC-1/2, CHEAP-1/2, "
                             "SIMPLE_SO/MO)")
    parser.add_argument("--backend", choices=["jaql", "hive"],
                        default="jaql")
    parser.add_argument("--pilot-mode", choices=["MT", "ST"], default="MT")
    parser.add_argument("--task-memory", type=_positive_int, default=None,
                        metavar="BYTES",
                        help="per-task memory budget Mmax in bytes: caps "
                             "broadcast build sides and what a spilling "
                             "build keeps resident (default: config)")
    parser.add_argument("--fault-plan", metavar="PATH",
                        help="arm a JSON fault plan (see docs/testing.md): "
                             "inject deterministic task/job failures, "
                             "stragglers and node losses; results are "
                             "identical to a fault-free run")
    parser.add_argument("--explain", action="store_true",
                        help="plan only; do not execute the query")
    parser.add_argument("--show-plans", action="store_true",
                        help="print the plan of every (re)optimization")
    parser.add_argument("--limit", type=_non_negative_int, default=10,
                        help="result rows to print, >= 0 (default 10)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--load-stats", metavar="PATH",
                        help="pre-load a statistics metastore file")
    parser.add_argument("--save-stats", metavar="PATH",
                        help="persist the statistics metastore afterwards")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a JSON-lines trace of the query "
                             "lifecycle (see docs/observability.md)")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write a metrics summary JSON after the run")
    parser.add_argument("--profile", action="store_true",
                        help="print a driver/simulated time and "
                             "estimate-quality breakdown after the run")
    return parser


def _scale_factor(args: argparse.Namespace, default: float = 0.25) -> float:
    if args.paper_sf is not None:
        return PAPER_SCALE_FACTORS[args.paper_sf]
    if args.scale_factor is not None:
        return args.scale_factor
    return default


def _resolve_workload(args: argparse.Namespace):
    if args.workload:
        if args.workload in SKEWED_WORKLOADS:
            factory = SKEWED_WORKLOADS[args.workload]
        elif args.workload == "Q3":
            factory = q3
        else:
            factory = TPCH_WORKLOADS[args.workload]
        return factory()
    return None


def _dataset(args: argparse.Namespace, out):
    """Tables and UDF registry for the chosen mode."""
    if args.batch:
        from repro.workloads.mixed import mixed_tables, mixed_udfs

        scale_factor = _scale_factor(args)
        print(f"generating TPC-H + weblogs at scale factor {scale_factor} "
              "...", file=out)
        return mixed_tables(scale_factor, seed=args.seed), mixed_udfs()
    if args.standing:
        from repro.workloads.changing import changing_tables, changing_udfs

        scale_factor = _scale_factor(args)
        print(f"generating weblogs at scale factor {scale_factor} ...",
              file=out)
        return changing_tables(scale_factor, seed=args.seed), changing_udfs()
    workload = _resolve_workload(args)
    udfs = workload.udfs if workload else None
    if args.skew or args.workload in SKEWED_WORKLOADS:
        scale_factor = _scale_factor(args, default=1.0)
        print(f"generating skewed hot-key dataset at scale factor "
              f"{scale_factor} ...", file=out)
        return generate_skewed(scale_factor, seed=args.seed), udfs
    scale_factor = _scale_factor(args)
    print(f"generating TPC-H at scale factor {scale_factor} ...", file=out)
    return generate_tpch(scale_factor, seed=args.seed).tables, udfs


def _open_session(args: argparse.Namespace, out,
                  metrics: MetricsRegistry | None = None):
    """Build the one stack every mode runs against: dataset, config,
    statistics, the tracer (feeding ``metrics`` too, when given) and the
    QueryService.

    Everything read from a user-named file is loaded before the trace
    sink is opened, so a bad path fails with nothing left open.
    """
    from repro.service import QueryService

    tables, udfs = _dataset(args, out)
    config = DEFAULT_CONFIG.with_backend(args.backend).with_memory(
        task_memory_bytes=args.task_memory)  # None: keep default
    if args.fault_plan:
        from repro.cluster.faults import FaultPlan
        try:
            with open(args.fault_plan) as handle:
                plan = FaultPlan.from_json(handle.read())
        except (OSError, DynoError) as error:
            raise DynoError(f"cannot load fault plan: {error}") from error
        config = config.with_fault_plan(plan)
        print(f"armed fault plan {plan.name or '<unnamed>'} "
              f"(seed {plan.seed})", file=out)

    metastore = None
    if args.load_stats:
        metastore = StatisticsMetastore.load(args.load_stats)
        print(f"loaded {len(metastore)} statistics entries from "
              f"{args.load_stats}", file=out)

    sinks: list = [JsonLinesSink(args.trace)] if args.trace else []
    if metrics is not None:
        sinks.append(metrics)
    return QueryService(tables, config=config, udfs=udfs,
                        metastore=metastore,
                        tracer=Tracer(*sinks) if sinks else None,
                        result_cache=args.result_cache)


def _close_session(service, args: argparse.Namespace, out,
                   metrics: MetricsRegistry | None) -> None:
    """What every mode writes after a completed run."""
    injector = service.dyno.runtime.fault_injector
    if injector is not None:
        print(f"\nfault injection: {injector.summary()}", file=out)
    if metrics is not None and args.metrics:
        metrics.save(args.metrics)
        print(f"wrote metrics summary to {args.metrics}", file=out)
    if metrics is not None and args.profile:
        _print_profile(metrics.summary(), out)
    if args.save_stats:
        service.dyno.save_statistics(args.save_stats)
        print(f"saved statistics to {args.save_stats}", file=out)


def _print_tenant_stats(outcomes, out) -> None:
    """Per-tenant wait / end-to-end latency table for queued runs."""
    by_tenant: dict[str, list] = {}
    for outcome in outcomes:
        by_tenant.setdefault(outcome.tenant, []).append(outcome)
    print(f"\n{'tenant':<12} {'queries':>8} {'errors':>7} "
          f"{'mean wait':>10} {'p99 latency':>12}", file=out)
    for tenant in sorted(by_tenant):
        group = by_tenant[tenant]
        waits = [o.wait_seconds for o in group]
        latencies = sorted(o.latency_seconds for o in group)
        p99 = latencies[min(len(latencies) - 1,
                            int(0.99 * len(latencies)))]
        print(f"{tenant:<12} {len(group):>8} "
              f"{sum(1 for o in group if not o.ok):>7} "
              f"{sum(waits) / len(waits):>9.4f}s {p99:>11.4f}s", file=out)


def _run_query(service, args: argparse.Namespace, out) -> int:
    """--workload / --sql / --sql-file: one request through the service."""
    from repro.service import QueryRequest

    workload = _resolve_workload(args)
    if workload:
        name, stages = workload.name, list(workload.stages)
    else:
        sql = args.sql
        if args.sql_file:
            try:
                with open(args.sql_file) as handle:
                    sql = handle.read()
            except OSError as error:
                raise DynoError(f"cannot load SQL file: {error}") from error
        name, stages = "cli", [(service.dyno.parse(sql, name="cli"), None)]
    final_spec = stages[-1][0]
    if args.explain:
        # A stage that reads an earlier stage's output cannot be planned
        # before that table exists; it is named with what it waits for.
        written: set[str] = set()
        for position, (spec, output_name) in enumerate(stages):
            block = service.dyno.prepare(spec).block
            waits = sorted(written & {leaf.source_name
                                      for leaf in block.base_leaves()})
            print(f"stage {position} ({block.name}) waits for "
                  f"{', '.join(waits)}" if waits
                  else service.dyno.explain(spec), file=out)
            if output_name is not None:
                written.add(output_name)
        return 0
    ticket = service.scheduler.submit(QueryRequest(
        name, stages, mode=args.mode, strategy=args.strategy,
        pilot_mode=args.pilot_mode,
    ))
    [outcome] = service.scheduler.drain([ticket])
    if not outcome.ok:
        # "<ErrorType>: <message>"; main reports the message, as it does
        # for errors raised outside the service.
        raise DynoError(outcome.error.partition(": ")[2])
    # The service ran the query under a per-request prefix; the report
    # names blocks, jobs and files the way the user named the query.
    prefix = outcome.query_name.removesuffix(final_spec.name)
    _report(outcome.execution, prefix, args, out)
    return 0


def _run_mixed(service, args: argparse.Namespace, out) -> int:
    """--batch: a mixed workload, all at once or paced at --qps."""
    from repro.workloads.mixed import (
        MIXED_SEQUENCE,
        mixed_batch,
        mixed_tenant_batch,
    )

    if args.tenants > 1:
        requests, _ = mixed_tenant_batch(
            len(MIXED_SEQUENCE) * args.tenants, args.tenants)
    else:
        requests, _ = mixed_batch()
    for request in requests:
        request.mode = args.mode
        request.strategy = args.strategy
        request.pilot_mode = args.pilot_mode

    mode = (f"sustained at {args.qps} qps" if args.qps
            else "as one batch")
    print(f"running {len(requests)} queries from {args.tenants} "
          f"tenant(s) {mode} ...", file=out)
    if args.qps:
        outcomes = service.scheduler.run_sustained(requests, qps=args.qps)
    else:
        outcomes = service.scheduler.drain(
            [service.scheduler.submit(request) for request in requests])

    print(f"\n{'query':<20} {'tenant':<12} {'rows':>6} {'pilots':>7} "
          f"{'skipped':>8} {'plan hits':>10} {'cached':>7}", file=out)
    failed = 0
    for outcome in outcomes:
        if not outcome.ok:
            failed += 1
            print(f"{outcome.name:<20} {outcome.tenant:<12} "
                  f"error: {outcome.error}", file=out)
            continue
        print(f"{outcome.name:<20} {outcome.tenant:<12} "
              f"{len(outcome.rows):>6} "
              f"{outcome.pilot_jobs:>7} {outcome.pilots_skipped:>8} "
              f"{outcome.plan_cache_hits:>10} "
              f"{'yes' if outcome.result_cache_hit else '':>7}", file=out)
    if args.tenants > 1 or args.qps:
        _print_tenant_stats(outcomes, out)
    cache = service.plan_cache.summary()
    print(f"\nplan cache: {cache['hits']} hit(s), {cache['misses']} "
          f"miss(es), {cache['invalidations']} invalidation(s)", file=out)
    if service.result_cache is not None:
        rcache = service.result_cache.summary()
        print(f"result cache: {rcache['hits']} hit(s), "
              f"{rcache['misses']} miss(es), "
              f"{rcache['invalidations']} invalidation(s), "
              f"{rcache['entries']} entries", file=out)
    print(f"metastore: {len(service.metastore)} statistics entries",
          file=out)
    return 1 if failed else 0


def _run_standing(service, args: argparse.Namespace, out) -> int:
    """--standing: the changing-data scenario (docs/incremental.md)."""
    import itertools

    from repro.core.dyno import Dyno
    from repro.incremental import (
        ChangeGenerator,
        StandingQueryManager,
        apply_change_batch,
    )
    from repro.service import QueryRequest
    from repro.validation import canonical_rows
    from repro.workloads.changing import (
        DEFAULT_STEPS,
        KEY_COLUMNS,
        changing_udfs,
        standing_workloads,
    )
    from repro.workloads.weblogs import weblog_premium_blink

    workloads = standing_workloads()
    manager = StandingQueryManager(service)
    adhoc_workload = weblog_premium_blink()

    count = args.changes if args.changes is not None else len(DEFAULT_STEPS)
    steps = list(itertools.islice(itertools.cycle(DEFAULT_STEPS), count))

    exit_code = 0
    for workload in workloads:
        standing = manager.register(workload.name, workload.final_spec)
        print(f"registered {workload.name}: "
              f"{len(standing.state)} state row(s), reads "
              f"{', '.join(sorted(standing.base_tables))}", file=out)

    generators = {
        table: ChangeGenerator(service.dyno.tables[table],
                               KEY_COLUMNS[table], seed=args.seed)
        for table in KEY_COLUMNS
    }
    delta_total = full_total = 0
    for step in steps:
        rate = args.change_rate or step.change_rate
        batch = generators[step.table].next_batch(rate, step.mix)
        applied = apply_change_batch(service.dyno, batch,
                                     KEY_COLUMNS[step.table])
        adhoc = [QueryRequest.from_workload(adhoc_workload,
                                            tenant="adhoc")]
        report = manager.refresh(applied, adhoc=adhoc)
        print(f"\nchange batch {batch.describe()} "
              f"({applied.delta_rows} delta row(s)):", file=out)
        for outcome in report.outcomes:
            if not outcome.ok:
                exit_code = 1
                print(f"  {outcome.query:<20} ERROR {outcome.error}",
                      file=out)
                continue
            decision = outcome.decision
            print(f"  {outcome.query:<20} strategy={decision.strategy}"
                  f" ratio={decision.ratio:6.1%} rows={outcome.rows}"
                  f" sim={outcome.simulated_seconds:.1f}s", file=out)
        for outcome in report.adhoc:
            status = ("ok" if outcome.ok
                      else f"ERROR {outcome.error}")
            print(f"  adhoc {outcome.name:<14} {status} "
                  f"rows={len(outcome.rows)}", file=out)
        delta_total += report.delta_count
        full_total += report.full_count

        if not args.no_verify:
            for workload in workloads:
                # The independent from-scratch oracle: its own stack,
                # deliberately not the session's service.
                fresh = Dyno(dict(service.dyno.tables),
                             udfs=changing_udfs())
                expected = fresh.execute(workload.final_spec).rows
                maintained = manager.result(workload.name)
                if canonical_rows(maintained, float_places=6) \
                        != canonical_rows(expected, float_places=6):
                    exit_code = 1
                    print(f"  VERIFY FAILED {workload.name}: "
                          "maintained result diverged from "
                          "recompute", file=out)
                else:
                    print(f"  verified {workload.name}: maintained "
                          "== recompute "
                          f"({len(maintained)} row(s))", file=out)

    print(f"\nrefresh summary: {delta_total} delta, {full_total} "
          f"full across {len(steps)} change batch(es)", file=out)
    print(f"metastore: {len(service.metastore)} statistics entries",
          file=out)
    return exit_code


def main(argv: list[str] | None = None,
         out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    run = (_run_mixed if args.batch
           else _run_standing if args.standing else _run_query)
    metrics = MetricsRegistry() if (args.metrics or args.profile) else None
    service = None
    try:
        service = _open_session(args, out, metrics)
        code = run(service, args, out)
    except DynoError as error:
        print(f"error: {error}", file=out)
        return 1
    finally:
        if service is not None and args.trace:
            service.tracer.close()
            print(f"wrote trace to {args.trace}", file=out)
    _close_session(service, args, out, metrics)
    return code


def _print_profile(summary: dict, out) -> None:
    """Human-readable breakdown of the run's metrics summary."""
    counters = summary["counters"]
    observations = summary["observations"]

    def obs_line(label: str, name: str, unit: str = "s") -> None:
        stats = observations.get(name)
        if not stats:
            return
        print(f"  {label:<22} total {stats['total']:10.3f} {unit}  "
              f"mean {stats['mean']:8.3f}  max {stats['max']:8.3f}  "
              f"(n={stats['count']})", file=out)

    print("\nprofile:", file=out)
    print("driver wall-clock:", file=out)
    obs_line("query", "query.driver_wall_s")
    obs_line("leaf jobs", "job.driver_wall_s")
    print("simulated time:", file=out)
    obs_line("pilot runs", "query.sim_pilot_s")
    obs_line("optimizer", "query.sim_optimizer_s")
    obs_line("plan execution", "query.sim_execution_s")
    obs_line("batch makespan", "batch.makespan_s")
    if "qerror.rows" in observations or "qerror.bytes" in observations:
        print("estimate quality (q-error, 1.0 = perfect):", file=out)
        obs_line("rows", "qerror.rows", unit=" ")
        obs_line("bytes", "qerror.bytes", unit=" ")
    interesting = ("queries.executed", "jobs.executed",
                   "dynopt.optimizations", "dynopt.subplans_executed",
                   "dynopt.estimate_misses", "dynopt.replans",
                   "dynopt.recovered_jobs", "pilot.jobs_run",
                   "pilot.reused", "faults.events", "faults.task_retries",
                   "faults.stragglers", "faults.node_losses")
    lines = [(name, counters[name]) for name in interesting
             if counters.get(name)]
    if lines:
        print("counters:", file=out)
        for name, value in lines:
            if value == int(value):
                value = int(value)
            print(f"  {name:<26} {value}", file=out)


def _report(execution, prefix: str, args: argparse.Namespace,
            out) -> None:
    rows = execution.rows
    print(f"\n{len(rows)} result row(s); showing up to {args.limit}:",
          file=out)
    for row in rows[: args.limit]:
        print(f"  {row}", file=out)

    print("\nsimulated time:", file=out)
    print(f"  pilot runs     {execution.pilot_seconds:10.1f} s", file=out)
    print(f"  optimizer      {execution.optimizer_seconds:10.2f} s",
          file=out)
    print(f"  plan execution {execution.execution_seconds:10.1f} s",
          file=out)
    print(f"  total          {execution.total_seconds:10.1f} s", file=out)

    if args.show_plans:
        lines = []
        for block_result in execution.block_results:
            lines.append(f"\nblock {block_result.block_name}:")
            for record in block_result.iterations:
                lines.append(f"-- iteration {record.index} "
                             f"({record.makespan_seconds:.1f}s, jobs "
                             f"{record.jobs_executed}) --")
                lines.append(record.plan_text)
        print("\n".join(lines).replace(prefix, ""), file=out)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
