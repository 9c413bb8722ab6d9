"""Feedback-loop benchmark: q-error shrinks run over run, results don't.

The acceptance claim of the workload feedback loop (ISSUE 8): on
*successive runs of the same mixed workload* through one service, the
mean rows q-error of run 2+ is measurably lower than run 1 when feedback
is enabled -- and unchanged when it is disabled.

Protocol (both conditions identically):

1. **warmup batch** -- one run of the mixed batch fills the metastore
   and the plan cache, so every *measured* run is warm (cold runs
   substitute pilot outputs and audit different jobs, which would
   confound run 1 vs run 2). The feedback store is then cleared, so
   measured run 1 starts unlearned;
2. **measured runs** -- N further batches; per-run mean ``qerror.rows``
   comes from the metrics observation deltas. With feedback *off* the
   warm runs are deterministic replays, so their means must be
   identical; with feedback *on*, run 1 learns and run 2+ optimizes with
   corrections applied.

Every measured run's result rows are also checked byte-identical to the
feedback-off baseline: the loop tunes plans, never answers.

Usage::

    PYTHONPATH=src python benchmarks/bench_feedback.py --output BENCH_PR8.json
    PYTHONPATH=src python benchmarks/bench_feedback.py --check BENCH_PR8.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from repro.feedback import FeedbackStore
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService
from repro.workloads.mixed import MIXED_SEQUENCE, mixed_batch, mixed_tables

SEED = 2014
SCALE = 0.05
EVENTS = 4000
MEASURED_RUNS = 3


def _rows_key(outcomes) -> str:
    payload = [sorted(
        json.dumps(row, sort_keys=True, default=str)
        for row in outcome.rows
    ) for outcome in outcomes]
    return json.dumps(payload)


def _observation(metrics: MetricsRegistry, name: str) -> dict:
    stats = metrics.summary()["observations"].get(name)
    return dict(stats) if stats else {"count": 0, "total": 0.0}


def _delta_mean(after: dict, before: dict) -> float:
    count = after["count"] - before["count"]
    total = after["total"] - before["total"]
    return total / count if count else 0.0


def _run_condition(scale: float, seed: int, events: int,
                   with_feedback: bool) -> dict:
    tables = mixed_tables(scale, seed=seed, weblog_events=events)
    requests, udfs = mixed_batch()
    metrics = MetricsRegistry()
    feedback = FeedbackStore() if with_feedback else None
    service = QueryService(tables, udfs=udfs, metrics=metrics,
                           feedback=feedback)

    def run_all():
        scheduler = service.scheduler
        return scheduler.drain([scheduler.submit(r) for r in requests])

    # Warmup: fill metastore + plan cache, then forget what was learned
    # so measured run 1 is a warm, unlearned baseline in both conditions.
    run_all()
    if feedback is not None:
        feedback.clear()

    qerror_means: list[float] = []
    regret_means: list[float] = []
    rows_keys: list[str] = []
    qerror_before = _observation(metrics, "qerror.rows")
    regret_before = _observation(metrics, "feedback.regret")
    for _run in range(MEASURED_RUNS):
        outcomes = run_all()
        errors = [outcome.error for outcome in outcomes if outcome.error]
        if errors:
            raise SystemExit(f"batch failed: {errors}")
        rows_keys.append(_rows_key(outcomes))
        qerror_after = _observation(metrics, "qerror.rows")
        qerror_means.append(_delta_mean(qerror_after, qerror_before))
        qerror_before = qerror_after
        regret_after = _observation(metrics, "feedback.regret")
        regret_means.append(_delta_mean(regret_after, regret_before))
        regret_before = regret_after

    result = {
        "qerror_rows_mean_per_run": [round(m, 6) for m in qerror_means],
        "rows_keys": rows_keys,
    }
    if feedback is not None:
        summary = feedback.summary()
        result["regret_mean_per_run"] = [round(m, 6) for m in regret_means]
        result["store"] = {
            "keys": summary["keys"],
            "active_corrections": summary["active_corrections"],
            "samples": summary["samples"],
            "pilot_boosts": summary["pilot_boosts"],
            "regret_leaderboard": [
                {"block": entry["block"][:120],
                 "choices": entry["choices"],
                 "mean_regret": round(entry["mean_regret"], 6)}
                for entry in summary["regret_leaderboard"][:5]
            ],
        }
    return result


def run_bench(scale: float, seed: int, events: int) -> dict:
    on = _run_condition(scale, seed, events, with_feedback=True)
    off = _run_condition(scale, seed, events, with_feedback=False)

    if on["rows_keys"] != off["rows_keys"]:
        raise SystemExit("feedback changed result rows -- plan-invariance "
                         "violated; refusing to record")
    # Raw row payloads are only needed for the cross-condition check.
    on.pop("rows_keys")
    off.pop("rows_keys")

    on_means = on["qerror_rows_mean_per_run"]
    off_means = off["qerror_rows_mean_per_run"]
    converged = min(on_means[1:])
    entries = {
        "qerror_rows_mean": {
            "before_s": on_means[0],
            "after_s": round(converged, 6),
            "speedup": round(on_means[0] / converged, 3),
        },
    }
    return {
        "pr": 8,
        "schema_version": 1,
        "python": platform.python_version(),
        "workload": {
            "scale": scale,
            "seed": seed,
            "weblog_events": events,
            "batch": [factory().name for factory in MIXED_SEQUENCE],
            "measured_runs": MEASURED_RUNS,
            "protocol": "warm (1 warmup batch), feedback cleared before "
                        "measured run 1",
        },
        "feedback_on": on,
        "feedback_off": {
            "qerror_rows_mean_per_run": off_means,
            "max_run_to_run_drift": round(
                max(off_means) - min(off_means), 9),
        },
        "modes": {"full": {"mode": "full", "entries": entries}},
    }


def check(path: Path) -> int:
    recorded = json.loads(path.read_text())
    failures = []
    on_means = recorded["feedback_on"]["qerror_rows_mean_per_run"]
    off = recorded["feedback_off"]
    if not all(mean < on_means[0] for mean in on_means[1:]):
        failures.append(
            f"feedback on: run 2+ q-error {on_means[1:]} did not "
            f"improve on run 1 ({on_means[0]})")
    entry = recorded["modes"]["full"]["entries"]["qerror_rows_mean"]
    if entry["speedup"] <= 1.0:
        failures.append(f"qerror_rows_mean speedup {entry['speedup']} "
                        "<= 1.0 (no measurable improvement)")
    if off["max_run_to_run_drift"] != 0.0:
        failures.append(
            "feedback off: q-error drifted across identical warm runs "
            f"({off['qerror_rows_mean_per_run']})")
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print(f"ok: {path} -- q-error shrinks with feedback on "
              f"(x{entry['speedup']}), stays put with feedback off")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", metavar="PATH",
                        help="write results as JSON")
    parser.add_argument("--check", metavar="PATH",
                        help="validate a recorded results file instead "
                             "of benchmarking")
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--events", type=int, default=EVENTS)
    args = parser.parse_args(argv)

    if args.check:
        return check(Path(args.check))

    results = run_bench(args.scale, args.seed, args.events)
    on = results["feedback_on"]["qerror_rows_mean_per_run"]
    off = results["feedback_off"]["qerror_rows_mean_per_run"]
    print(f"mean qerror.rows, feedback ON : "
          f"{' -> '.join(f'{m:.4f}' for m in on)}")
    print(f"mean qerror.rows, feedback OFF: "
          f"{' -> '.join(f'{m:.4f}' for m in off)}")
    entry = results["modes"]["full"]["entries"]["qerror_rows_mean"]
    print(f"improvement: {entry['before_s']:.4f} -> {entry['after_s']:.4f} "
          f"(x{entry['speedup']})")
    regret = results["feedback_on"].get("regret_mean_per_run")
    if regret:
        print(f"mean regret per run: "
              f"{' -> '.join(f'{m:.4f}' for m in regret)}")
    if args.output:
        Path(args.output).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
