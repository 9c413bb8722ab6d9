"""Incremental-refresh benchmark: delta join vs full recompute.

Measures *simulated* cluster seconds (the currency of every experiment
in this repo) for keeping one standing query fresh across an append-only
change batch, at change rates of 1%, 10% and 50% of the base table:

* **delta** -- the standing-query manager forced onto the incremental
  path: the core query re-runs over the batch's delta file and the
  result merges into the maintained state;
* **full** -- the manager forced onto the recompute path: the core
  query re-runs over the whole changed table.

Both paths execute through the service (pilots, optimizer, replans), and
the benchmark asserts their maintained results are identical before
reporting -- a mini differential oracle. The ``chosen`` field records
which strategy the cardinality rule would actually pick at the default
0.3 threshold.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py \
        --mode full --output BENCH_PR10.json
    PYTHONPATH=src python benchmarks/bench_incremental.py \
        --mode smoke --check BENCH_PR10.json

``--check`` enforces the acceptance criterion: delta refresh must be at
least ``--min-speedup`` (default 2.0) times cheaper than the full
recompute at the 1% change rate.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.incremental import (  # noqa: E402
    ChangeGenerator,
    StandingQueryManager,
    apply_change_batch,
)
from repro.service import QueryService  # noqa: E402
from repro.validation import canonical_rows  # noqa: E402
from repro.workloads.changing import (  # noqa: E402
    KEY_COLUMNS,
    changing_tables,
    changing_udfs,
)
from repro.workloads.weblogs import weblog_engagement  # noqa: E402

WORKLOAD = "WeblogEngagement"
CHANGE_RATES = (("1%", 0.01), ("10%", 0.10), ("50%", 0.50))
SEED = 2014
#: the manager's default decision threshold, re-applied to the measured
#: ratio for the ``chosen`` field.
DECISION_THRESHOLD = 0.3

MODES = {
    "full": dict(scale_factor=0.25),
    "smoke": dict(scale_factor=0.05),
}


def run_refresh(scale_factor: float, change_rate: float,
                strategy: str) -> dict[str, Any]:
    """One forced-strategy refresh; returns timing + result fingerprint.

    Forcing goes through the decision threshold (1.0 admits any delta,
    ~0 forces every refresh full), so the measured path is exactly what
    the manager executes when it decides that way itself.
    """
    tables = changing_tables(scale_factor, seed=23)
    service = QueryService(tables, udfs=changing_udfs())
    threshold = 1.0 if strategy == "delta" else 1e-9
    manager = StandingQueryManager(service, full_threshold=threshold)
    workload = weblog_engagement()
    manager.register(WORKLOAD, workload.final_spec)

    generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                KEY_COLUMNS["pageviews"], seed=SEED)
    batch = generator.next_batch(change_rate)
    applied = apply_change_batch(service.dyno, batch,
                                 KEY_COLUMNS["pageviews"])
    report = manager.refresh(applied)
    outcome, = report.outcomes
    if not outcome.ok:
        raise RuntimeError(f"refresh failed: {outcome.error}")
    if outcome.decision.strategy != strategy:
        raise RuntimeError(
            f"could not force {strategy} at rate {change_rate}: "
            f"manager chose {outcome.decision.strategy} "
            f"({outcome.decision.reason})"
        )
    return {
        "simulated_seconds": outcome.simulated_seconds,
        "ratio": outcome.decision.ratio,
        "rows": outcome.rows,
        "fingerprint": canonical_rows(manager.result(WORKLOAD),
                                      float_places=6),
    }


def run_suite(mode: str) -> dict[str, Any]:
    scale_factor = MODES[mode]["scale_factor"]
    rates: dict[str, Any] = {}
    for label, change_rate in CHANGE_RATES:
        delta = run_refresh(scale_factor, change_rate, "delta")
        full = run_refresh(scale_factor, change_rate, "full")
        if delta["fingerprint"] != full["fingerprint"]:
            raise RuntimeError(
                f"delta and full refresh disagree at {label}: the "
                "incremental path is wrong, not just slow"
            )
        speedup = (full["simulated_seconds"] / delta["simulated_seconds"]
                   if delta["simulated_seconds"] > 0 else float("inf"))
        rates[label] = {
            "change_rate": change_rate,
            "delta_s": round(delta["simulated_seconds"], 3),
            "full_s": round(full["simulated_seconds"], 3),
            "speedup": round(speedup, 3),
            "ratio": round(delta["ratio"], 6),
            "chosen": ("delta" if delta["ratio"] <= DECISION_THRESHOLD
                       else "full"),
            "rows": delta["rows"],
        }
        print(f"  {label:>4}: delta {rates[label]['delta_s']:9.1f}s  "
              f"full {rates[label]['full_s']:9.1f}s  "
              f"speedup {rates[label]['speedup']:6.2f}x  "
              f"chosen={rates[label]['chosen']}", flush=True)
    return {
        "mode": mode,
        "scale_factor": scale_factor,
        "workload": WORKLOAD,
        "rates": rates,
    }


def check_report(report: dict[str, Any], min_speedup: float) -> list[str]:
    """Failure messages against the acceptance criteria."""
    failures: list[str] = []
    rates = report.get("rates", {})
    one_percent = rates.get("1%", {})
    speedup = one_percent.get("speedup", 0.0)
    if speedup < min_speedup:
        failures.append(
            f"1% change rate: delta refresh speedup {speedup:.2f}x "
            f"< required {min_speedup:.1f}x"
        )
    if one_percent.get("chosen") != "delta":
        failures.append(
            "1% change rate: the cardinality rule should pick delta "
            f"(ratio {one_percent.get('ratio')})"
        )
    if rates.get("50%", {}).get("chosen") != "full":
        failures.append(
            "50% change rate: the cardinality rule should pick full "
            f"(ratio {rates.get('50%', {}).get('ratio')})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="smoke")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--check", type=Path, default=None,
                        help="also validate this previously written "
                             "report (defaults to the fresh run)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required delta-over-full speedup at the "
                             "1%% change rate (default 2.0)")
    args = parser.parse_args(argv)

    print(f"incremental refresh suite: mode={args.mode}", flush=True)
    report = run_suite(args.mode)

    if args.output is not None:
        payload = {
            "pr": 10,
            "schema_version": 1,
            "python": platform.python_version(),
            **report,
        }
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")

    target = report
    if args.check is not None:
        target = json.loads(args.check.read_text())
    failures = check_report(target, args.min_speedup)
    # The fresh run must hold up too, not just the committed file.
    if args.check is not None:
        failures += [f"(fresh run) {f}"
                     for f in check_report(report, args.min_speedup)]
    if failures:
        print("INCREMENTAL BENCH FAILURE:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"incremental check OK (delta >= {args.min_speedup:.1f}x at 1%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
