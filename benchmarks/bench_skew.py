"""Skew-join benchmark: ``./s`` vs the best feasible alternative.

On the seeded hot-key workload (two hot keys carrying 35% of the fact
table over a Zipf(1.2) tail, build side sized past the broadcast memory
gate) this harness runs each skewed workload twice through the full
DYNOPT driver:

* **after**  -- the default optimizer (skew rule enabled): the plan
  must contain a skew join;
* **before** -- ``enable_skew_rule=False``: the optimizer picks the
  cheaper of broadcast and repartition. Broadcast is memory-infeasible
  here (reported in the output), so "best alternative" degenerates to
  the repartition join -- exactly the hot-key convoy the operator
  exists to beat.

Per workload it records the simulated end-to-end seconds and the
optimizer's estimated plan cost, in the ``BENCH_PR*.json`` schema
(``before_s``/``after_s``/``speedup``). ``--check FILE`` re-measures at
the file's scale and seed and requires every entry to equal the recorded
one (the simulated clock is exact) and every speedup to stay > 1, which
keeps the committed file current and the claim "SKEWJOIN beats the best
feasible alternative on simulated cost" executable. The recorded Python
version is not compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_skew.py --output BENCH_PR7.json
    PYTHONPATH=src python benchmarks/bench_skew.py --check BENCH_PR7.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

from repro.config import DEFAULT_CONFIG, DynoConfig
from repro.core.dyno import Dyno
from repro.data.schema import estimate_value_size
from repro.optimizer.plans import summarize_plan
from repro.workloads.skewed import SKEWED_WORKLOADS, generate_skewed

SEED = 2014


def _no_skew(config: DynoConfig) -> DynoConfig:
    return replace(config, optimizer=replace(config.optimizer,
                                             enable_skew_rule=False))


def _run(tables, name: str, config: DynoConfig):
    """One full DYNOPT run; returns (simulated_s, plan_cost, skew_joins)."""
    workload = SKEWED_WORKLOADS[name]()
    dyno = Dyno(tables, config=config, udfs=workload.udfs)
    execution = dyno.execute(workload.final_spec, mode="dynopt",
                             strategy="UNC-1", name=name)
    cost = sum(block.iterations[0].estimated_cost
               for block in execution.block_results if block.iterations)
    skew_joins = sum(summarize_plan(plan).skew_joins
                     for block in execution.block_results
                     for plan in block.plans)
    return execution.total_seconds, cost, skew_joins


def _feasibility(tables, config: DynoConfig) -> dict:
    """Why broadcast is out: the users build side vs its memory gate."""
    budget = config.cluster.task_memory_bytes
    build_bytes = sum(estimate_value_size(row)
                      for row in tables["users"].rows)
    needed = build_bytes * config.optimizer.broadcast_safety_factor
    return {
        "users_build_bytes": build_bytes,
        "broadcast_limit_bytes": budget,
        "broadcast_feasible": needed <= budget,
    }


def run_bench(scale: float, seed: int) -> dict:
    tables = generate_skewed(scale=scale, seed=seed)
    entries: dict[str, dict] = {}
    for name in sorted(SKEWED_WORKLOADS):
        after_s, after_cost, skew_joins = _run(tables, name,
                                               DEFAULT_CONFIG)
        before_s, before_cost, alt_skew = _run(tables, name,
                                               _no_skew(DEFAULT_CONFIG))
        if skew_joins < 1:
            raise SystemExit(f"{name}: default optimizer planned no "
                             "skew join; benchmark is vacuous")
        if alt_skew != 0:
            raise SystemExit(f"{name}: skew join planned with the rule "
                             "disabled")
        entries[f"{name.lower()}_sim_seconds"] = {
            "before_s": round(before_s, 6),
            "after_s": round(after_s, 6),
            "speedup": round(before_s / after_s, 3),
        }
        entries[f"{name.lower()}_plan_cost"] = {
            "before_s": round(before_cost, 6),
            "after_s": round(after_cost, 6),
            "speedup": round(before_cost / after_cost, 3),
        }
    return {
        "pr": 7,
        "schema_version": 1,
        "python": platform.python_version(),
        "workload": {"scale": scale, "seed": seed,
                     "alternatives": _feasibility(
                         generate_skewed(scale=scale, seed=seed),
                         DEFAULT_CONFIG)},
        "modes": {"full": {"mode": "full", "entries": entries}},
    }


def check(path: Path) -> int:
    recorded = json.loads(path.read_text())
    measured = run_bench(recorded["workload"]["scale"],
                         recorded["workload"]["seed"])
    failures = []
    if measured["workload"] != recorded["workload"]:
        failures.append(f"workload: measured {measured['workload']} != "
                        f"recorded {recorded['workload']}")
    for mode, results in measured["modes"].items():
        entries = results["entries"]
        expected = recorded["modes"].get(mode, {}).get("entries", {})
        for name in sorted(set(entries) | set(expected)):
            entry = entries.get(name)
            if entry != expected.get(name):
                failures.append(f"{name}: measured {entry} != recorded "
                                f"{expected.get(name)}")
            elif entry["speedup"] <= 1.0:
                failures.append(f"{name}: speedup {entry['speedup']} "
                                "<= 1.0 (skew join did not win)")
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print(f"ok: {path} -- re-measured equal, and the skew join beats "
              "the best feasible alternative on every entry")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", metavar="PATH",
                        help="write results as JSON")
    parser.add_argument("--check", metavar="PATH",
                        help="re-measure and require every entry of a "
                             "recorded results file")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    if args.check:
        return check(Path(args.check))

    results = run_bench(args.scale, args.seed)
    for name, entry in results["modes"]["full"]["entries"].items():
        print(f"{name:32s} before={entry['before_s']:>12} "
              f"after={entry['after_s']:>12} x{entry['speedup']}")
    alternatives = results["workload"]["alternatives"]
    print(f"broadcast feasible: {alternatives['broadcast_feasible']} "
          f"(build {alternatives['users_build_bytes']}B)")
    if args.output:
        Path(args.output).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
