"""Check the suite's deterministic values against ``sim_pins.json``.

    python benchmarks/check_pins.py [--workload W ...] [--write]

Simulated seconds and data-volume counts are exact per seed under
``PYTHONHASHSEED=0``, so they are gated by equality instead of by a
wall-clock bound: each workload runs once at the pinned seed and length
with ``--trace 1`` (one untraced pass, one traced) in a fresh
interpreter; ``sim_s_per_op`` of the untraced pass must match its pin to
``rel_tol=1e-9`` and every pinned per-layer count of the traced pass
must match exactly, as must the plan- and result-cache counts of the
serving and standing workloads. A change that trips the gate without
meaning to has changed a byte size, a plan, the amount of data a job
touches or what the caches reuse; one
that means to re-pins what it moved (``--write`` rewrites the pins of
the workloads it ran from what it measured -- review the diff).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().with_name("sim_pins.json")

#: per-layer counts pinned on every workload, plus per-workload extras.
PINNED_COUNTS = ("runtime.jobs", "runtime.map_input_records",
                 "runtime.shuffle_bytes", "runtime.output_records",
                 "pilot.jobs_run", "dynopt.iterations")
EXTRA_COUNTS = {"standing_refresh": ("standing.delta_count",
                                     "standing.full_count")}
#: cache hit/miss/invalidation counts, read from the record's ``counts``;
#: exact because the service runs every request on one driver thread.
CACHE_COUNTS = tuple(f"{cache}.{kind}"
                     for cache in ("plan_cache", "result_cache")
                     for kind in ("hits", "misses", "invalidations"))
CACHED_WORKLOADS = ("serving_uncached", "serving_cached", "standing_refresh")


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 1`` run of ``workload`` in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as scratch:
        record_path = Path(scratch) / "record.json"
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite",
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1",
             "--record", str(record_path)],
            cwd=REPO_ROOT, text=True, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        if not record_path.exists():
            raise SystemExit(f"{workload}: no record produced\n"
                             f"{done.stdout}{done.stderr}")
        return json.loads(record_path.read_text())


def measured_pins(workload: str, record: dict) -> tuple[float, dict]:
    names = PINNED_COUNTS + EXTRA_COUNTS.get(workload, ())
    counts = {name: int(record["metrics"][name]["value"]) for name in names}
    if workload in CACHED_WORKLOADS:
        counts.update({name: int(record["counts"][name])
                       for name in CACHE_COUNTS})
    return record["counts"]["sim_s_per_op"], counts


def main(argv: list[str]) -> int:
    pins = json.loads(PINS.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(pins["sim_s_per_op"]),
                        help="check only these (default: every pinned one)")
    parser.add_argument("--write", action="store_true",
                        help="re-pin the measured values instead of "
                             "checking them")
    args = parser.parse_args(argv)

    problems: list[str] = []
    for workload in args.workload or list(pins["sim_s_per_op"]):
        record = measure(workload, pins["seed"], pins["seconds"])
        if record["failed"] or not record["attempted"]:
            problems.append(f"{workload}: {record['failed']} failed op(s) "
                            f"of {record['attempted']}: "
                            f"{record['failures']}")
            continue
        sim, counts = measured_pins(workload, record)
        print(f"{workload}: sim_s_per_op {sim!r}, "
              + ", ".join(f"{name} {value}"
                          for name, value in counts.items()), flush=True)
        if args.write:
            pins["sim_s_per_op"][workload] = sim
            pins.setdefault("counts", {})[workload] = counts
            continue
        if not math.isclose(sim, pins["sim_s_per_op"][workload],
                            rel_tol=1e-9):
            problems.append(f"{workload}: sim_s_per_op {sim!r} != pinned "
                            f"{pins['sim_s_per_op'][workload]!r}")
        pinned_counts = pins["counts"][workload]
        for name, value in counts.items():
            if value != pinned_counts.get(name):
                problems.append(f"{workload}: {name} {value!r} != pinned "
                                f"{pinned_counts.get(name)!r}")
    if args.write:
        PINS.write_text(json.dumps(pins, indent=2) + "\n")
        print(f"wrote {PINS}")
    for problem in problems:
        print(f"PIN MISMATCH {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
