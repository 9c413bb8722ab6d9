"""Command line of the suite.

Three forms::

    python -m benchmarks.suite --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.suite run [--seed N] [--repeats K] [--out FILE]
    python -m benchmarks.suite compare BASE.json NEW.json [MORE.json ...]

The first measures one workload in this process and prints one JSON
object as the last line of stdout; it is the command ``BENCHMARK.json``
names. ``run`` launches it once per workload and pass, each in a fresh
interpreter, and gathers one result file; ``compare`` reads result files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"
DEFAULT_SEED = 2014


def _need_engine() -> None:
    """Make ``repro`` importable; refuse configurations we do not measure."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"error: no engine to measure under {source}")
    if "DYNO_COLUMNAR" in os.environ:
        raise SystemExit(
            "error: DYNO_COLUMNAR is set; the suite measures DEFAULT_CONFIG "
            "(row engine) only -- unset it")
    sys.path.insert(0, str(source))


def _measure_parser() -> argparse.ArgumentParser:
    from .workloads import NOMINAL_SECONDS

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Measure one workload in this process.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds data and request generation only")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="scales the fixed op counts; the sizes are "
                             f"calibrated for {NOMINAL_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from a traced pass")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", type=Path,
                        help="also write the full record as JSON here")
    return parser


def measure_main(argv: list[str]) -> int:
    _need_engine()
    from .harness import measure
    from .workloads import WORKLOADS

    args = _measure_parser().parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    record = measure(args.workload, args.seed, args.seconds, args.size,
                     bool(args.trace), OUT_DIR)
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=2) + "\n")

    samples = record["samples"]
    print(f"{record['workload']} seed={record['seed']} "
          f"size={record['size']} {record['sizes']}")
    print(f"  ops={samples['ops']} (one latency sample each, "
          f"{samples['beyond_p90']} beyond p90) "
          f"wall={record['wall']['total_s']:.1f}s")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    # failed_ops_ratio stays in the record; the contract line carries
    # only the metrics BENCHMARK.json declares.
    declared = {name: metric for name, metric in record["metrics"].items()
                if name != "failed_ops_ratio"}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": declared}))
    return 0 if record["correct"] else 1


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _child(workload: str, args, trace: int) -> dict:
    """One workload, one pass, one fresh interpreter."""
    with tempfile.TemporaryDirectory() as scratch:
        record_path = Path(scratch) / "record.json"
        command = [sys.executable, "-m", "benchmarks.suite",
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--size", args.size,
                   "--trace", str(trace), "--record", str(record_path)]
        # str hashes are salted per process; the salt reorders set
        # iteration and with it float sums, and simulated seconds then
        # differ in the ninth digit between otherwise identical runs.
        done = subprocess.run(command, cwd=REPO_ROOT, text=True,
                              capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
        if not record_path.exists():
            raise SystemExit(f"{workload} (trace {trace}) produced no "
                             f"record:\n{done.stdout}{done.stderr}")
        return json.loads(record_path.read_text())


def _per_run(record: dict) -> dict:
    """A record without what the result file states once for all runs."""
    return {key: record[key] for key in
            ("correct", "attempted", "failed", "failures", "metrics",
             "samples", "counts", "wall")}


def run_main(argv: list[str]) -> int:
    _need_engine()
    import numpy

    from .workloads import NOMINAL_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite run",
        description="All workloads, untraced then traced, one result file.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (the traced pass "
                             "runs once)")
    parser.add_argument("--out", type=Path,
                        help=f"result file (default under {OUT_DIR})")
    args = parser.parse_args(argv)

    result = {
        "schema": 1,
        "git_sha": _git_sha(),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workloads": {},
    }
    correct = True
    for workload in WORKLOADS:
        runs = [_child(workload, args, trace=0)
                for _ in range(args.repeats)]
        traced = _child(workload, args, trace=1)
        correct = correct and traced["correct"] \
            and all(run["correct"] for run in runs)
        result["workloads"][workload] = {
            "sizes": traced["sizes"],
            "runs": [_per_run(run) for run in runs],
            "traced": _per_run(traced),
        }
        first = runs[0]["metrics"]
        print(f"{workload:<18} "
              f"{first['throughput_ops_s']['value']:9.2f} op/s  "
              f"p50 {first['latency_ms_p50']['value']:8.2f} ms  "
              f"p90 {first['latency_ms_p90']['value']:8.2f} ms  "
              f"sim {first['sim_s_per_op']['value']:9.2f} s/op  "
              f"failed {sum(run['failed'] for run in runs)}", flush=True)

    out = args.out
    if out is None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = OUT_DIR / f"result-{result['git_sha'][:12]}-{args.seed}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "compare":
        from .compare import compare_main

        return compare_main(argv[1:])
    return measure_main(argv)
