"""Check the suite's deterministic values against ``sim_pins.json``.

    python benchmarks/check_pins.py [--workload W ...] [--write]

Simulated seconds and data-volume counts are exact per seed under
``PYTHONHASHSEED=0``, so they are gated by equality instead of by a
wall-clock bound: each workload runs once at the pinned seed and length
with ``--trace 1`` (one untraced pass, one traced) in a fresh
interpreter; ``sim_s_per_op`` of the untraced pass and the traced pass's
sim-second sub-totals (pilots, optimizer, execution) must match their
pins to ``rel_tol=1e-9`` and every pinned per-layer count of the traced
pass must match exactly, as must the plan- and result-cache counts of
the serving and standing workloads and, on ``standing_refresh``, the
refreshes' sim-seconds (``standing.sim_s``, a float) and the change
rows applied (``cdc.delta_rows``).

Two counts measure the driver's own work, which the simulated clock
does not see: the rows sized by ``Schema.estimated_row_sizes`` (the
schema sizer every DFS write without carried sizes runs,
``sizing.schema_rows``) and by ``estimate_dict_sizes`` (the value sizer
behind ``DFSFile.value_sizes`` and ``RowBatch.ensure_sizes``, called
outside the schema sizer, ``sizing.value_rows``) inside the traced
pass's timed segments. They are harvested here, not by the suite:
the measuring child is this script, which wraps the two functions and
``Recorder.segment`` before handing its arguments to the suite's
command line. A change that trips the gate without
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
                 "runtime.spilled_bytes", "pilot.jobs_run",
                 "pilot.leaves_reused", "optimizer.plans_considered",
                 "dynopt.iterations", "dynopt.plan_changes",
                 "stats.metastore.entries", "dfs.files")
EXTRA_COUNTS = {"standing_refresh": ("standing.delta_count",
                                     "standing.full_count",
                                     "cdc.delta_rows")}
#: cache hit/miss/invalidation counts, read from the record's ``counts``;
#: exact because the service runs every request on one driver thread.
CACHE_COUNTS = tuple(f"{cache}.{kind}"
                     for cache in ("plan_cache", "result_cache")
                     for kind in ("hits", "misses", "invalidations"))
CACHED_WORKLOADS = ("serving_uncached", "serving_cached", "standing_refresh")
#: simulated-second sub-totals of the traced pass: which clock component
#: moved. Floats, so compared like ``sim_s_per_op``.
PINNED_SIM_SECONDS = ("pilot.sim_s", "dynopt.sim_optimizer_s",
                      "dynopt.sim_execution_s")
EXTRA_SIM_SECONDS = {"standing_refresh": ("standing.sim_s",)}
#: rows the driver sized in the traced pass's timed phase, by sizer.
SIZING_COUNTS = ("sizing.schema_rows", "sizing.value_rows")
#: first argument of the measuring child (see :func:`child`).
CHILD = "--child"


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 1`` run of ``workload`` in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as scratch:
        record_path = Path(scratch) / "record.json"
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), CHILD,
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1",
             "--record", str(record_path)],
            cwd=REPO_ROOT, text=True, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        if not record_path.exists():
            raise SystemExit(f"{workload}: no record produced\n"
                             f"{done.stdout}{done.stderr}")
        return json.loads(record_path.read_text())


def child(argv: list[str]) -> int:
    """``python -m benchmarks.suite ARGV`` with the sizers counted.

    Rows count when the call returns inside a timed segment of the
    traced pass (the recorder carries a tracer there). A value-sizer
    call made by the schema sizer (empty schemas delegate to it) counts
    once, as schema work.
    """
    sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    import contextlib

    from benchmarks.suite import cli
    from benchmarks.suite.workloads import Recorder
    from repro.data import schema as schema_module

    counts = dict.fromkeys(SIZING_COUNTS, 0)
    state = {"timed": False, "depth": 0}

    def counted(fn, name, nested_ok):
        def sizer(*args):
            state["depth"] += 1
            try:
                sizes = fn(*args)
            finally:
                state["depth"] -= 1
            if state["timed"] and (nested_ok or not state["depth"]):
                counts[name] += len(sizes)
            return sizes
        return sizer

    schema_sizer = schema_module.Schema.estimated_row_sizes
    schema_module.Schema.estimated_row_sizes = counted(
        schema_sizer, "sizing.schema_rows", True)
    value_sizer = schema_module.estimate_dict_sizes
    wrapped = counted(value_sizer, "sizing.value_rows", False)
    # Every module that bound the function by name calls it from there.
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and \
                vars(module).get("estimate_dict_sizes") is value_sizer:
            module.estimate_dict_sizes = wrapped

    segment = Recorder.segment

    @contextlib.contextmanager
    def timed_segment(recorder, op_id):
        with segment(recorder, op_id):
            state["timed"] = recorder.tracer is not None
            try:
                yield
            finally:
                state["timed"] = False

    Recorder.segment = timed_segment
    status = cli.measure_main(argv)
    record_path = Path(argv[argv.index("--record") + 1])
    record = json.loads(record_path.read_text())
    record["sizing"] = counts
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    return status


def measured_pins(workload: str,
                  record: dict) -> tuple[float, dict, dict]:
    names = PINNED_COUNTS + EXTRA_COUNTS.get(workload, ())
    counts = {name: int(record["metrics"][name]["value"]) for name in names}
    counts.update(record["sizing"])
    if workload in CACHED_WORKLOADS:
        counts.update({name: int(record["counts"][name])
                       for name in CACHE_COUNTS})
    sim_seconds = {name: float(record["metrics"][name]["value"])
                   for name in PINNED_SIM_SECONDS
                   + EXTRA_SIM_SECONDS.get(workload, ())}
    return record["counts"]["sim_s_per_op"], counts, sim_seconds


def main(argv: list[str]) -> int:
    if argv[:1] == [CHILD]:
        return child(argv[1:])
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
        sim, counts, sim_seconds = measured_pins(workload, record)
        print(f"{workload}: sim_s_per_op {sim!r}, "
              + ", ".join(f"{name} {value}" for name, value
                          in {**sim_seconds, **counts}.items()), flush=True)
        if args.write:
            pins["sim_s_per_op"][workload] = sim
            pins.setdefault("sim_seconds", {})[workload] = sim_seconds
            pins.setdefault("counts", {})[workload] = counts
            continue
        pinned_floats = {"sim_s_per_op": pins["sim_s_per_op"][workload],
                         **pins["sim_seconds"][workload]}
        for name, value in {"sim_s_per_op": sim, **sim_seconds}.items():
            if not math.isclose(value, pinned_floats[name], rel_tol=1e-9):
                problems.append(f"{workload}: {name} {value!r} != pinned "
                                f"{pinned_floats[name]!r}")
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
