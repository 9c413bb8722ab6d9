"""``compare BASE.json NEW.json [MORE.json ...]``: verdicts per metric.

One row per workload x end-to-end metric: the base's median (and
quartiles when a file holds several runs), each other file's median, the
ratio new/base, and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``regressed`` -- the new median is worse than the base's by more than
  the bound;
* ``unresolved`` -- within the bound, but a side's own run-to-run spread
  (interquartile distance over median) exceeds the bound, so "unchanged"
  cannot be told from noise -- unless every new run reads better than
  every base run;
* ``ok`` -- otherwise.

Deterministic counts (simulated seconds, cache hits, pilot jobs, refresh
strategies) are compared for exact equality instead: on one commit and
one seed they must repeat exactly, and between commits a difference is a
behaviour change to explain, not noise.

Exit code: 1 when any metric regressed, 2 when only counts differ, else 0.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import stats
from .metrics import FAILED_OPS_RATIO

REPO_ROOT = Path(__file__).resolve().parents[2]


def declared_metrics() -> list[dict]:
    """End-to-end metric declarations: BENCHMARK.json's, plus failures."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    name, unit, better, bound = FAILED_OPS_RATIO
    return declared["end_to_end"] + [
        {"name": name, "unit": unit, "better": better, "bound": bound}]


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    worse = new - base if metric["better"] == "lower" else base - new
    if worse <= 0:
        return 0.0
    return worse / abs(base) if base else float("inf")


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    base_median = stats.quartiles(base)[1]
    new_median = stats.quartiles(new)[1]
    if worse_by(metric, base_median, new_median) > metric["bound"]:
        return "regressed"
    noisy = max(stats.spread(base), stats.spread(new)) > metric["bound"]
    if metric["better"] == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    return "unresolved" if noisy and not all_better else "ok"


def _values(entry: dict, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in entry["runs"]
            if metric in run["metrics"]]


def _show(values: list[float]) -> str:
    q1, median, q3 = stats.quartiles(values)
    if len(values) == 1:
        return f"{median:.4f}"
    return f"{median:.4f} [{q1:.4f}..{q3:.4f}] n={len(values)}"


def _counts(entry: dict) -> tuple[dict[str, float], set[str]]:
    """Counts of every run of one workload (untraced and traced), and
    the names on which the runs of this one file disagree."""
    merged: dict[str, float] = {}
    unstable: set[str] = set()
    for run in entry["runs"] + [entry["traced"]]:
        for name, value in run["counts"].items():
            if merged.setdefault(name, value) != value:
                unstable.add(name)
    return merged, unstable


def compare(base: dict, new: dict, metrics: list[dict]) -> list[tuple]:
    """Rows ``(workload, metric, unit, base, new, ratio, verdict)``."""
    rows = []
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            rows.append((workload, "-", "", "", "", "", "missing"))
            continue
        for metric in metrics:
            name = metric["name"]
            base_values = _values(base_entry, name)
            new_values = _values(new_entry, name)
            if not base_values or not new_values:
                continue
            base_median = stats.quartiles(base_values)[1]
            new_median = stats.quartiles(new_values)[1]
            ratio = (f"{new_median / base_median:.4f}x of "
                     f"{base_median:.4f}" if base_median else "-")
            rows.append((workload, name, metric["unit"],
                         _show(base_values), _show(new_values), ratio,
                         verdict(metric, base_values, new_values)))
        base_counts, base_unstable = _counts(base_entry)
        new_counts, new_unstable = _counts(new_entry)
        for name in sorted(base_counts.keys() & new_counts.keys()):
            if name in base_unstable | new_unstable:
                status = "unstable"
            elif base_counts[name] == new_counts[name]:
                status = "equal"
            else:
                status = "differs"
            rows.append((workload, name, "count",
                         f"{base_counts[name]:.6f}",
                         f"{new_counts[name]:.6f}", "", status))
    return rows


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite compare",
        description="Compare result files written by `run`; the first "
                    "file is the base of every ratio.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="+")
    args = parser.parse_args(argv)

    metrics = declared_metrics()
    base = json.loads(args.base.read_text())
    exit_code = 0
    for path in args.new:
        new = json.loads(path.read_text())
        for key in ("seed", "size", "seconds"):
            if base[key] != new[key]:
                raise SystemExit(
                    f"error: {path} ran with {key}={new[key]}, the base "
                    f"with {key}={base[key]}; only like runs compare")
        print(f"base {args.base} ({base['git_sha'][:12]})  vs  "
              f"{path} ({new['git_sha'][:12]})")
        rows = compare(base, new, metrics)
        widths = [max(len(str(row[i])) for row in rows) for i in range(7)]
        for row in rows:
            print("  " + "  ".join(str(cell).ljust(width)
                                   for cell, width in zip(row, widths)))
        verdicts = {row[6] for row in rows}
        if verdicts & {"regressed", "missing"}:
            exit_code = 1
        elif verdicts & {"differs", "unstable"} and exit_code == 0:
            exit_code = 2
    return exit_code
