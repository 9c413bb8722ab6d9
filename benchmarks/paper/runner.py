"""Run the experiment record: ``python -m benchmarks.paper [--only NAME ...]``.

Runs each entry of :data:`benchmarks.paper.registry.REGISTRY` once,
writes its table to ``benchmarks/results/<name>.txt``, checks its claims
and, when every entry ran, writes ``benchmarks/results/REPORT.md`` from
the same results (every table, the plan printouts and the run's
configuration fingerprint). Exits non-zero when any claim fails; the
tables are still written, so the failing numbers can be read.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from benchmarks.paper.registry import REGISTRY, Entry
from repro.config import DEFAULT_CONFIG, DynoConfig

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _config_fingerprint(config: DynoConfig) -> str:
    lines = ["### Configuration", "", "```"]
    for section in ("cluster", "optimizer", "pilot"):
        values = asdict(getattr(config, section))
        lines.append(f"[{section}]")
        for key, value in sorted(values.items()):
            lines.append(f"  {key} = {value}")
    lines.append(f"backend = {config.backend}")
    lines.append("```")
    return "\n".join(lines)


@dataclass
class Record:
    texts: dict[str, str] = field(default_factory=dict)
    report: str = ""
    failures: list[str] = field(default_factory=list)


def run(entries: Sequence[Entry],
        config: DynoConfig = DEFAULT_CONFIG) -> Record:
    """Run each entry once; its text, report and claims read that run.
    Progress and failed claims' tracebacks go to stderr."""
    record = Record()
    sections = [
        "# DYNO reproduction -- experiment report",
        "",
        "All times are simulated cluster seconds; every table is "
        "normalized as in the paper (see EXPERIMENTS.md for the "
        "paper-vs-measured discussion).",
        "",
        _config_fingerprint(config),
    ]
    for entry in entries:
        started = time.perf_counter()
        print(f"running {entry.name} ...", file=sys.stderr, flush=True)
        result = entry.run(config)
        record.texts[entry.name] = entry.text(result) + "\n"
        if entry.report is not None:
            sections += ["", entry.report(result)]
        try:
            entry.check(result)
        except AssertionError as failure:
            traceback.print_exc(file=sys.stderr)
            record.failures.append(
                f"{entry.name}: {failure or 'claim failed'}")
        print(f"  done in {time.perf_counter() - started:.1f}s wall",
              file=sys.stderr, flush=True)
    record.report = "\n".join(sections) + "\n"
    return record


def main(argv: list[str] | None = None,
         registry: Sequence[Entry] = REGISTRY,
         results_dir: Path = RESULTS_DIR) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper",
        description="Regenerate the paper's tables and the decision "
                    "benchmarks into benchmarks/results/ and check their "
                    "claims.",
    )
    parser.add_argument(
        "--only", nargs="+", metavar="NAME",
        choices=[entry.name for entry in registry],
        help="run only these entries (REPORT.md is then left as it is)",
    )
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("the claims are assert statements; run without -O")
    record = run([entry for entry in registry
                  if args.only is None or entry.name in args.only])
    results_dir.mkdir(parents=True, exist_ok=True)
    for name, text in record.texts.items():
        (results_dir / f"{name}.txt").write_text(text)
        print(text)
    if args.only is None:
        (results_dir / "REPORT.md").write_text(record.report)
    for failure in record.failures:
        print(f"FAIL {failure}")
    return 1 if record.failures else 0
