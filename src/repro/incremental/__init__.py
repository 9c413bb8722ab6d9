"""Incremental maintenance of standing queries over changing data.

The ROADMAP's last open item: every workload so far was a read-only
one-shot, yet the paper's core promise -- re-optimizing as statistics
shift -- matters most when the data itself keeps changing. This package
adds the two halves:

* :mod:`repro.incremental.cdc` -- a change-data-capture layer over the
  simulated DFS: seeded, deterministic append/update/delete batches per
  table, applied atomically (base table re-registered, delta files
  published as scannable tables with their statistics, the table's
  metastore statistics folded exactly);
* :mod:`repro.incremental.standing` -- a ``StandingQueryManager`` that
  registers queries with the service, tracks which base tables each
  canonical block reads, and on every change batch chooses -- by
  estimated affected-row cardinality against the full recompute, via the
  existing :class:`~repro.optimizer.cardinality.CardinalityModel` --
  between an incremental delta-join refresh and a full DYNOPT recompute,
  both executed through the service's optimize->pilot->replan path.
"""

from repro.incremental.cdc import (
    AppliedChange,
    ChangeBatch,
    ChangeGenerator,
    apply_change_batch,
    delete_delta_name,
    insert_delta_name,
)
from repro.incremental.standing import (
    RefreshDecision,
    RefreshOutcome,
    RefreshReport,
    StandingQuery,
    StandingQueryManager,
)

__all__ = [
    "AppliedChange",
    "ChangeBatch",
    "ChangeGenerator",
    "RefreshDecision",
    "RefreshOutcome",
    "RefreshReport",
    "StandingQuery",
    "StandingQueryManager",
    "apply_change_batch",
    "delete_delta_name",
    "insert_delta_name",
]
