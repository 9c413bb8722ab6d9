"""Change data capture over the simulated DFS.

A :class:`ChangeBatch` is one table's worth of row-level changes --
inserts, deletes (preimages), updates (preimage/postimage pairs) -- as a
CDC stream would deliver them. Batches come from the seeded
:class:`ChangeGenerator` (deterministic: same seed, same sequence of
batches) and are applied by :func:`apply_change_batch`, which does three
things atomically from the engine's point of view:

1. the base table is rebuilt (:meth:`Table.with_changes`) and
   re-registered under its own name -- the DFS file is overwritten and
   the table's data epoch bumps, so the result cache can never serve
   rows computed over the previous contents;
2. the batch's *delta files* are published as ordinary scannable tables:
   the insert side (inserts + update postimages) as
   ``{table}@delta{seq}``, the delete side (deletes + update preimages)
   as ``{table}@delta{seq}-del``. Delta tables are first-class leaves --
   they pilot, collect statistics, and optimize like any base table,
   which is what lets a refresh query go through the full
   optimize->pilot->replan path;
3. the metastore folds the delta into the table's statistics
   (:meth:`StatisticsMetastore.apply_table_delta`): append-only batches
   merge row/byte counts conservatively, delete/update batches
   invalidate every signature (synopses cannot un-count), and either way
   the subscribed plan and result caches evict their dependent entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.data.schema import FLOAT, INT, STRING
from repro.data.table import Row, Table
from repro.errors import PlanError

__all__ = [
    "AppliedChange",
    "ChangeBatch",
    "ChangeGenerator",
    "apply_change_batch",
    "delete_delta_name",
    "insert_delta_name",
]


def insert_delta_name(table: str, sequence: int) -> str:
    """DFS/table name of a batch's insert-side delta file."""
    return f"{table}@delta{sequence}"


def delete_delta_name(table: str, sequence: int) -> str:
    """DFS/table name of a batch's delete-side delta file."""
    return f"{table}@delta{sequence}-del"


@dataclass(frozen=True)
class ChangeBatch:
    """One table's row-level changes, CDC style.

    ``deletes`` holds full preimage rows (not just keys): the delete-side
    delta file must be joinable against the unchanged tables to compute
    which derived rows disappear. ``updates`` pairs (preimage,
    postimage); an update is exactly a delete of the preimage plus an
    insert of the postimage, which is how the delta files expose it.
    """

    table: str
    sequence: int
    inserts: tuple[Row, ...] = ()
    deletes: tuple[Row, ...] = ()
    updates: tuple[tuple[Row, Row], ...] = ()

    @property
    def append_only(self) -> bool:
        return not self.deletes and not self.updates

    @property
    def delta_inserts(self) -> tuple[Row, ...]:
        """Rows the table gained: inserts plus update postimages."""
        return self.inserts + tuple(after for _, after in self.updates)

    @property
    def delta_deletes(self) -> tuple[Row, ...]:
        """Rows the table lost: deletes plus update preimages."""
        return self.deletes + tuple(before for before, _ in self.updates)

    @property
    def change_count(self) -> int:
        return len(self.inserts) + len(self.deletes) + len(self.updates)

    def describe(self) -> str:
        return (f"{self.table}@batch{self.sequence}: "
                f"+{len(self.inserts)} -{len(self.deletes)} "
                f"~{len(self.updates)}")


class ChangeGenerator:
    """Seeded deterministic CDC source over one table.

    Each :meth:`next_batch` call samples the *current* table state (the
    generator applies its own batches as it emits them, so delete and
    update targets always exist), derives everything from
    ``random.Random(seed * 1_000_003 + sequence)``, and never touches
    wall clock or global randomness -- the batch stream is a pure
    function of ``(table, key_column, seed)``.

    Inserts clone an existing row as a template and mint a fresh key:
    integer keys continue past the current maximum, string keys get a
    ``cdc{seq}-{i}`` suffix-free synthetic value. Updates perturb the
    first numeric (or string) non-key column via ``mutate`` --
    overridable for workload-specific shapes.
    """

    def __init__(self, table: Table, key_column: str, seed: int = 2014,
                 mutate=None):
        table.schema.type_of(key_column)
        self.key_column = key_column
        self.seed = seed
        self.sequence = 0
        self.current = table
        self._mutate = mutate or self._default_mutate

    def next_batch(self, change_rate: float,
                   mix: tuple[float, float, float] = (1.0, 0.0, 0.0),
                   ) -> ChangeBatch:
        """Emit (and internally apply) one batch.

        ``change_rate`` is the fraction of the current cardinality to
        touch (at least one row); ``mix`` weights (inserts, updates,
        deletes). The default mix is append-only.
        """
        if change_rate <= 0:
            raise PlanError("change_rate must be positive")
        weights = [max(w, 0.0) for w in mix]
        if sum(weights) <= 0:
            raise PlanError("change mix needs at least one positive weight")
        rng = random.Random(self.seed * 1_000_003 + self.sequence)
        total = max(1, round(len(self.current.rows) * change_rate))
        n_insert = round(total * weights[0] / sum(weights))
        n_update = round(total * weights[1] / sum(weights))
        n_delete = total - n_insert - n_update
        # Mutating rows must exist; clamp to the current cardinality.
        n_update = min(n_update, len(self.current.rows))
        n_delete = min(max(n_delete, 0),
                       len(self.current.rows) - n_update)

        victims = rng.sample(range(len(self.current.rows)),
                             n_update + n_delete) \
            if (n_update + n_delete) else []
        updates = tuple(
            (dict(self.current.rows[i]),
             self._mutate(rng, dict(self.current.rows[i])))
            for i in victims[:n_update]
        )
        deletes = tuple(dict(self.current.rows[i])
                        for i in victims[n_update:])
        inserts = self._synthesize(rng, n_insert)

        batch = ChangeBatch(self.current.name, self.sequence,
                            inserts, deletes, updates)
        self.current = self.current.with_changes(
            self.key_column, batch.inserts, batch.deletes, batch.updates
        )
        self.sequence += 1
        return batch

    # -- row synthesis -------------------------------------------------------

    def _synthesize(self, rng: random.Random, count: int) -> tuple[Row, ...]:
        """``count`` fresh rows: a cloned template each, under a new key."""
        rows = self.current.rows
        key_column = self.key_column
        numeric = self.current.schema.type_of(key_column).kind in (
            INT.kind, FLOAT.kind)
        top = 0
        if numeric and count:
            # The table does not change while a batch is synthesized: one
            # scan for the top key serves every insert of the batch.
            top = int(max(
                (row[key_column] for row in rows
                 if isinstance(row.get(key_column), (int, float))),
                default=0,
            ))
        inserts = []
        for offset in range(count):
            template = dict(rng.choice(rows))
            template[key_column] = (top + 1 + offset if numeric
                                    else f"cdc{self.sequence}-{offset}")
            inserts.append(template)
        return tuple(inserts)

    def _default_mutate(self, rng: random.Random, row: Row) -> Row:
        """Perturb one non-key column; the postimage must differ."""
        for name, ftype in self.current.schema.fields:
            if name == self.key_column:
                continue
            value = row.get(name)
            if ftype.kind == INT.kind and isinstance(value, int):
                row[name] = value + rng.randint(1, 9)
                return row
            if ftype.kind == FLOAT.kind and isinstance(value, float):
                row[name] = value + rng.randint(1, 9)
                return row
        for name, ftype in self.current.schema.fields:
            if name != self.key_column and ftype.kind == STRING.kind \
                    and isinstance(row.get(name), str):
                row[name] = row[name] + "~"
                return row
        raise PlanError(
            f"no mutable non-key column in {self.current.name}; "
            "pass a custom mutate callable"
        )


@dataclass
class AppliedChange:
    """What :func:`apply_change_batch` did to the engine."""

    batch: ChangeBatch
    #: post-change cardinality of the base table.
    table_rows: int
    #: registered insert-side delta table name, or None when empty.
    insert_delta: str | None
    #: registered delete-side delta table name, or None when empty.
    delete_delta: str | None
    #: total delta rows across both sides.
    delta_rows: int
    #: estimated serialized bytes of the delta rows.
    delta_bytes: float
    #: metastore outcome per touched signature ("merged"/"invalidated").
    stats_actions: dict[str, str] = field(default_factory=dict)


def apply_change_batch(dyno, batch: ChangeBatch,
                       key_column: str) -> AppliedChange:
    """Fold one change batch into a running :class:`~repro.core.dyno.Dyno`.

    Ordering matters only at the end: the metastore fold runs *after*
    the base table is re-registered, so by the time cache-invalidation
    listeners fire, any re-executed query already sees the new data.
    """
    base = dyno.tables.get(batch.table)
    if base is None:
        raise PlanError(f"unknown table {batch.table!r} in change batch")

    new_table = base.with_changes(key_column, batch.inserts,
                                  batch.deletes, batch.updates)

    insert_rows = [dict(row) for row in batch.delta_inserts]
    delete_rows = [dict(row) for row in batch.delta_deletes]
    insert_delta = delete_delta = None
    delta_bytes = 0.0
    if insert_rows:
        insert_delta = insert_delta_name(batch.table, batch.sequence)
        delta_table = Table(insert_delta, base.schema, insert_rows)
        dyno.register_table(insert_delta, delta_table)
        delta_bytes += delta_table.size_in_bytes()
    if delete_rows:
        delete_delta = delete_delta_name(batch.table, batch.sequence)
        delta_table = Table(delete_delta, base.schema, delete_rows)
        dyno.register_table(delete_delta, delta_table)
        delta_bytes += delta_table.size_in_bytes()

    dyno.register_table(batch.table, new_table)
    actions = dyno.metastore.apply_table_delta(
        batch.table,
        delta_rows=float(len(insert_rows)),
        delta_bytes=delta_bytes if batch.append_only else 0.0,
        append_only=batch.append_only,
    )

    applied = AppliedChange(
        batch=batch,
        table_rows=len(new_table),
        insert_delta=insert_delta,
        delete_delta=delete_delta,
        delta_rows=len(insert_rows) + len(delete_rows),
        delta_bytes=delta_bytes,
        stats_actions=actions,
    )
    if dyno.tracer.enabled:
        dyno.tracer.event(
            "cdc.batch",
            table=batch.table,
            sequence=batch.sequence,
            inserts=len(batch.inserts),
            deletes=len(batch.deletes),
            updates=len(batch.updates),
            append_only=batch.append_only,
            table_rows=applied.table_rows,
            stats_merged=sum(1 for a in actions.values() if a == "merged"),
            stats_invalidated=sum(
                1 for a in actions.values() if a == "invalidated"
            ),
        )
    if dyno.metrics.enabled:
        dyno.metrics.inc("incremental.cdc_batches")
        dyno.metrics.observe("incremental.cdc_rows",
                             float(applied.delta_rows))
    return applied
