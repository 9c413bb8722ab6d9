"""In-memory tables: a schema plus a list of JSON-like rows.

A :class:`Table` is the unit loaded into the simulated DFS. Byte sizes are
estimated from the schema so that the cluster simulator's I/O accounting,
split sizing and the optimizer's ``size(R)`` inputs are all consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.data.schema import Schema, column_values_conform
from repro.errors import SchemaError

Row = dict[str, Any]

#: Bounded memo of qualified field-name tuples, keyed by (alias, raw field
#: names). Rows of one table share identical key tuples, so qualification
#: becomes one cache hit plus a C-level ``dict(zip(...))`` instead of one
#: string format per field per row.
_QUALIFIED_NAMES: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {}
_QUALIFIED_NAMES_LIMIT = 4096


def qualify_row(alias: str, row: Row) -> Row:
    """``row`` with every field renamed ``alias.field`` (a new dict)."""
    cache_key = (alias, tuple(row))
    names = _QUALIFIED_NAMES.get(cache_key)
    if names is None:
        names = tuple(f"{alias}.{name}" for name in row)
        if len(_QUALIFIED_NAMES) < _QUALIFIED_NAMES_LIMIT:
            _QUALIFIED_NAMES[cache_key] = names
    return dict(zip(names, row.values()))


@dataclass
class Table:
    """A named collection of rows conforming to a :class:`Schema`."""

    name: str
    schema: Schema
    rows: list[Row]
    #: memo for :meth:`dfs_size_hints`; rows are immutable by engine-wide
    #: convention, so sizing is a pure function of the table.
    _size_hints: "tuple[list[int], bool] | None" = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_rows(
        name: str,
        schema: Schema,
        rows: Iterable[Row],
        validate: bool = False,
    ) -> "Table":
        """Build a table; with ``validate`` each row is schema-checked."""
        materialized = list(rows)
        if validate:
            for row in materialized:
                schema.validate_row(row)
        return Table(name, schema, materialized)

    # -- basic accessors -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    def size_in_bytes(self) -> int:
        """Total estimated serialized size (what HDFS would report)."""
        return sum(self.dfs_size_hints()[0])

    def dfs_size_hints(self) -> tuple[list[int], bool]:
        """Per-row schema sizes plus value-exactness, computed once.

        The DFS load path re-sized every row and re-scanned every column
        each time the same table was written into a fresh filesystem
        (every benchmark rep, every service run). Both results are pure
        functions of the (immutable-by-convention) rows, so they are
        memoized here and handed to ``write_rows`` as hints. The bool is
        the answer to ``DFSFile.sizes_are_value_exact``: do the schema
        sizes equal ``estimate_value_size`` row for row?
        """
        hints = self._size_hints
        if hints is None:
            schema = self.schema
            sizes = schema.estimated_row_sizes(self.rows)
            if not schema.fields:
                exact = True
            elif not schema.sizes_value_exact_scannable:
                exact = False
            else:
                exact = all(
                    column_values_conform(
                        ftype.kind, [row.get(name) for row in self.rows]
                    )
                    for name, ftype in schema.fields
                )
            hints = (sizes, exact)
            self._size_hints = hints
        return hints

    def average_row_size(self) -> float:
        if not self.rows:
            return 0.0
        return self.size_in_bytes() / len(self.rows)

    def column(self, name: str) -> list[Any]:
        """All values of one top-level column (validates the name)."""
        self.schema.type_of(name)
        return [row.get(name) for row in self.rows]

    # -- simple relational helpers (reference semantics, used by tests) ------

    def filter(self, predicate: Callable[[Row], bool]) -> "Table":
        return Table(self.name, self.schema,
                     [row for row in self.rows if predicate(row)])

    def project(self, names: Sequence[str]) -> "Table":
        projected = self.schema.project(names)
        return Table(
            self.name,
            projected,
            [{name: row.get(name) for name in names} for row in self.rows],
        )

    def head(self, count: int) -> "Table":
        return Table(self.name, self.schema, self.rows[:count])

    def distinct_count(self, column: str) -> int:
        """Exact number of distinct non-null values (ground truth for tests)."""
        values = {
            _hashable(value)
            for value in self.column(column)
            if value is not None
        }
        return len(values)

    # -- changing data (repro.incremental) -----------------------------------

    def with_changes(
        self,
        key_column: str,
        inserts: Sequence[Row] = (),
        deletes: Sequence[Row] = (),
        updates: Sequence[tuple[Row, Row]] = (),
    ) -> "Table":
        """New table with a CDC batch applied; ``self`` stays untouched.

        Rows are engine-wide immutable, so change application builds a
        fresh ``Table`` (fresh row list, copied row dicts for updated
        rows) rather than mutating in place -- earlier registrations of
        the same table may still be referenced by in-flight queries.
        Deletes and updates match on ``key_column``; a delete of an
        absent key or an update preimage that matches nothing raises, so
        generator bugs surface instead of silently diverging from the
        oracle's view of the data.
        """
        self.schema.type_of(key_column)
        dropped = {_hashable(row.get(key_column)) for row in deletes}
        replaced: dict[Any, Row] = {}
        for before, after in updates:
            if _hashable(before.get(key_column)) != \
                    _hashable(after.get(key_column)):
                raise SchemaError(
                    f"update changes key {key_column!r}; model key-changing "
                    "updates as delete+insert instead"
                )
            replaced[_hashable(before.get(key_column))] = dict(after)
        rows: list[Row] = []
        seen_deletes: set[Any] = set()
        seen_updates: set[Any] = set()
        for row in self.rows:
            key = _hashable(row.get(key_column))
            if key in dropped:
                seen_deletes.add(key)
                continue
            if key in replaced:
                seen_updates.add(key)
                rows.append(replaced[key])
                continue
            rows.append(row)
        if len(seen_deletes) != len(dropped):
            missing = sorted(map(repr, dropped - seen_deletes))
            raise SchemaError(
                f"delete keys not present in {self.name}: "
                + ", ".join(missing))
        if len(seen_updates) != len(replaced):
            missing = sorted(map(repr, set(replaced) - seen_updates))
            raise SchemaError(
                f"update keys not present in {self.name}: "
                + ", ".join(missing))
        rows.extend(dict(row) for row in inserts)
        return Table(self.name, self.schema, rows)


def _hashable(value: Any) -> Any:
    """Convert nested JSON-like values into hashable equivalents."""
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(item)) for key, item in value.items()))
    return value
