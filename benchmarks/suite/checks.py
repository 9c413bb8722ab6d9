"""The correctness gate: engine results against the AST interpreter.

The interpreter (:mod:`repro.jaql.interpreter`) shares no code with the
optimizer, compiler or simulated cluster, so it is the independent
reference. Results are compared in a *reduced* form: float-tolerant and
order-insensitive, and for LIMIT queries only the row count and the
multiset of ORDER BY key values, because a LIMIT may cut ties
differently under different plans.
"""

from __future__ import annotations

from repro.core.dyno import infer_schema
from repro.data.table import Row, Table
from repro.jaql.expr import ColumnRef, OrderBy, Project, QuerySpec, walk
from repro.validation import canonical_rows, interpret

from .generators import digest


def limit_key_columns(spec: QuerySpec) -> list[str] | None:
    """Output columns carrying the ORDER BY keys of a LIMIT query.

    None when the query has no LIMIT; an empty list when it has one but
    projects its order keys away (then only the row count is comparable).
    """
    order = next((node for node in walk(spec.root)
                  if isinstance(node, OrderBy) and node.limit is not None),
                 None)
    if order is None:
        return None
    if not isinstance(spec.root, Project):
        return [key.qualified for key in order.keys]
    columns = []
    for key in order.keys:
        for source, name in spec.root.outputs:
            if source == key or (not isinstance(source, ColumnRef)
                                 and not key.alias
                                 and source == key.column):
                columns.append(name)
                break
    return columns if len(columns) == len(order.keys) else []


def reduced(spec: QuerySpec, rows: list[Row]):
    """Comparable form of a result: what two correct engines agree on."""
    columns = limit_key_columns(spec)
    if columns is None:
        return canonical_rows(rows)
    keys = [{name: row.get(name) for name in columns} for row in rows]
    return [len(rows), canonical_rows(keys)]


def fingerprint(spec: QuerySpec, rows: list[Row]) -> str:
    return digest(reduced(spec, rows))


def oracle_fingerprint(tables: dict[str, Table],
                       stages: list[tuple[QuerySpec, str | None]]) -> str:
    """Interpret dependent stages in order (Section 5.1's block chain)."""
    tables = dict(tables)
    rows: list[Row] = []
    for spec, output in stages:
        rows = interpret(tables, spec)
        if output is not None:
            tables[output] = Table(output, infer_schema(rows), rows)
    return fingerprint(stages[-1][0], rows)
