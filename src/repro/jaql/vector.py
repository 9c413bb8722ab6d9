"""Vectorized predicate evaluation over column batches.

Predicates are evaluated as *selections*: a predicate maps a list of
candidate row indices to the sublist that passes. Semantics are exactly
those of ``Predicate.evaluate`` on qualified rows:

* a ``None`` operand fails a comparison;
* a ``TypeError`` from a comparison counts as False (mixed-type data);
* ``And`` narrows sequentially, ``Or`` unions its branches (a row passes
  if any branch passes), UDFs are applied per surviving index;
* any other ``Predicate`` subclass is applied through its ``evaluate``
  per surviving row.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.jaql.expr import (
    And,
    ColumnRef,
    Comparison,
    Or,
    Predicate,
    UdfPredicate,
    _COMPARATORS,
    qualify_row,
)


class ColumnResolver:
    """Per-batch cache of ``ColumnRef -> column values``.

    ``raw_alias`` marks the batch as unqualified base-table rows of that
    alias and selects the unqualified field name (``ref.column``) -- the
    leaf scan evaluates predicates *before* qualification, which is
    equivalent because qualification renames every field 1:1.
    """

    __slots__ = ("_batch", "_raw_alias", "_values")

    def __init__(self, batch: Any, raw_alias: str | None = None):
        self._batch = batch
        self._raw_alias = raw_alias
        self._values: dict[ColumnRef, list[Any]] = {}

    def _name(self, ref: ColumnRef) -> str:
        return ref.qualified if self._raw_alias is None else ref.column

    def row(self, index: int) -> Any:
        """Row ``index`` as ``Predicate.evaluate`` expects it (qualified)."""
        row = self._batch.rows[index]
        if self._raw_alias is None:
            return row
        return qualify_row(self._raw_alias, row)

    def values(self, ref: ColumnRef) -> list[Any]:
        values = self._values.get(ref)
        if values is None:
            values = self._batch.column(self._name(ref))
            if ref.steps:
                values = _walk_steps(values, ref.steps)
            self._values[ref] = values
        return values


def _walk_steps(values: list[Any], steps: tuple[str | int, ...]) -> list[Any]:
    """Apply a ref's nested-path steps to every value (None-propagating)."""
    out: list[Any] = []
    append = out.append
    for value in values:
        for step in steps:
            if value is None:
                break
            if isinstance(step, str):
                value = value.get(step) if isinstance(value, dict) else None
            else:
                if isinstance(value, list) and step < len(value):
                    value = value[step]
                else:
                    value = None
        append(value)
    return out


def select(predicates: Sequence[Predicate], columns: ColumnResolver,
           count: int) -> list[int]:
    """Indices (ascending) of the batch rows passing all ``predicates``."""
    indices: Sequence[int] = range(count)
    for predicate in predicates:
        if not indices:
            break
        indices = _apply(predicate, indices, columns)
    if type(indices) is range:
        return list(indices)
    return indices  # type: ignore[return-value]


def _apply(predicate: Predicate, indices: Sequence[int],
           columns: ColumnResolver) -> list[int]:
    kind = type(predicate)
    if kind is Comparison:
        return _apply_comparison(predicate, indices, columns)
    if kind is And:
        narrowed: Sequence[int] = indices
        for part in predicate.parts:
            if not narrowed:
                break
            narrowed = _apply(part, narrowed, columns)
        return list(narrowed) if type(narrowed) is range else narrowed
    if kind is Or:
        survivors: set[int] = set()
        for part in predicate.parts:
            survivors.update(_apply(part, indices, columns))
        return sorted(survivors)
    if kind is UdfPredicate:
        udf = predicate.udf
        arg_columns = [columns.values(arg) for arg in predicate.args]
        if len(arg_columns) == 1:
            column = arg_columns[0]
            return [i for i in indices if udf(column[i])]
        return [
            i for i in indices
            if udf(*(column[i] for column in arg_columns))
        ]
    # A Predicate subclass this module does not know: its contract is
    # evaluate(), so it runs per surviving row instead of per column.
    return [i for i in indices if predicate.evaluate(columns.row(i))]


def _apply_comparison(predicate: Comparison, indices: Sequence[int],
                      columns: ColumnResolver) -> list[int]:
    right = predicate.right
    comparator = _COMPARATORS[predicate.op]
    if isinstance(right, ColumnRef):
        left_values = columns.values(predicate.left)
        right_values = columns.values(right)
        try:
            return [
                i for i in indices
                if (lv := left_values[i]) is not None
                and (rv := right_values[i]) is not None
                and comparator(lv, rv)
            ]
        except TypeError:
            # Mixed-type data: redo the scan guarding each comparison the
            # way Comparison.evaluate does (a failing pair is just False).
            return _guarded_pair_scan(comparator, left_values, right_values,
                                      indices)
    if right is None:
        # `col op None` is False for every row (Comparison.evaluate).
        return []
    left_values = columns.values(predicate.left)
    try:
        return [
            i for i in indices
            if (lv := left_values[i]) is not None and comparator(lv, right)
        ]
    except TypeError:
        return _guarded_literal_scan(comparator, left_values, right, indices)


def _guarded_pair_scan(comparator, left_values, right_values,
                       indices) -> list[int]:
    out: list[int] = []
    append = out.append
    for i in indices:
        lv = left_values[i]
        rv = right_values[i]
        if lv is None or rv is None:
            continue
        try:
            if comparator(lv, rv):
                append(i)
        except TypeError:
            pass
    return out


def _guarded_literal_scan(comparator, left_values, right,
                          indices) -> list[int]:
    out: list[int] = []
    append = out.append
    for i in indices:
        lv = left_values[i]
        if lv is None:
            continue
        try:
            if comparator(lv, right):
                append(i)
        except TypeError:
            pass
    return out
