"""Columnar batch views over row dicts (the engine's one data path).

The engine stores records as JSON-like dicts; batches do not change that
storage model, they change *access*: a batch exposes one Python list per
column (gathered lazily and cached), so hot operators -- predicate
evaluation, join key extraction, statistics ingest -- run one tight loop
per column instead of a dict probe per row per field.

Two batch shapes share one duck-typed protocol (``rows``, ``column(name)``,
``ensure_sizes()``, ``qualified(alias, selection)``, ``__len__``):

* :class:`SplitBatch` -- a view over a row range of a DFS file (one
  split, or the whole file for a broadcast build load), sharing the
  owning file's per-column caches, its value-exact per-row sizes and its
  per-alias memo of qualified rows;
* :class:`RowBatch` -- a materialized operator output (filtered/joined
  rows) with lazily gathered columns.

Columns are plain Python lists and selections plain index lists; the
engine imports no array library (docs/performance.md, "Forks that were
measured and removed", has the numbers behind that).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.data.schema import estimate_dict_size, estimate_dict_sizes
from repro.data.table import Row, qualify_row


# ---------------------------------------------------------------------------
# Column-index memo
# ---------------------------------------------------------------------------

#: name-tuple -> {name: position} memo so repeated column resolution against
#: the same schema is a dict hit instead of a scan. Keyed by the identity of
#: the (hashable, immutable) names tuple; bounded like the KMV hash memo.
_COLUMN_INDEX: dict[tuple[str, ...], dict[str, int]] = {}
_COLUMN_INDEX_LIMIT = 4096


def column_index(names: tuple[str, ...]) -> dict[str, int]:
    """Cached ``{column name: position}`` for a schema's name tuple."""
    index = _COLUMN_INDEX.get(names)
    if index is None:
        index = {name: position for position, name in enumerate(names)}
        if len(_COLUMN_INDEX) < _COLUMN_INDEX_LIMIT:
            _COLUMN_INDEX[names] = index
    return index


class RowBatch:
    """Materialized operator output: rows plus lazily gathered columns.

    ``sizes`` (when provided by the producer) must satisfy
    ``sizes[i] == estimate_value_size(rows[i])``; operators derive it in
    O(1) from their inputs (e.g. merged-row size arithmetic) so the byte
    accounting never re-walks a dict it already sized.
    """

    __slots__ = ("rows", "sizes", "_columns")

    def __init__(self, rows: list[Row], sizes: list[int] | None = None):
        self.rows = rows
        self.sizes = sizes
        self._columns: dict[str, list[Any]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        """Values of ``name`` across the batch (``row.get`` semantics)."""
        values = self._columns.get(name)
        if values is None:
            values = [row.get(name) for row in self.rows]
            self._columns[name] = values
        return values

    def ensure_sizes(self) -> list[int]:
        """Per-row ``estimate_value_size``, computing it once if missing."""
        if self.sizes is None:
            self.sizes = estimate_dict_sizes(self.rows)
        return self.sizes

    def qualified(self, alias: str, selection: Sequence[int]) -> list[Row]:
        """Rows at ``selection`` renamed ``alias.field``: fresh dicts --
        a materialized batch has no file version to keep them with."""
        rows = self.rows
        return [qualify_row(alias, rows[i]) for i in selection]


class SplitBatch:
    """Columnar view over a ``[start, stop)`` row range of a DFS file.

    Column gathers, row sizes and qualified rows are delegated to the
    owning file so every split (and every re-read of the file) shares
    one cache; the batch only slices its row range out of them.
    """

    __slots__ = ("rows", "_file", "_start", "_stop")

    def __init__(self, rows: list[Row], file: Any, start: int, stop: int):
        self.rows = rows
        self._file = file
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        return self._file.column_values(name)[self._start:self._stop]

    def ensure_sizes(self) -> list[int]:
        """Per-row ``estimate_value_size``: a slice of the file's
        value-exact sizes (see ``DFSFile.value_sizes``), never a re-walk."""
        return self._file.value_sizes()[self._start:self._stop]

    def qualified(self, alias: str, selection: Sequence[int]) -> list[Row]:
        """Rows at ``selection`` renamed ``alias.field``, out of the
        file's per-alias memo (see ``DFSFile.qualified_rows``): shared,
        immutable dicts, built once per file version."""
        return self._file.qualified_rows(alias, self._start, selection)


__all__ = [
    "RowBatch",
    "SplitBatch",
    "column_index",
    "estimate_dict_size",
    "estimate_dict_sizes",
]
