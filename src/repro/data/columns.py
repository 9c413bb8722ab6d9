"""Columnar batch views over row dicts (the engine's one data path).

The engine stores records as JSON-like dicts; batches do not change that
storage model, they change *access*: a batch exposes one Python list per
column (gathered lazily and cached), so hot operators -- predicate
evaluation, join key extraction, statistics ingest -- run one tight loop
per column instead of a dict probe per row per field.

Two batch shapes share one duck-typed protocol (``rows``, ``column(name)``,
``array(name)``, ``ensure_sizes()``, ``qualified(alias, selection)``,
``__len__``):

* :class:`SplitBatch` -- a view over a row range of a DFS file (one
  split, or the whole file for a broadcast build load), sharing the
  owning file's per-column caches, its value-exact per-row sizes and its
  per-alias memo of qualified rows;
* :class:`RowBatch` -- a materialized operator output (filtered/joined
  rows) with lazily gathered columns.

``array(name)`` optionally exposes a numpy ``int64``/``float64`` array for
None-free, uniformly typed columns. numpy is strictly an accelerator for
computing selection *masks*: numpy scalars never enter rows, keys, or
statistics (``np.int64`` is not an exact ``int`` and would break the
KMV canonicalizer), so every consumer converts masks back to plain Python
index lists via ``.tolist()``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.data.schema import estimate_dict_size, estimate_dict_sizes
from repro.data.table import Row, qualify_row

try:  # optional accelerator; the pure-Python path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None  # type: ignore[assignment]


def numpy_available() -> bool:
    """True when the optional numpy backend can be used."""
    return _np is not None


def resolve_backend(backend: str) -> bool:
    """Map a ``columnar_backend`` config value to "use numpy?".

    ``"auto"`` opts in whenever numpy imports, ``"python"`` always uses the
    pure-Python column lists, ``"numpy"`` requires the accelerator.
    """
    if backend == "python":
        return False
    if backend == "numpy":
        if _np is None:
            raise ValueError(
                "columnar_backend='numpy' requested but numpy is not "
                "importable; use 'auto' or 'python'"
            )
        return True
    if backend != "auto":
        raise ValueError(f"unknown columnar backend: {backend!r}")
    return _np is not None


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


def to_column_array(values: list[Any]) -> Any:
    """numpy array for a None-free, uniformly ``int`` or ``float`` column.

    Exact-type checks (``type(v) is int``) keep bools and numpy scalars
    out; ``int64`` overflow falls back to the Python path rather than
    silently wrapping. Returns None when the column is not eligible.
    """
    if _np is None or not values:
        return None
    kinds = {type(value) for value in values}
    if kinds == {int}:
        try:
            return _np.asarray(values, dtype=_np.int64)
        except OverflowError:
            return None
    if kinds == {float}:
        return _np.asarray(values, dtype=_np.float64)
    return None


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

    def array(self, name: str) -> Any:
        """Materialized batches never carry numpy arrays."""
        return None

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

    Column gathers, numpy arrays, row sizes and qualified rows are
    delegated to the owning file so every split (and every re-read of
    the file) shares one cache; the batch only slices its row range out
    of them.
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

    def array(self, name: str) -> Any:
        array = self._file.column_array(name)
        if array is None:
            return None
        return array[self._start:self._stop]

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
    "numpy_available",
    "resolve_backend",
    "to_column_array",
]
