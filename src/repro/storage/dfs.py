"""In-memory distributed file system (HDFS stand-in).

Files hold JSON-like rows and are split into fixed-size *blocks*; a block is
the unit of (a) map-task input assignment and (b) pilot-run sampling, exactly
matching how the paper's PILR algorithm samples "splits" of a relation
(Section 4.2). Byte sizes are estimated from the owning schema so the
simulator's I/O accounting is consistent end to end.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.data.columns import SplitBatch, column_index
from repro.data.schema import (
    Schema,
    column_values_conform,
    estimate_dict_sizes,
)
from repro.data.table import Row, Table, qualify_row
from repro.errors import StorageError

#: Aliases one file version keeps qualified rows for (oldest dropped). A
#: block scans a table under one alias, a self-join under two; four keeps
#: interleaved queries over the same table from evicting each other
#: without letting a file's memo grow with the number of queries it saw.
QUALIFIED_ALIAS_LIMIT = 4


@dataclass(frozen=True)
class Split:
    """One block of a DFS file: a contiguous run of rows."""

    file_name: str
    index: int
    start_row: int
    row_count: int
    size_bytes: int

    def describe(self) -> str:
        return f"{self.file_name}[{self.index}]"


@dataclass
class DFSFile:
    """A file: schema + rows, pre-partitioned into splits."""

    name: str
    schema: Schema
    rows: list[Row]
    block_size_bytes: int
    splits: list[Split] = field(default_factory=list)
    size_bytes: int = 0
    #: per-row estimated sizes; accepted from callers that already sized
    #: the rows with the schema's estimator (job finalize does), otherwise
    #: computed in bulk by :meth:`_build_splits`.
    row_sizes: list[int] | None = None
    #: lazy column caches shared by every split/read of this file.
    _columns: dict[str, list] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: memo for :meth:`sizes_are_value_exact` (None until first asked).
    _sizes_exact: bool | None = field(
        init=False, repr=False, compare=False, default=None
    )
    #: memo for :meth:`value_sizes` (None until first asked).
    _value_sizes: list[int] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    #: alias -> one slot per row: the row qualified under that alias, or
    #: None until a scan first lets it through (see :meth:`qualified_rows`).
    _qualified: dict[str, list[Row | None]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _qualified_lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def __post_init__(self) -> None:
        if self.block_size_bytes <= 0:
            raise StorageError("block size must be positive")
        self._build_splits()

    def _build_splits(self) -> None:
        self.splits = []
        start = 0
        block_rows = 0
        block_bytes = 0
        sizes = self.row_sizes
        if sizes is None or len(sizes) != len(self.rows):
            sizes = self.schema.estimated_row_sizes(self.rows)
            self.row_sizes = sizes
        self.size_bytes = sum(sizes)
        block_size_bytes = self.block_size_bytes
        for position, row_bytes in enumerate(sizes):
            if block_bytes + row_bytes > block_size_bytes and block_rows:
                self._append_split(start, block_rows, block_bytes)
                start = position
                block_rows = 0
                block_bytes = 0
            block_rows += 1
            block_bytes += row_bytes
        if block_rows or not self.splits:
            self._append_split(start, block_rows, block_bytes)

    def _append_split(self, start: int, rows: int, size: int) -> None:
        self.splits.append(
            Split(self.name, len(self.splits), start, rows, size)
        )

    # -- access --------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def _batch(self, start: int, stop: int) -> SplitBatch:
        return SplitBatch(self.rows[start:stop], self, start, stop)

    def split_batch(self, split: Split) -> SplitBatch:
        """Columnar view of one split (shares the file's column caches)."""
        if split.file_name != self.name:
            raise StorageError(
                f"split {split.describe()} does not belong to {self.name}"
            )
        return self._batch(split.start_row,
                           split.start_row + split.row_count)

    def file_batch(self) -> SplitBatch:
        """Columnar view of the whole file (broadcast build loads)."""
        return self._batch(0, len(self.rows))

    def value_sizes(self) -> list[int]:
        """``estimate_value_size`` of every row, for *every* file.

        Files whose stored sizes are provably value-exact (see
        :attr:`sizes_are_value_exact`) answer with ``row_sizes`` itself;
        the rest (nested struct/array columns, non-canonical dates,
        non-conforming values) pay one ``estimate_dict_sizes`` sweep on
        first ask -- never at load -- and keep the result for the file's
        lifetime. The sweep is idempotent, so callers on two threads
        sharing the file (a data pass and the refresh-decision probe,
        which runs outside the batch lock) at worst compute it twice,
        exactly like the ``_sizes_exact`` memo.
        """
        sizes = self._value_sizes
        if sizes is None:
            sizes = (self.row_sizes if self.sizes_are_value_exact
                     else estimate_dict_sizes(self.rows))
            self._value_sizes = sizes
        return sizes

    def qualified_rows(self, alias: str, start: int,
                       selection: Sequence[int]) -> list[Row]:
        """``rows[start + i]`` for ``i`` in ``selection``, each renamed
        ``alias.field`` -- materialized once per file version.

        Every base leaf is scanned at least twice per query (its pilot
        run, then the first real job) and again by every later request
        under the same alias; the qualified dict of a row is a pure
        function of ``(alias, row)``, so it is kept with the file, in a
        slot filled the first time a scan lets the row through
        (select-then-qualify: filtered-out rows never pay). The memo
        dies with the file version -- ``write_rows(overwrite=True)``
        installs a fresh :class:`DFSFile` -- and holds at most
        :data:`QUALIFIED_ALIAS_LIMIT` aliases. The dicts are shared by
        every scan output, pilot output and job output that carries the
        row: rows are engine-wide immutable, and ``Dyno`` copies at the
        client boundary.

        Filling a slot is idempotent, so callers on two threads sharing
        the file (a data pass and the refresh-decision probe) at worst
        qualify a row twice (into equal dicts); only registering an
        alias is check-then-act and locked.
        """
        slots = self._qualified.get(alias)
        if slots is None:
            slots = self._register_alias(alias)
        rows = self.rows
        out: list[Row] = []
        append = out.append
        for i in selection:
            position = start + i
            row = slots[position]
            if row is None:
                row = slots[position] = qualify_row(alias, rows[position])
            append(row)
        return out

    def _register_alias(self, alias: str) -> list[Row | None]:
        with self._qualified_lock:
            memo = self._qualified
            slots = memo.get(alias)
            if slots is None:
                if len(memo) >= QUALIFIED_ALIAS_LIMIT:
                    del memo[next(iter(memo))]
                slots = memo[alias] = [None] * len(self.rows)
            return slots

    @property
    def sizes_are_value_exact(self) -> bool:
        """True when stored row sizes equal ``estimate_value_size`` per row.

        Three ways a file earns this (and :meth:`value_sizes` hands out
        the stored sizes for free):

        * an empty schema sends every field through the schema-free
          fallback of :meth:`Schema.estimated_row_size`, which *is* the
          value estimator;
        * the writer supplied ``row_sizes`` it computed with the value
          estimator (the runtime's job-finalize path);
        * the schema's field kinds all size value-exactly for conforming
          values (:attr:`Schema.sizes_value_exact_kinds`) and a one-time
          per-column type scan confirms every stored value conforms.

        The scan result is memoized, so typed base-table files pay one
        column sweep instead of a sizing sweep over every row.
        """
        exact = self._sizes_exact
        if exact is None:
            exact = self._check_sizes_value_exact()
            self._sizes_exact = exact
        return exact

    def _check_sizes_value_exact(self) -> bool:
        schema = self.schema
        if not schema.fields:
            return True
        if not schema.sizes_value_exact_scannable:
            return False
        return all(
            column_values_conform(ftype.kind, self.column_values(name))
            for name, ftype in schema.fields
        )

    def column_values(self, name: str) -> list:
        """Values of ``name`` across all rows, gathered once and cached."""
        values = self._columns.get(name)
        if values is None:
            rows = self.rows
            if name in column_index(self.schema.names):
                try:
                    values = [row[name] for row in rows]
                except KeyError:  # sparse row despite a declared field
                    values = [row.get(name) for row in rows]
            else:
                values = [row.get(name) for row in rows]
            self._columns[name] = values
        return values

    def as_table(self) -> Table:
        return Table(self.name, self.schema, list(self.rows))


class DistributedFileSystem:
    """Namespace of :class:`DFSFile` objects plus byte accounting.

    Byte accounting is lock-protected: callers on several threads may
    share one DFS, and while the runtime's batch lock serializes data
    passes, result fetches (:meth:`read_all`) and change-batch writes
    happen outside it -- ``int`` read-modify-write is not atomic under
    free threading.
    """

    def __init__(self, block_size_bytes: int = 64 * 1024):
        if block_size_bytes <= 0:
            raise StorageError("block size must be positive")
        self.block_size_bytes = block_size_bytes
        self._files: dict[str, DFSFile] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        #: bytes written/re-read by spilling hybrid-hash-join tasks.
        #: Spill partitions are task-local scratch, not namespace files,
        #: so only the byte traffic is recorded here.
        self.spill_bytes_written = 0
        self.spill_bytes_read = 0
        self._accounting_lock = threading.Lock()

    # -- namespace operations -------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def write_table(self, table: Table, name: str | None = None,
                    overwrite: bool = False) -> DFSFile:
        """Materialize a table as a DFS file (the load path).

        Sizing and the value-exactness scan are memoized on the table,
        so loading the same table into many DFS instances (every bench
        rep, every service run) pays them once.
        """
        row_sizes, sizes_exact = table.dfs_size_hints()
        return self.write_rows(
            name or table.name, table.schema, table.rows,
            overwrite=overwrite, row_sizes=row_sizes, sizes_exact=sizes_exact,
        )

    def write_rows(self, name: str, schema: Schema, rows: Iterable[Row],
                   overwrite: bool = False,
                   row_sizes: list[int] | None = None,
                   sizes_exact: bool | None = None) -> DFSFile:
        """Materialize rows as a DFS file (the job-output path).

        ``row_sizes`` lets callers that already sized every row (job
        finalize did it for the byte counters; ``write_table`` caches it
        on the table) skip the re-walk; sizes are validated by length.
        ``sizes_exact`` pre-answers :attr:`DFSFile.sizes_are_value_exact`
        for callers that already know; when omitted, provided sizes are
        taken as value-exact (the finalize contract), and files without
        provided sizes scan lazily.
        """
        if not name:
            raise StorageError("file name must be non-empty")
        if self.exists(name) and not overwrite:
            raise StorageError(f"file already exists: {name!r}")
        dfs_file = DFSFile(name, schema, list(rows), self.block_size_bytes,
                           row_sizes=row_sizes)
        if row_sizes is not None and dfs_file.row_sizes is row_sizes:
            dfs_file._sizes_exact = True if sizes_exact is None else sizes_exact
        self._files[name] = dfs_file
        with self._accounting_lock:
            self.bytes_written += dfs_file.size_bytes
        return dfs_file

    def open(self, name: str) -> DFSFile:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise StorageError(f"no such file: {name!r}")
        del self._files[name]

    def delete_if_exists(self, name: str) -> bool:
        """Delete ``name`` if present; returns whether it existed.

        Used by fault injection's node-loss events: losing an already
        re-materialized (or never-written) output is a no-op, not an
        error.
        """
        if name not in self._files:
            return False
        del self._files[name]
        return True

    # -- data-path operations ---------------------------------------------

    def read_split_batch(self, split: Split) -> SplitBatch:
        """One split as a column batch; charges its bytes as read."""
        batch = self.open(split.file_name).split_batch(split)
        with self._accounting_lock:
            self.bytes_read += split.size_bytes
        return batch

    def read_file_batch(self, name: str) -> SplitBatch:
        """A whole file as one column batch (the broadcast-build read);
        charges its bytes as read. The batch's row list is a copy."""
        dfs_file = self.open(name)
        with self._accounting_lock:
            self.bytes_read += dfs_file.size_bytes
        return dfs_file.file_batch()

    def read_all(self, name: str) -> list[Row]:
        """A whole file as a row list (the client-side result fetch)."""
        return self.read_file_batch(name).rows

    def charge_spill(self, bytes_written: int, bytes_read: int) -> None:
        """Account spill traffic (thread-safe; callable from task code)."""
        with self._accounting_lock:
            self.spill_bytes_written += bytes_written
            self.spill_bytes_read += bytes_read

    def file_size(self, name: str) -> int:
        return self.open(name).size_bytes

    def file_splits(self, name: str) -> list[Split]:
        return list(self.open(name).splits)
