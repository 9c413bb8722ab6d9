"""Simulated DFS: files, splits, byte accounting."""

import pytest

from repro.data.schema import INT, STRING, Schema
from repro.data.table import Table
from repro.errors import StorageError
from repro.storage.dfs import DistributedFileSystem

SCHEMA = Schema.of(id=INT, payload=STRING)


def make_dfs(block_size: int = 256) -> DistributedFileSystem:
    return DistributedFileSystem(block_size_bytes=block_size)


def make_table(rows: int) -> Table:
    return Table(
        "data", SCHEMA,
        [{"id": i, "payload": "x" * 20} for i in range(rows)],
    )


class TestNamespace:
    def test_write_and_open(self):
        dfs = make_dfs()
        dfs.write_table(make_table(10))
        assert dfs.exists("data")
        assert dfs.open("data").row_count == 10

    def test_write_duplicate_rejected(self):
        dfs = make_dfs()
        dfs.write_table(make_table(1))
        with pytest.raises(StorageError):
            dfs.write_table(make_table(1))

    def test_overwrite_allowed_when_asked(self):
        dfs = make_dfs()
        dfs.write_table(make_table(1))
        dfs.write_table(make_table(5), overwrite=True)
        assert dfs.open("data").row_count == 5

    def test_open_missing_raises(self):
        with pytest.raises(StorageError):
            make_dfs().open("nope")

    def test_delete(self):
        dfs = make_dfs()
        dfs.write_table(make_table(1))
        dfs.delete("data")
        assert not dfs.exists("data")
        with pytest.raises(StorageError):
            dfs.delete("data")

    def test_list_files_sorted(self):
        dfs = make_dfs()
        dfs.write_rows("b", SCHEMA, [])
        dfs.write_rows("a", SCHEMA, [])
        assert dfs.list_files() == ["a", "b"]

    def test_empty_name_rejected(self):
        with pytest.raises(StorageError):
            make_dfs().write_rows("", SCHEMA, [])

    def test_bad_block_size_rejected(self):
        with pytest.raises(StorageError):
            DistributedFileSystem(block_size_bytes=0)


class TestSplits:
    def test_splits_cover_all_rows_disjointly(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        splits = dfs.file_splits("data")
        assert len(splits) > 1
        covered = []
        for split in splits:
            covered.extend(
                range(split.start_row, split.start_row + split.row_count)
            )
        assert covered == list(range(50))

    def test_split_sizes_respect_block_size(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        for split in dfs.file_splits("data"):
            assert split.size_bytes <= 200 or split.row_count == 1

    def test_single_block_for_small_file(self):
        dfs = make_dfs(block_size=1 << 20)
        dfs.write_table(make_table(10))
        assert len(dfs.file_splits("data")) == 1

    def test_empty_file_has_one_empty_split(self):
        dfs = make_dfs()
        dfs.write_rows("empty", SCHEMA, [])
        splits = dfs.file_splits("empty")
        assert len(splits) == 1
        assert splits[0].row_count == 0

    def test_file_size_matches_sum_of_splits(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        splits = dfs.file_splits("data")
        assert dfs.file_size("data") == sum(s.size_bytes for s in splits)

    def test_read_split_returns_its_rows(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        split = dfs.file_splits("data")[1]
        rows = dfs.read_split_batch(split).rows
        assert rows[0]["id"] == split.start_row
        assert len(rows) == split.row_count

    def test_read_foreign_split_rejected(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        dfs.write_rows("other", SCHEMA, [{"id": 1, "payload": "y"}])
        split = dfs.file_splits("data")[0]
        with pytest.raises(StorageError):
            dfs.open("other").split_batch(split)


class TestAccounting:
    def test_bytes_written_accumulates(self):
        dfs = make_dfs()
        before = dfs.bytes_written
        dfs.write_table(make_table(20))
        assert dfs.bytes_written == before + dfs.file_size("data")

    def test_bytes_read_accumulates(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        before = dfs.bytes_read
        dfs.read_all("data")
        assert dfs.bytes_read == before + dfs.file_size("data")

    def test_read_split_accounts_split_bytes(self):
        dfs = make_dfs(block_size=200)
        dfs.write_table(make_table(50))
        split = dfs.file_splits("data")[0]
        before = dfs.bytes_read
        dfs.read_split_batch(split)
        assert dfs.bytes_read == before + split.size_bytes

    def test_as_table_round_trip(self):
        dfs = make_dfs()
        dfs.write_table(make_table(5))
        table = dfs.open("data").as_table()
        assert len(table) == 5
        assert table.schema == SCHEMA
