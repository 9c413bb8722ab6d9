"""Batch data path: unit equivalences.

Everything in the data path that has a second, independent definition is
pinned against it here: O(1) size arithmetic against
``estimate_value_size``, vectorized selection against
``Predicate.evaluate``, column-wise statistics ingest against row-wise.
Result correctness against the interpreter lives in
``test_workload_differential.py``.
"""

import pytest

from repro.data.columns import RowBatch, column_index
from repro.data.schema import (
    estimate_dict_size,
    estimate_dict_sizes,
    estimate_value_size,
    Schema,
    INT,
    STRING,
    FLOAT,
)
from repro.jaql.expr import (
    And,
    ColumnRef,
    Comparison,
    Or,
    Predicate,
    UdfPredicate,
)
from repro.jaql.functions import Udf
from repro.jaql.vector import ColumnResolver, select
from repro.stats.statistics import RunningStats, composite_name

# ---------------------------------------------------------------------------
# sizing identities
# ---------------------------------------------------------------------------

VALUE_ZOO = [
    {},
    {"a": 1},
    {"a": None, "b": True, "c": False},
    {"k": 1, "f": 2.5, "s": "hello", "empty": ""},
    {"nested": {"x": 1, "y": [1, 2, "three"]}, "t": (1, 2)},
    {"long.key.name": "value", "n": -(10**30)},
    {"mixed": [None, {"inner": 1}, 3.14]},
]


class TestSizers:
    def test_estimate_dict_size_matches_value_size(self):
        for row in VALUE_ZOO:
            assert estimate_dict_size(row) == estimate_value_size(row)

    def test_estimate_dict_sizes_matches_per_row(self):
        assert estimate_dict_sizes(VALUE_ZOO) == \
            [estimate_value_size(row) for row in VALUE_ZOO]

    def test_schema_bulk_sizes_match_per_row(self):
        schema = Schema.of(k=INT, s=STRING, f=FLOAT)
        rows = [
            {"k": 1, "s": "abc", "f": 1.5},
            {"k": None, "s": "", "f": 2.0},
            {"k": 7, "s": "xy", "f": None, "extra": [1, 2]},
            {},
        ]
        assert schema.estimated_row_sizes(rows) == \
            [schema.estimated_row_size(row) for row in rows]

    def test_empty_schema_bulk_sizes_are_value_sizes(self):
        # The invariant the runtime's size-reuse optimization rests on:
        # schema-free rows size identically through either estimator.
        schema = Schema(())
        assert schema.estimated_row_sizes(VALUE_ZOO) == \
            [estimate_value_size(row) for row in VALUE_ZOO]

    def test_typed_atomic_schema_sizes_are_value_sizes(self):
        # Conforming int/float/string/bool fields (plus out-of-schema
        # extras and Nones) size identically through either estimator --
        # what DFSFile.sizes_are_value_exact certifies per file.
        from repro.data.schema import BOOL
        schema = Schema.of(k=INT, f=FLOAT, s=STRING, flag=BOOL)
        assert schema.sizes_value_exact_kinds
        rows = [
            {"k": 1, "f": 2.5, "s": "hello", "flag": True},
            {"k": None, "f": None, "s": "", "flag": False},
            {"k": 7, "s": "xy", "extra": [1, {"deep": "v"}]},
            {},
        ]
        assert schema.estimated_row_sizes(rows) == estimate_dict_sizes(rows)

    def test_qualified_row_size_is_raw_plus_key_delta(self):
        # The leaf scan's O(1) size arithmetic: prefixing every key with
        # "alias." adds len(alias)+1 per key, and each key's length enters
        # the value estimator exactly once in every branch.
        from repro.jaql.expr import qualify_row
        for alias in ("t", "lineitem"):
            for row in VALUE_ZOO:
                qualified = qualify_row(alias, row)
                assert estimate_value_size(qualified) == \
                    estimate_value_size(row) + len(row) * (len(alias) + 1)

    def test_date_files_are_value_exact_only_for_canonical_strings(self):
        from repro.data.schema import DATE
        from repro.storage.dfs import DFSFile
        schema = Schema.of(d=DATE, k=INT)
        good = DFSFile("f", schema,
                       [{"d": "1997-03-15", "k": 1}, {"d": None, "k": 2}],
                       block_size_bytes=1 << 16)
        assert good.sizes_are_value_exact
        bad = DFSFile("g", schema, [{"d": "97-3-15", "k": 1}],
                      block_size_bytes=1 << 16)
        assert not bad.sizes_are_value_exact

    def test_value_exact_scan_excludes_nonconforming_files(self):
        from repro.data.schema import DATE, FieldType
        from repro.storage.dfs import DFSFile

        def file_of(schema, rows):
            return DFSFile("f", schema, rows, block_size_bytes=1 << 16)

        ok = file_of(Schema.of(k=INT, s=STRING),
                     [{"k": 1, "s": "a"}, {"k": None, "s": None}])
        assert ok.sizes_are_value_exact

        # date sizes as a fixed 10, matched only by 10-char strings.
        dated = file_of(Schema.of(d=DATE), [{"d": "1997-03-15"}])
        assert dated.sizes_are_value_exact
        short = file_of(Schema.of(d=DATE), [{"d": "97-3-15"}])
        assert not short.sizes_are_value_exact

        nested = file_of(
            Schema.of(a=FieldType.array(INT)), [{"a": [1, 2]}]
        )
        assert not nested.sizes_are_value_exact

        # a bool smuggled into an int field sizes 8 by schema, 1 by value.
        smuggled = file_of(Schema.of(k=INT), [{"k": 1}, {"k": True}])
        assert not smuggled.sizes_are_value_exact

    def test_nested_file_hands_out_value_sizes_after_one_sweep(self):
        # Files that cannot prove their stored (schema) sizes value-exact
        # still answer value_sizes(): one lazy sweep, kept on the file,
        # sliced by every batch read.
        from repro.data.schema import FieldType
        from repro.storage.dfs import DFSFile
        schema = Schema.of(k=INT, a=FieldType.array(INT),
                           c=FieldType.struct(ua=STRING, n=INT))
        rows = [
            {"k": 1, "a": [1, 2], "c": {"ua": "x/1", "n": 3}},
            {"k": 2, "a": [], "c": None},
            {"k": None, "a": None, "c": {"ua": "", "n": None}},
        ]
        nested = DFSFile("f", schema, rows, block_size_bytes=1 << 16)
        assert not nested.sizes_are_value_exact
        sizes = nested.value_sizes()
        assert sizes == [estimate_value_size(row) for row in rows]
        assert sizes != nested.row_sizes
        assert nested.value_sizes() is sizes
        (split,) = nested.splits
        assert nested.split_batch(split).ensure_sizes() == sizes


# ---------------------------------------------------------------------------
# column batch plumbing
# ---------------------------------------------------------------------------

class TestColumnPlumbing:
    def test_column_index_is_memoized(self):
        names = ("a", "b", "c")
        assert column_index(names) is column_index(("a", "b", "c"))
        assert column_index(names) == {"a": 0, "b": 1, "c": 2}

    def test_row_batch_column_gather(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2}, {"b": "z"}]
        batch = RowBatch(rows)
        assert batch.column("a") == [1, 2, None]
        assert batch.column("b") == ["x", None, "z"]
        assert len(batch) == 3
        assert batch.ensure_sizes() == estimate_dict_sizes(rows)


# ---------------------------------------------------------------------------
# vectorized predicates vs row evaluation
# ---------------------------------------------------------------------------

def ref(column, steps=()):
    return ColumnRef("t", column, tuple(steps))


PREDICATE_ROWS = [
    {"t.a": 3, "t.b": 5, "t.s": "m", "t.n": {"x": 1, "l": [10, 20]}},
    {"t.a": None, "t.b": 2, "t.s": "a", "t.n": None},
    {"t.a": 7, "t.b": "oops", "t.s": None, "t.n": {"x": None}},
    {"t.a": -1, "t.b": -1, "t.s": "zz", "t.n": {"l": [5]}},
    {"t.a": 0, "t.b": None, "t.s": "", "t.n": {"x": 9, "l": []}},
]

IS_SHORT = Udf("is_short", lambda s: s is not None and len(s) <= 1)


class OddA(Predicate):
    """A Predicate subclass the vectorizer has never heard of."""

    def evaluate(self, row):
        return row.get("t.a") is not None and row["t.a"] % 2 == 1

    def signature(self):
        return "odd(t.a)"


PREDICATE_CASES = [
    Comparison(ref("a"), ">", 0),
    Comparison(ref("a"), "=", None),
    Comparison(ref("a"), "<=", ref("b")),          # TypeError row present
    Comparison(ref("s"), "!=", "m"),
    Comparison(ref("n", ["x"]), ">=", 1),          # nested dict step
    Comparison(ref("n", ["l", 0]), "<", 11),       # nested list step
    And((Comparison(ref("a"), ">", -2), Comparison(ref("b"), "<", 6))),
    Or((Comparison(ref("a"), "=", 7), Comparison(ref("s"), "=", "a"))),
    UdfPredicate(IS_SHORT, (ref("s"),)),
    OddA(),                                        # evaluate() fallback
]


class TestVectorSelect:
    @pytest.mark.parametrize("predicate", PREDICATE_CASES,
                             ids=[p.signature() for p in PREDICATE_CASES])
    def test_matches_row_evaluation(self, predicate):
        batch = RowBatch(PREDICATE_ROWS)
        resolver = ColumnResolver(batch)
        got = select([predicate], resolver, len(batch))
        want = [i for i, row in enumerate(PREDICATE_ROWS)
                if predicate.evaluate(row)]
        assert got == want

    def test_conjunction_of_all_cases(self):
        batch = RowBatch(PREDICATE_ROWS)
        resolver = ColumnResolver(batch)
        got = select(PREDICATE_CASES, resolver, len(batch))
        want = [i for i, row in enumerate(PREDICATE_ROWS)
                if all(p.evaluate(row) for p in PREDICATE_CASES)]
        assert got == want

    def test_raw_batches_qualify_rows_for_the_evaluate_fallback(self):
        # The leaf scan selects over unqualified base-table rows; an
        # unknown predicate must still see qualified field names.
        raw = [{key.split(".", 1)[1]: value for key, value in row.items()}
               for row in PREDICATE_ROWS]
        resolver = ColumnResolver(RowBatch(raw), raw_alias="t")
        predicates = [Comparison(ref("a"), ">", -2), OddA()]
        assert select(predicates, resolver, len(raw)) == \
            [i for i, row in enumerate(PREDICATE_ROWS)
             if all(p.evaluate(row) for p in predicates)]


# ---------------------------------------------------------------------------
# statistics ingestion from columns
# ---------------------------------------------------------------------------

class TestStatsFromColumns:
    def test_merge_all_matches_pairwise_fold(self):
        import random

        rng = random.Random(6)
        columns = ["a", "b", composite_name(["a", "b"])]
        partials = []
        for _ in range(7):
            running = RunningStats(columns, kmv_size=16)
            rows = [
                {
                    "a": rng.choice([None, rng.randrange(40)]),
                    "b": rng.choice([None, "x", "y", "zz", 3, 2.5]),
                }
                for _ in range(rng.randrange(1, 30))
            ]
            sizes = estimate_dict_sizes(rows)
            running.update_batch(rows, sizes)
            partials.append(running)

        folded = partials[0]
        for partial in partials[1:]:
            folded = folded.merge(partial)
        merged = RunningStats.merge_all(partials)

        left, right = folded.freeze(), merged.freeze()
        assert left.row_count == right.row_count
        assert left.size_bytes == right.size_bytes
        assert left.columns == right.columns

    def test_update_columns_matches_update_batch(self):
        rows = [
            {"k": 1, "g": "a", "v": 1.5},
            {"k": 2, "g": "a", "v": None},
            {"k": None, "g": None, "v": 2.5},
            {"k": 2, "g": "b", "v": 0.0},
        ]
        sizes = estimate_dict_sizes(rows)
        columns = ["k", "g", composite_name(["k", "g"])]
        by_rows = RunningStats(columns)
        by_rows.update_batch(rows, sizes)
        by_cols = RunningStats(columns)
        by_cols.update_columns(RowBatch(rows), len(rows), sizes)

        left, right = by_rows.freeze(), by_cols.freeze()
        assert left.row_count == right.row_count
        assert left.size_bytes == right.size_bytes
        assert left.columns == right.columns
