"""Batch data path: unit equivalences and backend byte-identity.

Everything in the data path that has a second, independent definition is
pinned against it here: O(1) size arithmetic against
``estimate_value_size``, vectorized selection against
``Predicate.evaluate``, column-wise statistics ingest against row-wise,
and the numpy column-array backend against the pure-Python one (execution
fingerprints across workloads, parallelism and the fault matrix). Result
correctness against the interpreter lives in
``test_workload_differential.py``.
"""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.data.columns import (
    RowBatch,
    column_index,
    numpy_available,
    resolve_backend,
    to_column_array,
)
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
from tests.oracle import (
    ORACLE_QUERIES,
    fault_matrix,
    faulted_config,
    fingerprint,
    oracle_tables,
    run_workload,
)

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

    def test_to_column_array_eligibility(self):
        if not numpy_available():
            assert to_column_array([1, 2, 3]) is None
            return
        assert to_column_array([1, 2, 3]) is not None
        assert to_column_array([1.0, 2.5]) is not None
        assert to_column_array([1, 2.5]) is None          # mixed kinds
        assert to_column_array([1, None]) is None         # nulls
        assert to_column_array([True, False]) is None     # bools excluded
        assert to_column_array(["a"]) is None
        assert to_column_array([1, 10**30]) is None       # int64 overflow
        assert to_column_array([]) is None

    def test_resolve_backend(self):
        assert resolve_backend("python") is False
        assert resolve_backend("auto") == numpy_available()
        with pytest.raises(ValueError):
            resolve_backend("fortran")


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

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_mask_matches_python_loop(self):
        rows = [{"t.a": value} for value in range(-50, 50)]
        rows_f = [{"t.a": value / 4} for value in range(-50, 50)]
        for dataset in (rows, rows_f):
            batch = RowBatch(dataset)

            class ArrayBatch(RowBatch):
                def array(self, name):
                    return to_column_array(self.column(name))

            arrays = ArrayBatch(dataset)
            for op in ("=", "!=", "<", "<=", ">", ">="):
                for literal in (-3, 0, 2.5, 10**20):
                    predicate = Comparison(ref("a"), op, literal)
                    plain = select([predicate],
                                   ColumnResolver(batch), len(batch))
                    masked = select(
                        [predicate],
                        ColumnResolver(arrays, use_numpy=True),
                        len(arrays),
                    )
                    assert plain == masked, (op, literal, dataset is rows_f)
                    assert all(type(i) is int for i in masked)


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


# ---------------------------------------------------------------------------
# end-to-end byte identity: pure-Python column lists vs the numpy backend
# ---------------------------------------------------------------------------

#: the reference side of every fingerprint test below. The other side is
#: "auto", the default everything else in tier-1 runs under (numpy when
#: importable; CI also runs the suite without numpy, where both coincide).
PYTHON_BACKEND = replace(DEFAULT_CONFIG, columnar_backend="python")


@pytest.fixture(scope="module")
def tables():
    return oracle_tables()


def assert_backends_agree(tables, query, configure=lambda config: config,
                          accelerated=DEFAULT_CONFIG):
    python, other = (
        fingerprint(*run_workload(tables, query, config=configure(config)))
        for config in (PYTHON_BACKEND, accelerated)
    )
    assert python == other


class TestColumnarFingerprints:
    @pytest.mark.parametrize("query", sorted(ORACLE_QUERIES))
    def test_serial_identical(self, tables, query):
        assert_backends_agree(tables, query)

    @pytest.mark.parametrize("query", ["Q8'", "Q10"])
    def test_parallel_identical(self, tables, query):
        assert_backends_agree(
            tables, query, lambda config: config.with_parallel_execution())

    @pytest.mark.parametrize("plan", fault_matrix(),
                             ids=[plan.name for plan in fault_matrix()])
    @pytest.mark.parametrize("query", ["Q8'", "Q10"])
    def test_fault_matrix_identical(self, tables, plan, query):
        assert_backends_agree(
            tables, query, lambda config: faulted_config(plan, base=config))

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_backends_identical(self, tables):
        """"numpy" *requires* the accelerator where "auto" merely prefers
        it."""
        assert_backends_agree(
            tables, "Q8'",
            accelerated=replace(DEFAULT_CONFIG, columnar_backend="numpy"))
