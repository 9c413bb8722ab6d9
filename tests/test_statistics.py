"""Running statistics, merging, extrapolation, composite columns."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatisticsError
from repro.stats.statistics import (
    ColumnStats,
    RunningStats,
    TableStats,
    composite_name,
    composite_parts,
    requalify_stats,
    stats_from_table_scan,
)


def rows_for(values, column="x"):
    return [{column: value} for value in values]


def collect(values, columns=("x",), kmv_size=1024):
    running = RunningStats(columns, kmv_size)
    for row in rows_for(values):
        running.update(row, 10)
    return running


class TestRunningStats:
    def test_row_and_byte_counts(self):
        running = collect(range(5))
        assert running.row_count == 5
        assert running.size_bytes == 50

    def test_min_max(self):
        stats = collect([5, 1, 9, 3]).freeze()
        column = stats.column("x")
        assert column.min_value == 1
        assert column.max_value == 9

    def test_strings_min_max(self):
        stats = collect(["b", "a", "c"]).freeze()
        assert stats.column("x").min_value == "a"
        assert stats.column("x").max_value == "c"

    def test_null_fraction(self):
        stats = collect([1, None, None, 2]).freeze()
        assert stats.column("x").null_fraction == pytest.approx(0.5)

    def test_distinct_exact_small(self):
        stats = collect([1, 1, 2, 2, 3]).freeze()
        assert stats.column("x").distinct_values == pytest.approx(3)

    def test_f1_f2_profile(self):
        stats = collect([1, 2, 2, 3, 3, 3]).freeze()
        column = stats.column("x")
        assert column.f1 == 1  # value 1 appears once
        assert column.f2 == 1  # value 2 appears twice

    def test_merge_all_of_one_partial_is_that_partial(self):
        partial = collect([1, 2, 3, 3, None, "hot", "hot", "hot"])
        merged = RunningStats.merge_all([partial]).freeze()
        assert merged == partial.freeze()
        assert merged.column("x").f1 == 2  # 1 and 2; not doubled to f2

    def test_merge_mismatched_columns_rejected(self):
        with pytest.raises(StatisticsError):
            RunningStats(["a"]).merge(RunningStats(["b"]))

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200),
           st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_partitioned_merge_equals_whole(self, values, parts):
        whole = collect(values).freeze()
        merged = None
        for offset in range(parts):
            part = collect(values[offset::parts])
            merged = part if merged is None else merged.merge(part)
        combined = merged.freeze()
        assert combined.row_count == whole.row_count
        assert combined.column("x").distinct_values == pytest.approx(
            whole.column("x").distinct_values
        )
        assert combined.column("x").min_value == whole.column("x").min_value
        assert combined.column("x").max_value == whole.column("x").max_value


class TestFold:
    """``absorb`` and ``retract`` reach the state of a fresh scan of the
    rows that remain (the CDC fold, repro.stats.metastore)."""

    @staticmethod
    def frozen(running):
        """Frozen columns without heavy-hitter tie order, which follows
        first observation and so may differ once a first sighting is
        deleted."""
        stats = running.freeze()
        return (stats.row_count, stats.size_bytes,
                {name: replace(column, heavy_hitters=())
                 for name, column in stats.columns.items()})

    @given(st.lists(st.one_of(st.none(), st.integers(0, 30)), max_size=80),
           st.lists(st.one_of(st.none(), st.integers(0, 40)), max_size=40),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_fold_equals_a_fresh_scan_of_what_remains(self, base, appended,
                                                      data):
        rows = base + appended
        doomed = data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0)),
                                   max_size=len(rows)))
        doomed = {index for index in doomed if index < len(rows)}
        running = collect(base, kmv_size=4)
        assert running.retract(collect([rows[i] for i in sorted(doomed)
                                        if i < len(base)], kmv_size=4))
        running.absorb(collect(appended, kmv_size=4))
        assert running.retract(collect([rows[i] for i in sorted(doomed)
                                        if i >= len(base)], kmv_size=4))
        remaining = [value for index, value in enumerate(rows)
                     if index not in doomed]
        fresh = collect(remaining, kmv_size=4)
        assert self.frozen(running) == self.frozen(fresh)
        assert running.columns["x"].synopsis.snapshot() == \
            fresh.columns["x"].synopsis.snapshot()

    def test_retract_refuses_what_it_cannot_un_count(self):
        running = collect([1, 2, 2])
        before = running.freeze()
        assert not running.retract(collect([3]))       # never counted
        assert not running.retract(collect([2, 2, 2]))  # counted twice
        assert running.freeze() == before
        nested = RunningStats(["x"])
        nested.update({"x": {"a": 1}}, 10)
        assert not nested.retract(RunningStats(["x"]))  # no plain key
        running.columns["x"].value_counts = None        # budget exceeded
        assert not running.retract(collect([1]))
        assert running.row_count == 3

    def test_fold_mismatched_columns_rejected(self):
        with pytest.raises(StatisticsError):
            RunningStats(["a"]).absorb(RunningStats(["b"]))


class TestCompositeColumns:
    def test_composite_name_round_trip(self):
        name = composite_name(["b.y", "a.x"])
        assert composite_parts(name) == ["a.x", "b.y"]

    def test_composite_distinct_counts_pairs(self):
        name = composite_name(["a", "b"])
        running = RunningStats([name])
        for a in range(3):
            for b in range(4):
                running.update({"a": a, "b": b}, 1)
        stats = running.freeze()
        assert stats.column(name).distinct_values == pytest.approx(12)

    def test_composite_all_none_is_null(self):
        name = composite_name(["a", "b"])
        running = RunningStats([name])
        running.update({"a": None, "b": None}, 1)
        running.update({"a": 1, "b": None}, 1)
        stats = running.freeze()
        assert stats.column(name).null_fraction == pytest.approx(0.5)


class TestExtrapolation:
    def test_downscale_is_linear(self):
        column = ColumnStats("x", 100.0, f1=10.0, f2=5.0,
                             split_overlap=0.5, sample_count=1000.0)
        assert column.scaled(0.1).distinct_values == pytest.approx(10.0)

    def test_no_profile_falls_back_to_linear(self):
        column = ColumnStats("x", 100.0)
        assert column.scaled(5.0).distinct_values == pytest.approx(500.0)

    def test_saturated_column_does_not_grow(self):
        # All 50 values recur in every split: overlap tiny, no singletons.
        column = ColumnStats("x", 50.0, f1=0.0, f2=0.0,
                             split_overlap=0.05, sample_count=5000.0)
        assert column.scaled(30.0).distinct_values == pytest.approx(50.0)

    def test_clustered_column_scales_linearly(self):
        # Disjoint across splits, duplicated within (4 rows per value).
        column = ColumnStats("x", 250.0, f1=0.0, f2=0.0,
                             split_overlap=1.0, sample_count=1000.0)
        assert column.scaled(10.0).distinct_values == pytest.approx(2500.0)

    def test_sparse_sample_uses_chao(self):
        # Random draws from a moderately sized domain: Chao d + f1^2/2f2.
        column = ColumnStats("x", 700.0, f1=500.0, f2=125.0,
                             split_overlap=0.8, sample_count=1000.0)
        expected = 700.0 + 500.0 ** 2 / (2 * 125.0)
        assert column.scaled(20.0).distinct_values == pytest.approx(expected)

    def test_estimate_capped_by_linear(self):
        column = ColumnStats("x", 10.0, f1=10.0, f2=0.0,
                             split_overlap=0.5, sample_count=10.0)
        scaled = column.scaled(2.0)
        assert scaled.distinct_values <= 20.0 + 1e-9

    def test_estimate_never_below_observed(self):
        column = ColumnStats("x", 100.0, f1=1.0, f2=0.0,
                             split_overlap=0.5, sample_count=1000.0)
        assert column.scaled(50.0).distinct_values >= 100.0

    def test_zero_distinct_stays_zero(self):
        column = ColumnStats("x", 0.0)
        assert column.scaled(10.0).distinct_values == 0.0

    def test_min_max_preserved(self):
        column = ColumnStats("x", 10.0, min_value=1, max_value=9)
        scaled = column.scaled(10.0)
        assert scaled.min_value == 1
        assert scaled.max_value == 9

    def test_end_to_end_fact_table_dv(self):
        """Block-sampled fact table: saturated FK stays near its true DV."""
        import random

        rng = random.Random(1)
        running = None
        # 20 splits of 100 rows; fk drawn from 50 values (saturates).
        for _ in range(20):
            part = RunningStats(["fk"])
            for _ in range(100):
                part.update({"fk": rng.randrange(50)}, 10)
            running = part if running is None else running.merge(part)
        stats = running.freeze(exact=False)
        extrapolated = stats.scaled_to(stats.row_count * 25,
                                       stats.size_bytes * 25)
        dv = extrapolated.column("fk").distinct_values
        assert dv == pytest.approx(50, rel=0.2)


class TestTableStats:
    def test_avg_row_size(self):
        stats = TableStats(10.0, 500.0)
        assert stats.avg_row_size == 50.0
        assert TableStats(0.0, 0.0).avg_row_size == 0.0

    def test_distinct_values_defaults_to_cardinality(self):
        stats = TableStats(42.0, 100.0)
        assert stats.distinct_values("missing") == 42.0

    def test_distinct_values_capped_by_rows(self):
        stats = TableStats(5.0, 100.0,
                           {"x": ColumnStats("x", 50.0)})
        assert stats.distinct_values("x") == 5.0

    def test_scaled_to(self):
        stats = TableStats(10.0, 100.0, {"x": ColumnStats("x", 10.0)})
        scaled = stats.scaled_to(100.0, 1000.0)
        assert scaled.row_count == 100.0
        assert scaled.column("x").distinct_values == pytest.approx(100.0)
        assert not scaled.exact

    def test_round_trip_dict(self):
        stats = TableStats(10.0, 100.0,
                           {"x": ColumnStats("x", 3.0, 1, 9, 0.1)},
                           exact=True)
        restored = TableStats.from_dict(stats.to_dict())
        assert restored.row_count == 10.0
        assert restored.exact
        assert restored.column("x").min_value == 1

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(StatisticsError):
            TableStats.from_dict({"size_bytes": 1.0})


class TestRequalify:
    def test_renames_alias_prefix(self):
        stats = TableStats(5.0, 50.0, {
            "n1.n_name": ColumnStats("n1.n_name", 5.0),
            composite_name(["n1.a", "n1.b"]): ColumnStats(
                composite_name(["n1.a", "n1.b"]), 4.0
            ),
        })
        requalified = requalify_stats(stats, "n2")
        assert requalified.column("n2.n_name").distinct_values == 5.0
        assert requalified.column(composite_name(["n2.a", "n2.b"])) \
            is not None

    def test_identity_for_same_alias(self):
        stats = TableStats(5.0, 50.0,
                           {"n1.x": ColumnStats("n1.x", 5.0)})
        assert requalify_stats(stats, "n1").column("n1.x") is not None


class TestTableScan:
    def test_stats_from_table_scan(self):
        rows = [{"x": i % 5, "y": i} for i in range(100)]
        stats = stats_from_table_scan(((row, 12) for row in rows),
                                      ["x", "y"])
        assert stats.exact
        assert stats.row_count == 100
        assert stats.size_bytes == 1200
        assert stats.column("x").distinct_values == pytest.approx(5)
        assert stats.column("y").distinct_values == pytest.approx(100)


class TestHistogram:
    def test_equi_depth_construction(self):
        from repro.stats.statistics import Histogram

        counts = {value: 1 for value in range(100)}
        histogram = Histogram.from_counts(counts, buckets=4)
        assert histogram is not None
        assert len(histogram.counts) == 4
        assert histogram.total == 100
        assert histogram.boundaries[0] == 0.0
        assert histogram.boundaries[-1] == 99.0

    def test_fraction_below_uniform(self):
        from repro.stats.statistics import Histogram

        histogram = Histogram.from_counts({v: 1 for v in range(100)},
                                          buckets=8)
        assert histogram.fraction_below(50) == pytest.approx(0.5, abs=0.06)
        assert histogram.fraction_below(-1) == 0.0
        assert histogram.fraction_below(1000) == 1.0

    def test_fraction_below_skewed_beats_interpolation(self):
        """99% of the mass near zero, one outlier at 1e6: min/max
        interpolation is off by orders of magnitude; the equi-depth
        histogram is not."""
        from repro.stats.statistics import Histogram

        counts = {float(v): 1 for v in range(99)}
        counts[1_000_000.0] = 1
        histogram = Histogram.from_counts(counts, buckets=8)
        truth = 0.5  # half the values are below 50
        histogram_estimate = histogram.fraction_below(50)
        interpolation = 50 / 1_000_000
        assert abs(histogram_estimate - truth) < 0.15
        assert abs(interpolation - truth) > 0.4

    def test_non_numeric_returns_none(self):
        from repro.stats.statistics import Histogram

        assert Histogram.from_counts({"a": 1, "b": 2}) is None
        assert Histogram.from_counts({1: 1, "b": 2}) is None
        assert Histogram.from_counts({1: 5}) is None  # single value

    def test_round_trip_lists(self):
        from repro.stats.statistics import Histogram

        histogram = Histogram.from_counts({v: 1 for v in range(20)})
        restored = Histogram.from_lists(histogram.to_lists())
        assert restored == histogram
        assert Histogram.from_lists(None) is None

    def test_collected_during_running_stats(self):
        running = collect(list(range(50)) * 2)
        stats = running.freeze()
        histogram = stats.column("x").histogram
        assert histogram is not None
        assert histogram.total == 100

    def test_persisted_through_table_stats(self):
        running = collect(list(range(50)))
        stats = running.freeze()
        restored = TableStats.from_dict(stats.to_dict())
        assert restored.column("x").histogram is not None

    def test_range_selectivity_uses_histogram(self):
        """Skewed column: histogram-based estimate close to truth."""
        from repro.jaql.blocks import SOURCE_TABLE, BlockLeaf, JoinBlock
        from repro.jaql.expr import Comparison, ref
        from repro.optimizer.cardinality import CardinalityModel

        values = [1.0] * 90 + [1000.0] * 10
        running = collect(values)
        table_stats = running.freeze()
        leaf = BlockLeaf(frozenset(("t",)), SOURCE_TABLE, "tbl")
        # Requalification renames the 'x' column to 't.x'.
        from repro.stats.statistics import requalify_stats

        qualified = TableStats(
            table_stats.row_count, table_stats.size_bytes,
            {"t.x": ColumnStats(
                "t.x", table_stats.column("x").distinct_values,
                table_stats.column("x").min_value,
                table_stats.column("x").max_value,
                histogram=table_stats.column("x").histogram,
            )},
        )
        block = JoinBlock("b", (leaf,), ())
        model = CardinalityModel(block, {leaf.signature(): qualified})
        selectivity = model.predicate_selectivity(
            Comparison(ref("t", "x"), "<", 500.0)
        )
        assert selectivity == pytest.approx(0.9, abs=0.1)
        # Interpolation alone would have said ~0.5.


class TestHistogramProperties:
    """Regression: ``from_counts`` could close its last bucket on the final
    value and then append the final boundary again -- producing a duplicated
    boundary with a zero-count, zero-width trailing bucket that distorted
    ``fraction_below`` at the domain's upper edge."""

    @given(
        counts=st.dictionaries(
            st.integers(min_value=-1000, max_value=1000),
            st.integers(min_value=1, max_value=50),
            min_size=2, max_size=60,
        ),
        buckets=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_shape_invariants(self, counts, buckets):
        from repro.stats.statistics import Histogram

        histogram = Histogram.from_counts(counts, buckets=buckets)
        assert histogram is not None
        # One more boundary than buckets; boundaries non-decreasing.
        assert len(histogram.boundaries) == len(histogram.counts) + 1
        assert list(histogram.boundaries) == sorted(histogram.boundaries)
        # Every value is accounted for exactly once.
        assert sum(histogram.counts) == sum(counts.values())
        assert histogram.total == sum(counts.values())
        # The trailing bucket owns the maximum value: it can never be a
        # zero-count artifact.
        assert histogram.counts[-1] > 0
        # End boundaries bracket the data exactly.
        assert histogram.boundaries[0] == float(min(counts))
        assert histogram.boundaries[-1] == float(max(counts))

    def test_regression_final_value_closing_a_bucket(self):
        """Minimal failing case of the old code: the heavy final value
        closed a bucket AND was appended as the final boundary, yielding
        boundaries [0, 0, 10, 10] with counts [1, 5, 0]."""
        from repro.stats.statistics import Histogram

        histogram = Histogram.from_counts({0: 1, 10: 5}, buckets=4)
        assert histogram is not None
        assert histogram.counts[-1] > 0
        assert histogram.boundaries[-2] != histogram.boundaries[-1]
        assert sum(histogram.counts) == 6
