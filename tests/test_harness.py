"""Benchmark harness: variant runners and table formatting."""

import pytest

from benchmarks.paper.harness import (
    ALL_VARIANTS,
    VARIANT_DYNOPT,
    VARIANT_RELOPT,
    VARIANT_SIMPLE,
    VARIANT_STATIC_HIVE,
    VARIANT_STATIC_JAQL,
    ExperimentTable,
    dataset_for,
    normalized,
    run_workload,
)
from repro.errors import PlanError
from repro.workloads.queries import q2, q10
from tests.conftest import assert_same_rows


class TestTableFormatting:
    def test_format_aligns_columns(self):
        table = ExperimentTable(
            "T1", "demo", ["Name", "Value"],
            [["alpha", 1.2345], ["b", 100]],
            notes=["a note"],
        )
        text = table.format()
        lines = text.splitlines()
        assert lines[0].startswith("== T1: demo ==")
        assert "1.23" in text
        assert "note: a note" in text
        # Header and separator share a width.
        assert len(lines[1]) == len(lines[2])

    def test_normalized(self):
        assert normalized(50.0, 100.0) == 0.5
        assert normalized(1.0, 0.0) == float("inf")


class TestDatasetCache:
    def test_cached_instance_reused(self):
        assert dataset_for(0.01) is dataset_for(0.01)
        assert dataset_for(0.01) is not dataset_for(0.01, seed=99)


class TestRunWorkload:
    @pytest.fixture(scope="class")
    def tables(self):
        return dataset_for(0.05).tables

    def test_all_variants_return_same_rows(self, tables):
        rows_by_variant = {}
        for variant in ALL_VARIANTS + (VARIANT_STATIC_HIVE,):
            run = run_workload(tables, q10(), variant, static_top_k=1)
            assert run.seconds > 0
            assert run.variant == variant
            rows_by_variant[variant] = run.rows
        baseline = rows_by_variant[VARIANT_STATIC_JAQL]

        def revenue_set(rows):
            return sorted(round(row["revenue"], 2) for row in rows)

        for variant, rows in rows_by_variant.items():
            assert revenue_set(rows) == revenue_set(baseline), variant

    def test_multi_stage_workload_all_variants(self, tables):
        results = {}
        for variant in (VARIANT_STATIC_JAQL, VARIANT_RELOPT,
                        VARIANT_SIMPLE, VARIANT_DYNOPT):
            run = run_workload(tables, q2(), variant, static_top_k=1)
            results[variant] = run.rows
        for variant, rows in results.items():
            assert_same_rows(rows, results[VARIANT_STATIC_JAQL])

    def test_dyno_variant_records_overheads(self, tables):
        run = run_workload(tables, q10(), VARIANT_DYNOPT)
        assert run.pilot_seconds > 0
        assert run.optimizer_seconds > 0
        assert run.seconds == pytest.approx(
            run.pilot_seconds + run.optimizer_seconds
            + run.execution_seconds
        )

    def test_relopt_reports_execution_only(self, tables):
        run = run_workload(tables, q10(), VARIANT_RELOPT)
        assert run.seconds == pytest.approx(run.execution_seconds)
        assert run.pilot_seconds == 0.0

    def test_static_details_include_order(self, tables):
        run = run_workload(tables, q10(), VARIANT_STATIC_JAQL,
                           static_top_k=2)
        assert run.details["orders"]
        assert run.details["candidates_ranked"] > 0

    def test_unknown_variant_rejected(self, tables):
        with pytest.raises(PlanError):
            run_workload(tables, q10(), "QUANTUM")
