"""Pilot runs: PILR_ST/MT behaviour, extrapolation, reuse (Section 4)."""

from dataclasses import replace

import pytest

from repro.core.pilot import (
    PILR_MT,
    PILR_ST,
    PilotRunner,
    stats_columns_for_leaf,
)
from repro.workloads.queries import q1_restaurants, q7, q9_prime, q10


def make_runner(dyno, k_records=None):
    config = dyno.config
    if k_records is not None:
        config = replace(config, pilot=replace(config.pilot,
                                               k_records=k_records))
    return PilotRunner(dyno.runtime, dyno.metastore, config)


@pytest.fixture()
def q10_setup(dyno_factory):
    workload = q10()
    dyno = dyno_factory(udfs=workload.udfs)
    extracted = dyno.prepare(workload.final_spec)
    return dyno, extracted.block


class TestStatsColumns:
    def test_join_columns_collected(self, q10_setup):
        _, block = q10_setup
        lineitem = block.leaf_for("l")
        assert "l.l_orderkey" in stats_columns_for_leaf(block, lineitem)

    def test_non_local_predicate_columns_collected(self, dyno_factory):
        workload = q7()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        n1 = block.leaf_for("n1")
        assert "n1.n_name" in stats_columns_for_leaf(block, n1)

    def test_composite_columns_for_multi_key_joins(self, dyno_factory):
        workload = q9_prime()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        lineitem = block.leaf_for("l")
        from repro.stats.statistics import composite_name

        assert composite_name(["l.l_partkey", "l.l_suppkey"]) in \
            stats_columns_for_leaf(block, lineitem)


class TestRun:
    def test_outcomes_for_all_leaves(self, q10_setup):
        dyno, block = q10_setup
        report = make_runner(dyno).run(block)
        signatures = {leaf.signature() for leaf in block.base_leaves()}
        assert set(report.outcomes) == signatures
        assert report.jobs_run == len(signatures)
        assert report.simulated_seconds > 0

    def test_cardinality_estimates_close(self, q10_setup, tpch_tables):
        dyno, block = q10_setup
        report = make_runner(dyno).run(block)
        lineitem = block.leaf_for("l")
        estimated = report.outcomes[lineitem.signature()].stats.row_count
        truth = sum(
            1 for row in tpch_tables["lineitem"].rows
            if row["l_returnflag"] == "R"
        )
        assert estimated == pytest.approx(truth, rel=0.35)

    def test_udf_selectivity_measured(self, dyno_factory, tpch_tables):
        """The pilot's whole point: UDF output sizes become visible."""
        workload = q9_prime(udf_selectivity=0.02)
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        report = make_runner(dyno).run(block)
        part_leaf = block.leaf_for("p")
        estimated = report.outcomes[part_leaf.signature()].stats.row_count
        full = len(tpch_tables["part"])
        assert estimated < 0.25 * full  # nowhere near "selectivity 1.0"

    def test_small_tables_fully_scanned_and_reusable(self, q10_setup):
        dyno, block = q10_setup
        report = make_runner(dyno).run(block)
        nation = block.leaf_for("n")
        outcome = report.outcomes[nation.signature()]
        assert outcome.stats.exact
        assert outcome.reusable_output is not None
        assert dyno.dfs.exists(outcome.reusable_output)

    def test_selective_leaf_stops_early_on_big_table(self, q10_setup):
        dyno, block = q10_setup
        report = make_runner(dyno, k_records=16).run(block)
        lineitem = block.leaf_for("l")
        outcome = report.outcomes[lineitem.signature()]
        assert outcome.scanned_fraction < 1.0
        assert not outcome.stats.exact

    def test_statistics_stored_in_metastore(self, q10_setup):
        dyno, block = q10_setup
        make_runner(dyno).run(block)
        for leaf in block.base_leaves():
            assert dyno.metastore.get(leaf.signature()) is not None

    def test_reuse_skips_jobs_on_second_run(self, q10_setup):
        dyno, block = q10_setup
        runner = make_runner(dyno)
        first = runner.run(block)
        assert first.jobs_run > 0
        second = runner.run(block)
        assert second.jobs_run == 0
        assert all(outcome.reused for outcome in second.outcomes.values())

    def test_reuse_disabled_reruns(self, q10_setup):
        dyno, block = q10_setup
        runner = make_runner(dyno)
        runner.run(block)
        again = runner.run(block, reuse_statistics=False)
        assert again.jobs_run > 0

    def test_unknown_mode_rejected(self, q10_setup):
        dyno, block = q10_setup
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            make_runner(dyno).run(block, mode="XX")


class TestModes:
    def test_mt_faster_than_st(self, dyno_factory):
        workload = q10()
        dyno_st = dyno_factory(udfs=workload.udfs)
        dyno_mt = dyno_factory(udfs=workload.udfs)
        block_st = dyno_st.prepare(workload.final_spec).block
        block_mt = dyno_mt.prepare(workload.final_spec).block
        st = make_runner(dyno_st).run(block_st, mode=PILR_ST)
        mt = make_runner(dyno_mt).run(block_mt, mode=PILR_MT)
        assert mt.simulated_seconds < st.simulated_seconds
        # Paper Table 1: MT is a multiple faster (4.6x average).
        assert st.simulated_seconds / mt.simulated_seconds > 2.0

    def test_modes_estimate_similarly(self, dyno_factory, tpch_tables):
        workload = q10()
        results = {}
        for mode in (PILR_ST, PILR_MT):
            dyno = dyno_factory(udfs=workload.udfs)
            block = dyno.prepare(workload.final_spec).block
            report = make_runner(dyno).run(block, mode=mode)
            lineitem = block.leaf_for("l")
            results[mode] = report.outcomes[
                lineitem.signature()].stats.row_count
        truth = sum(1 for row in tpch_tables["lineitem"].rows
                    if row["l_returnflag"] == "R")
        for estimate in results.values():
            assert estimate == pytest.approx(truth, rel=0.4)


class TestSelfJoins:
    def test_shared_signature_single_pilot(self, dyno_factory):
        workload = q7()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        report = make_runner(dyno).run(block)
        # n1 and n2 share the bare-nation signature: one pilot run.
        n1 = block.leaf_for("n1")
        n2 = block.leaf_for("n2")
        assert n1.signature() == n2.signature()
        assert report.jobs_run == len(report.outcomes)

    def test_reusable_output_only_for_matching_alias(self, dyno_factory):
        workload = q7()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        report = make_runner(dyno).run(block)
        executor = dyno.executor
        updated = executor._apply_reusable_outputs(block, report)
        # At most one of n1/n2 may have been replaced by the pilot output.
        replaced = [
            leaf for leaf in updated.leaves
            if not leaf.is_base and leaf.aliases & {"n1", "n2"}
        ]
        assert len(replaced) <= 1


class TestRestaurantExample:
    def test_q1_pilot_measures_correlation(self, dyno_factory,
                                           restaurant_tables):
        """Paper Section 4.1: zip+state predicates are fully correlated;
        the pilot measures the *joint* selectivity, which equals the zip
        predicate's alone."""
        workload = q1_restaurants()
        dyno = dyno_factory(udfs=workload.udfs, tables=restaurant_tables)
        block = dyno.prepare(workload.final_spec).block
        report = make_runner(dyno).run(block)
        rs = block.leaf_for("rs")
        estimated = report.outcomes[rs.signature()].stats.row_count
        truth = sum(
            1 for row in restaurant_tables["restaurant"].rows
            if row["addr"][0]["zip"] == 94301
        )
        assert estimated == pytest.approx(truth, rel=0.4)


class TestCrossQueryReuse:
    def test_statistics_shared_between_queries(self, dyno_factory):
        """Section 4.1: 'the same relation and predicates appear in
        different queries' -- a second query over overlapping tables
        skips their pilot runs."""
        from repro.workloads.queries import q8_prime

        q7_workload = q7()
        q8_workload = q8_prime()
        # One registry holding both queries' UDFs so one Dyno serves both.
        registry = q8_workload.udfs
        dyno = dyno_factory(udfs=registry)

        first = dyno.prepare(q7_workload.final_spec, name="first").block
        first_report = make_runner(dyno).run(first)
        assert first_report.jobs_run > 0

        second = dyno.prepare(q8_workload.final_spec, name="second").block
        second_report = make_runner(dyno).run(second)
        # Bare scans shared with Q7 (supplier, customer, nation,
        # lineitem) are reused; only Q8'-specific leaves run pilots.
        reused = [sig for sig, outcome in second_report.outcomes.items()
                  if outcome.reused]
        assert "table:supplier|" in reused
        assert "table:customer|" in reused
        assert "table:nation|" in reused
        assert second_report.jobs_run < first_report.jobs_run + 4


class TestPilotSharesThePlanScan:
    def test_pilot_and_plan_job_agree_on_a_filtered_leaf(
            self, dyno_factory, restaurant_tables):
        """A pilot job and a compiled plan job over the same leaf are the
        same scan+filter: identical rows, per-row sizes, byte counters,
        task seconds (i.e. charged UDF CPU) and collected statistics.
        Q1's leaves carry comparison, nested-path and costed UDF
        predicates."""
        from repro.cluster.counters import Counters
        from repro.jaql.compiler import PlanCompiler
        from repro.optimizer.plans import PhysLeaf

        workload = q1_restaurants()
        dyno = dyno_factory(udfs=workload.udfs, tables=restaurant_tables)
        block = dyno.prepare(workload.final_spec).block
        runner = make_runner(dyno)
        leaves = block.base_leaves()
        assert any(leaf.cpu_seconds_per_row for leaf in leaves)
        filtered = 0
        for index, leaf in enumerate(leaves):
            pilot_job, _gate = runner._leaf_job(block, leaf, index,
                                                len(leaves), PILR_ST)
            pilot = dyno.runtime.execute(pilot_job)  # ungated: whole file
            graph = PlanCompiler(dyno.dfs, dyno.config, f"plan{index}") \
                .compile_block(PhysLeaf(leaf.aliases, 0.0, 0.0, 0.0,
                                        leaf=leaf))
            plan_job = graph.jobs[0].job
            plan_job.stats_columns = pilot_job.stats_columns
            plan = dyno.runtime.execute(plan_job)

            pilot_file = dyno.dfs.open(pilot.output_name)
            plan_file = dyno.dfs.open(plan.output_name)
            assert pilot_file.rows == plan_file.rows
            assert plan_file.rows
            filtered += (len(plan_file.rows)
                         < len(restaurant_tables[leaf.source_name].rows))
            for counter in (Counters.MAP_INPUT_RECORDS,
                            Counters.MAP_OUTPUT_RECORDS,
                            Counters.MAP_OUTPUT_BYTES):
                assert pilot.counters.get("map", counter) == \
                    plan.counters.get("map", counter)
            assert pilot.map_task_seconds == plan.map_task_seconds
            assert pilot.collected_stats.to_dict() == \
                plan.collected_stats.to_dict()
        assert filtered, "no leaf of Q1 filtered anything"
