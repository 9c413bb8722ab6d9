"""The differential fault oracle (see tests/oracle.py).

Acceptance sweep: every workload query x every dynamic execution strategy
x every fault plan in the standard matrix must produce results and
statistics identical to the fault-free run -- faults may only cost
simulated time. Plus: determinism (same seed => same event sequence),
parallel/serial equivalence under faults, and dedicated scenario tests
for node-loss recovery and retries-exhausted-then-replan.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from tests.oracle import (
    ORACLE_QUERIES,
    ORACLE_STRATEGIES,
    SKEWED_ORACLE_QUERIES,
    fault_matrix,
    fault_visible_diff,
    faulted_config,
    fingerprint,
    oracle_tables,
    plan_named,
    run_workload,
    skewed_oracle_tables,
)

PLAN_NAMES = [plan.name for plan in fault_matrix()]


@pytest.fixture(scope="module")
def tables():
    return oracle_tables()


@pytest.fixture(scope="module")
def baseline_cache():
    """Fault-free fingerprints, computed once per (query, strategy)."""
    return {}


def baseline_fingerprint(tables, cache, query, strategy):
    key = (query, strategy)
    if key not in cache:
        dyno, execution = run_workload(tables, query, strategy)
        cache[key] = fingerprint(dyno, execution)
    return cache[key]


class TestFaultMatrixOracle:
    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    @pytest.mark.parametrize("strategy", ORACLE_STRATEGIES)
    @pytest.mark.parametrize("query", ORACLE_QUERIES)
    def test_fault_schedule_is_result_invisible(
            self, tables, baseline_cache, query, strategy, plan_name):
        baseline = baseline_fingerprint(tables, baseline_cache, query,
                                        strategy)
        plan = plan_named(plan_name)
        dyno, execution = run_workload(tables, query, strategy,
                                       config=faulted_config(plan))
        faulted = fingerprint(dyno, execution)
        diff = fault_visible_diff(baseline, faulted)
        assert not diff, (
            f"fault plan {plan_name!r} changed {query}/{strategy}: {diff}")

    def test_every_plan_in_matrix_actually_injects(self, tables):
        """Guards against a vacuous oracle: each plan must do *something*
        across the workload sweep (events, retries or stragglers)."""
        for plan in fault_matrix():
            total_activity = 0
            for query in ORACLE_QUERIES:
                dyno, _ = run_workload(tables, query, "UNC-1",
                                       config=faulted_config(plan))
                snap = dyno.runtime.fault_injector.snapshot()
                total_activity += (len(snap["events"]) +
                                   snap["task_retries"] +
                                   snap["stragglers"])
            assert total_activity > 0, (
                f"fault plan {plan.name!r} injected nothing anywhere")


@pytest.fixture(scope="module")
def skew_tables():
    return skewed_oracle_tables()


@pytest.fixture(scope="module")
def skew_baselines(skew_tables):
    """Fault-free skewed fingerprints; asserts the plans use skew joins."""
    from repro.optimizer.plans import summarize_plan

    baselines = {}
    for query in SKEWED_ORACLE_QUERIES:
        dyno, execution = run_workload(skew_tables, query, "UNC-1")
        skew_joins = sum(summarize_plan(plan).skew_joins
                         for block in execution.block_results
                         for plan in block.plans)
        assert skew_joins >= 1, (
            f"{query}: skewed oracle baseline chose no skew join -- the "
            "fault legs below would not exercise the SKEWJOIN runtime")
        baselines[query] = fingerprint(dyno, execution)
    return baselines


class TestSkewJoinFaultMatrix:
    """SKEWJOIN legs: task kills, stragglers, node losses, broadcast
    dooms and the chaos mix over the hot-key workloads -- plus mid-job
    replans firing *while* faults are being injected -- must all be
    byte-identical to the fault-free skewed baseline."""

    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    @pytest.mark.parametrize("query", SKEWED_ORACLE_QUERIES)
    def test_fault_schedule_is_result_invisible(
            self, skew_tables, skew_baselines, query, plan_name):
        plan = plan_named(plan_name)
        dyno, execution = run_workload(skew_tables, query, "UNC-1",
                                       config=faulted_config(plan))
        faulted = fingerprint(dyno, execution)
        diff = fault_visible_diff(skew_baselines[query], faulted)
        assert not diff, (
            f"fault plan {plan_name!r} changed skewed {query}: {diff}")

    @pytest.mark.parametrize("query", SKEWED_ORACLE_QUERIES)
    def test_midjob_replan_in_flight_under_chaos(
            self, skew_tables, skew_baselines, query):
        """Arm the mid-job replan trigger at its floor (fires after every
        audited job) *and* the chaos fault plan: replans racing faults
        must still be result-invisible."""
        plan = plan_named("chaos")
        config = replace(faulted_config(plan),
                         reoptimization_qerror_threshold=1.0)
        dyno, execution = run_workload(skew_tables, query, "UNC-1",
                                       config=config)
        fired = [name for block in execution.block_results
                 for name in block.midjob_replans]
        if query == "SkewFunnel":
            # Multi-join block: the first join's audit fires with the
            # second still pending. (SkewJoin's block is a single-job
            # graph -- nothing is ever pending mid-graph, so the trigger
            # correctly stays silent there.)
            assert fired, "threshold 1.0 should trigger mid-graph"
        diff = fault_visible_diff(skew_baselines[query],
                                  fingerprint(dyno, execution))
        assert not diff, (
            f"mid-job replans under chaos changed skewed {query}: {diff}")


def shuffle_joins_feeding_a_join(plan) -> set[str]:
    """Methods of the repartition/skew joins whose *output file* another
    join of the same static plan reads (as probe or build input)."""
    from repro.optimizer.plans import REPARTITION, SKEW, PhysJoin

    found = set()

    def walk(node):
        if not isinstance(node, PhysJoin):
            return
        for child in node.children():
            if isinstance(child, PhysJoin) and \
                    child.method in (REPARTITION, SKEW):
                found.add(child.method)
            walk(child)

    walk(plan)
    return found


class TestJoinsStackedOnShuffleOutputs:
    """DYNOPT-SIMPLE runs one static multi-job plan per block, so a join
    can read the output of a shuffle join compiled in the same graph: Q7
    stacks a broadcast join on a repartition output, SkewFunnel on a skew
    output. The stacked job's pipeline starts from an intermediate file
    rather than a leaf scan; it must survive the whole fault matrix --
    schedules that fail jobs permanently (exhausted task retries, doomed
    broadcasts) included: SIMPLE walks the same loop as DYNOPT, so it
    bans, replans what remains and carries on."""

    CASES = {"Q7": "repartition", "SkewFunnel": "skew"}

    @pytest.fixture(scope="class")
    def stacked_baselines(self, tables, skew_tables):
        baselines = {}
        for query, method in self.CASES.items():
            data = skew_tables if method == "skew" else tables
            dyno, execution = run_workload(data, query, "SIMPLE_MO",
                                           mode="simple")
            stacked = set().union(*(
                shuffle_joins_feeding_a_join(plan)
                for block in execution.block_results
                for plan in block.plans))
            assert method in stacked, (
                f"{query}: SIMPLE_MO plan stacks no join on a {method} "
                f"join output -- the legs below would be vacuous")
            baselines[query] = (data, fingerprint(dyno, execution))
        return baselines

    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    @pytest.mark.parametrize("query", sorted(CASES))
    def test_fault_schedule_is_result_invisible(
            self, stacked_baselines, query, plan_name):
        data, baseline = stacked_baselines[query]
        plan = plan_named(plan_name)
        dyno, execution = run_workload(data, query, "SIMPLE_MO",
                                       mode="simple",
                                       config=faulted_config(plan))
        diff = fault_visible_diff(baseline, fingerprint(dyno, execution))
        assert not diff, (
            f"fault plan {plan_name!r} changed SIMPLE_MO {query}: {diff}")


class TestDeterminism:
    def test_same_seed_reproduces_same_event_sequence(self, tables):
        plan = plan_named("chaos")
        runs = []
        for _ in range(2):
            dyno, execution = run_workload(tables, "Q7", "CHEAP-2",
                                           config=faulted_config(plan))
            runs.append((dyno.runtime.fault_injector.snapshot(),
                         fingerprint(dyno, execution),
                         execution.total_seconds))
        first, second = runs
        assert first[0] == second[0]  # identical fault event sequence
        assert first[1] == second[1]
        assert first[2] == second[2]  # even simulated time is reproducible

    def test_different_seed_differs(self, tables):
        from dataclasses import replace
        plan = plan_named("chaos")
        other = replace(plan, seed=plan.seed + 1)
        d1, _ = run_workload(tables, "Q7", "UNC-1",
                             config=faulted_config(plan))
        d2, _ = run_workload(tables, "Q7", "UNC-1",
                             config=faulted_config(other))
        assert (d1.runtime.fault_injector.snapshot()
                != d2.runtime.fault_injector.snapshot())


class TestRequiredScenarios:
    def test_node_loss_of_materialized_output_recovers(self, tables):
        plan = plan_named("node-loss")
        dyno, execution = run_workload(tables, "Q10", "UNC-1",
                                       config=faulted_config(plan))
        lost = [name for block in execution.block_results
                for name in block.lost_outputs]
        recovered = [name for block in execution.block_results
                     for name in block.recovered_jobs]
        assert lost, "node-loss plan deleted no materialized output"
        assert recovered, "lost outputs were never re-materialized"
        snap = dyno.runtime.fault_injector.snapshot()
        assert snap["node_losses"] == len(lost)

    def test_retries_exhausted_then_replan(self, tables):
        plan = plan_named("task-flaky")
        dyno, execution = run_workload(tables, "Q10", "UNC-1",
                                       config=faulted_config(plan))
        replanned = [entry for block in execution.block_results
                     for entry in block.replanned_failures]
        assert any("TaskRetriesExhaustedError" in entry
                   for entry in replanned), (
            "expected at least one job to exhaust task retries and be "
            f"replanned; got {replanned}")
        assert execution.rows  # and the query still completed

    @pytest.mark.parametrize("strategy", ["SIMPLE_SO", "SIMPLE_MO"])
    def test_simple_node_loss_of_materialized_output_recovers(
            self, tables, strategy):
        """DYNOPT-SIMPLE considers node losses too, and re-runs the lost
        output's producer from the provenance map."""
        plan = plan_named("node-loss")
        dyno, execution = run_workload(tables, "Q7", strategy,
                                       mode="simple",
                                       config=faulted_config(plan))
        lost = [name for block in execution.block_results
                for name in block.lost_outputs]
        recovered = [name for block in execution.block_results
                     for name in block.recovered_jobs]
        assert lost, "node-loss plan deleted no materialized output"
        assert recovered, "lost outputs were never re-materialized"
        assert dyno.runtime.fault_injector.snapshot()["node_losses"] == \
            len(lost)
        _, clean = run_workload(tables, "Q7", strategy, mode="simple")
        assert execution.rows == clean.rows

    @pytest.mark.parametrize("strategy", ["SIMPLE_SO", "SIMPLE_MO"])
    def test_simple_retries_exhausted_then_replan(self, tables, strategy):
        plan = plan_named("task-flaky")
        _, execution = run_workload(tables, "Q10", strategy, mode="simple",
                                    config=faulted_config(plan))
        replanned = [entry for block in execution.block_results
                     for entry in block.replanned_failures]
        assert any("TaskRetriesExhaustedError" in entry
                   for entry in replanned), (
            "expected at least one job to exhaust task retries and be "
            f"replanned; got {replanned}")
        assert execution.rows  # and the query still completed

    def test_failed_rerun_of_a_lost_output_is_replanned_around(
            self, skew_tables):
        """Chaos eats SkewFunnel's first join output *and* kills the
        re-run of its producer: that failure, too, goes back to the plan
        source instead of escaping the loop."""
        plan = plan_named("chaos")
        _, clean = run_workload(skew_tables, "SkewFunnel", "SIMPLE_SO",
                                mode="simple")
        _, execution = run_workload(skew_tables, "SkewFunnel", "SIMPLE_SO",
                                    mode="simple",
                                    config=faulted_config(plan))
        (block,) = execution.block_results
        assert block.lost_outputs and block.recovered_jobs
        assert block.replanned_failures
        assert execution.rows == clean.rows

    def static_q7(self, tables, fault_plan):
        """Q7 with a plan fixed up front, under ``fault_plan``."""
        from repro.core.dyno import Dyno
        from tests.oracle import ORACLE_WORKLOADS
        from tests.test_static_digests import static_plan

        workload = ORACLE_WORKLOADS["Q7"]()
        dyno = Dyno(tables, udfs=workload.udfs,
                    config=faulted_config(fault_plan))
        plan = static_plan(dyno, dyno.prepare(workload.final_spec).block)
        return dyno, workload.final_spec, plan

    def test_static_plan_reraises_a_doomed_broadcast(self, tables):
        """A fixed plan has no alternative to route around a broadcast
        join that cannot succeed: the failure surfaces, by design."""
        from repro.errors import TaskRetriesExhaustedError

        dyno, spec, plan = self.static_q7(tables,
                                          plan_named("broadcast-doom"))
        with pytest.raises(TaskRetriesExhaustedError,
                           match="failed on every attempt"):
            dyno.execute_with_plan(spec, plan, name="Q7")

    def test_static_plan_resubmits_jobs_that_exhausted_retries(
            self, tables):
        """A repartition job killed by flaky tasks needs no other plan:
        the unfinished jobs of the fixed graph run again as fresh
        incarnations (seed picked so that Q7's rjoin1 is the casualty)."""
        from repro.cluster.faults import FaultPlan

        dyno, spec, plan = self.static_q7(
            tables, FaultPlan(seed=13, name="static-flaky",
                              task_failure_rate=0.25))
        execution = dyno.execute_with_plan(spec, plan, name="Q7")
        assert execution.block_results[0].replanned_failures == \
            ["Q7.static.rjoin1: TaskRetriesExhaustedError"]
        _, clean = run_workload(tables, "Q7", "SIMPLE_MO", mode="simple")
        assert execution.rows == clean.rows
