"""Failure recovery: replanning, broadcast bans, speculative execution.

The fault matrix (tests/test_fault_matrix.py) proves recovery is
result-invisible end to end; these tests pin the mechanisms down one by
one: a broadcast build overflow mid-run must replan the join as
repartition, the optimizer must honour banned broadcast alias sets, the
replan budget must bound recovery, and the scheduler's speculative
execution must cap stragglers without distorting fault-free schedules.
"""

from dataclasses import replace

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.scheduler import (
    ScheduledJob,
    SlotScheduler,
    plan_speculative_backups,
)
from repro.config import DEFAULT_CONFIG
from repro.core.dynopt import MODE_DYNOPT
from repro.errors import JobError, TaskRetriesExhaustedError
from repro.optimizer.plans import BROADCAST, PhysJoin
from repro.optimizer.search import JoinOptimizer
from repro.stats.statistics import TableStats
from repro.workloads.queries import q10
from tests.conftest import assert_same_rows, reference_rows


def _joins(plan):
    collected = []

    def walk(node):
        if isinstance(node, PhysJoin):
            collected.append(node)
        for child in node.children():
            walk(child)

    walk(plan)
    return collected


def _broadcast_joins(plan):
    return [join for join in _joins(plan) if join.method == BROADCAST]


class TestBroadcastOverflowReplan:
    """Satellite: a BroadcastBuildOverflowError during a dynamic run must
    trigger a replan that falls back to repartition joins -- Jaql has no
    spill path (Section 2.2.1), so the *optimizer* routes around it."""

    def _overflow_execution(self, dyno_factory):
        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        # A memory budget the real build sides cannot fit, enforced by the
        # runtime while the optimizer plans under the default one ...
        dyno.runtime.config = replace(
            DEFAULT_CONFIG,
            cluster=replace(DEFAULT_CONFIG.cluster,
                            task_memory_bytes=8 * 1024),
        )
        extracted = dyno.prepare(workload.final_spec)
        # ... hidden from the optimizer by leaf statistics that say every
        # relation is tiny, so its first plan eagerly broadcasts.
        lying_stats = {
            leaf.signature(): TableStats(5.0, 64.0)
            for leaf in extracted.block.leaves
        }
        result = dyno.executor.execute_block(
            extracted.block, mode=MODE_DYNOPT, strategy="UNC-1",
            leaf_stats=lying_stats,
        )
        return dyno, workload, result

    def test_overflow_replans_to_repartition(self, dyno_factory,
                                             tpch_tables):
        dyno, workload, result = self._overflow_execution(dyno_factory)
        assert any("BroadcastBuildOverflowError" in entry
                   for entry in result.replanned_failures)
        # The replanned (final) plan must not broadcast the banned join.
        assert result.plans, "no plans recorded"
        assert not _broadcast_joins(result.plans[-1])
        assert _joins(result.plans[-1])  # still a join plan, repartitioned

    def test_overflow_recovery_preserves_results(self, dyno_factory,
                                                 tpch_tables):
        dyno, workload, result = self._overflow_execution(dyno_factory)
        rows = dyno.dfs.read_all(result.output_file)
        assert rows  # the block completed despite the doomed first plan


class TestBannedBroadcast:
    def _optimized(self, dyno_factory, banned=frozenset()):
        from repro.core.baselines import oracle_leaf_stats

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        stats = oracle_leaf_stats(dyno.tables, block)
        optimizer = JoinOptimizer(block, stats, dyno.config.optimizer,
                                  dyno.config.cluster,
                                  banned_broadcast=banned)
        return optimizer.optimize()

    def test_ban_removes_broadcast_for_alias_set(self, dyno_factory):
        unbanned = self._optimized(dyno_factory)
        broadcasts = _broadcast_joins(unbanned.plan)
        assert broadcasts, "expected q10's default plan to broadcast"
        target = broadcasts[0]
        banned = frozenset({frozenset(target.aliases)})
        rebanned = self._optimized(dyno_factory, banned=banned)
        for join in _broadcast_joins(rebanned.plan):
            assert not any(join.aliases <= ban for ban in banned)

    def test_ban_is_subset_semantics(self, dyno_factory):
        """Banning a superset alias set bans every broadcast inside it --
        what _replan_around_failure relies on when a *chained* broadcast
        job (one job, several joins) fails permanently."""
        unbanned = self._optimized(dyno_factory)
        everything = frozenset({unbanned.plan.aliases})
        banned = self._optimized(dyno_factory, banned=everything)
        assert not _broadcast_joins(banned.plan)
        assert banned.cost >= unbanned.cost

    def test_empty_ban_changes_nothing(self, dyno_factory):
        a = self._optimized(dyno_factory)
        b = self._optimized(dyno_factory, banned=frozenset())
        assert a.cost == b.cost


class TestReplanBudget:
    def test_replan_cap_reraises_permanent_failure(self, dyno_factory):
        workload = q10()
        plan = FaultPlan(seed=41, name="doom", broadcast_failure_rate=1.0)
        config = replace(DEFAULT_CONFIG.with_fault_plan(plan),
                         max_recovery_replans=0)
        dyno = dyno_factory(udfs=workload.udfs, config=config)
        with pytest.raises(TaskRetriesExhaustedError, match="broadcast"):
            dyno.execute(workload.final_spec, mode=MODE_DYNOPT,
                         strategy="UNC-1")

    def test_with_budget_the_same_run_completes(self, dyno_factory,
                                                tpch_tables):
        workload = q10()
        plan = FaultPlan(seed=41, name="doom", broadcast_failure_rate=1.0)
        dyno = dyno_factory(udfs=workload.udfs,
                            config=DEFAULT_CONFIG.with_fault_plan(plan))
        execution = dyno.execute(workload.final_spec, mode=MODE_DYNOPT,
                                 strategy="UNC-1")
        assert_same_rows(execution.rows,
                         reference_rows(tpch_tables, workload.final_spec))
        assert execution.block_results[0].replanned_failures


class TestSpeculativeExecution:
    def test_backups_need_three_tasks(self):
        assert plan_speculative_backups([100.0, 1.0], 3.0) == \
            ([100.0, 1.0], [])

    def test_straggler_capped_at_threshold(self):
        effective, phantoms = plan_speculative_backups(
            [10.0, 10.0, 10.0, 10.0, 100.0], 3.0)
        assert effective == [10.0, 10.0, 10.0, 10.0, 40.0]
        assert phantoms == [10.0]  # the backup copy runs at median speed

    def test_no_stragglers_no_backups(self):
        effective, phantoms = plan_speculative_backups(
            [10.0, 11.0, 12.0], 3.0)
        assert effective == [10.0, 11.0, 12.0]
        assert phantoms == []

    def test_zero_median_speculates_nothing(self):
        assert plan_speculative_backups([0.0, 0.0, 0.0, 5.0], 3.0) == \
            ([0.0, 0.0, 0.0, 5.0], [])

    def test_speculation_cuts_straggler_makespan(self):
        job = ScheduledJob("j", [10.0, 10.0, 10.0, 10.0, 100.0])
        plain = SlotScheduler(5, 5).schedule([job])
        spec = SlotScheduler(5, 5, speculative=True).schedule([job])
        assert plain.makespan == 100.0
        assert spec.makespan == 40.0

    def test_phantom_occupies_a_slot_but_not_the_makespan(self):
        # One slot: real tasks [1, 1, 100->4] run back to back, then the
        # backup copy (1s) burns the slot after the job already finished.
        job = ScheduledJob("j", [1.0, 1.0, 100.0])
        spec = SlotScheduler(1, 1, speculative=True).schedule([job])
        assert spec.makespan == 1.0 + 1.0 + 4.0
        # Two jobs: the second job's start is delayed by the first job's
        # phantom backup holding the only slot.
        second = ScheduledJob("k", [1.0])
        both = SlotScheduler(1, 1, speculative=True).schedule([job, second])
        assert both.timelines["k"].finish_time == 6.0 + 1.0 + 1.0

    def test_threshold_must_exceed_one(self):
        with pytest.raises(JobError, match="speculative"):
            SlotScheduler(1, 1, speculative_threshold=1.0)
