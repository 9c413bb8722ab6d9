"""Incremental maintenance of standing queries over CDC change batches.

The acceptance property is differential: after EVERY change batch, each
standing query's maintained result must be byte-identical (canonical
6-decimal rows, same notion as tests/oracle.py) to a from-scratch
recompute over the post-change tables -- whichever refresh strategy the
manager picked. The sweep runs across serial/parallel executors and the
PR-2 fault matrix, and asserts the decision rule actually goes both ways
(at least one delta refresh and at least one full recompute per sweep).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tests.conftest import assert_same_rows, reference_rows
from tests.oracle import canonical_rows, fault_matrix, faulted_config
from repro.config import DEFAULT_CONFIG
from repro.core.dyno import Dyno
from repro.errors import PlanError, SchemaError
from repro.incremental import (
    ChangeGenerator,
    StandingQueryManager,
    apply_change_batch,
    delete_delta_name,
    insert_delta_name,
)
from repro.service import QueryRequest, QueryService
from repro.workloads.changing import (
    DEFAULT_STEPS,
    KEY_COLUMNS,
    changing_tables,
    changing_udfs,
    premium_sessions,
    standing_workloads,
)

SCALE = 0.03
#: smaller dataset for the 6-plan fault sweep.
FAULT_SCALE = 0.02


def fresh_service(scale=SCALE, config=DEFAULT_CONFIG,
                  **kwargs) -> QueryService:
    return QueryService(changing_tables(scale), config=config,
                        udfs=changing_udfs(), **kwargs)


def recompute(service: QueryService, workload):
    """From-scratch run of a workload over the service's CURRENT tables."""
    dyno = Dyno(dict(service.dyno.tables), config=service.dyno.config,
                udfs=changing_udfs())
    return dyno.execute_multi(workload.stages).rows


def run_sweep(service: QueryService, steps=DEFAULT_STEPS):
    """Register the standing workloads, apply ``steps``, verify each.

    Returns the total (delta, full) decision counts so callers can
    assert the decision rule exercised both strategies.
    """
    manager = StandingQueryManager(service)
    workloads = standing_workloads()
    for workload in workloads:
        manager.register(workload.name, workload.final_spec)

    generators = {
        table: ChangeGenerator(service.dyno.tables[table], key, seed=2014)
        for table, key in KEY_COLUMNS.items()
    }
    delta_total = full_total = 0
    for step in steps:
        batch = generators[step.table].next_batch(step.change_rate,
                                                 step.mix)
        applied = apply_change_batch(service.dyno, batch,
                                     KEY_COLUMNS[step.table])
        report = manager.refresh(applied)
        assert [o.error for o in report.outcomes] == \
            [None] * len(report.outcomes)
        delta_total += report.delta_count
        full_total += report.full_count
        for workload in workloads:
            maintained = canonical_rows(manager.result(workload.name))
            scratch = canonical_rows(recompute(service, workload))
            assert maintained == scratch, (
                f"{workload.name} diverged after {batch.describe()} "
                f"(strategies: {[o.decision.strategy for o in report.outcomes]})"
            )
    return delta_total, full_total


# ---------------------------------------------------------------------------
# Table.with_changes
# ---------------------------------------------------------------------------


class TestWithChanges:
    def table(self):
        return changing_tables(SCALE)["users"]

    def test_insert_delete_update(self):
        users = self.table()
        before = len(users)
        victim = dict(users.rows[0])
        updated_pre = dict(users.rows[1])
        updated_post = dict(updated_pre, country="ZZ")
        fresh = dict(users.rows[2], userid=999_999)
        changed = users.with_changes(
            "userid", inserts=[fresh], deletes=[victim],
            updates=[(updated_pre, updated_post)],
        )
        assert len(changed) == before  # +1 -1
        by_key = {row["userid"]: row for row in changed.rows}
        assert victim["userid"] not in by_key
        assert by_key[999_999] == fresh
        assert by_key[updated_pre["userid"]]["country"] == "ZZ"
        # the original table object is untouched (immutability contract)
        assert len(users) == before
        assert users.rows[0] == victim

    def test_delete_of_missing_key_raises(self):
        users = self.table()
        ghost = dict(users.rows[0], userid=-1)
        with pytest.raises(SchemaError):
            users.with_changes("userid", deletes=[ghost])

    def test_update_changing_key_raises(self):
        users = self.table()
        pre = dict(users.rows[0])
        post = dict(pre, userid=pre["userid"] + 1)
        with pytest.raises(SchemaError):
            users.with_changes("userid", updates=[(pre, post)])


# ---------------------------------------------------------------------------
# ChangeGenerator
# ---------------------------------------------------------------------------


class TestChangeGenerator:
    def test_deterministic_stream(self):
        streams = []
        for _ in range(2):
            generator = ChangeGenerator(
                changing_tables(SCALE)["pageviews"], "eventid", seed=7
            )
            streams.append([
                generator.next_batch(0.05, (1.0, 1.0, 1.0))
                for _ in range(3)
            ])
        first, second = streams
        assert [b.inserts for b in first] == [b.inserts for b in second]
        assert [b.deletes for b in first] == [b.deletes for b in second]
        assert [b.updates for b in first] == [b.updates for b in second]

    def test_batch_stream_is_byte_identical_to_the_pinned_digests(self):
        """Pins the exact batches (digests taken before the per-batch
        top-key scan replaced the per-insert one): numeric keys, string
        keys, and every insert/update/delete mix."""
        sequence = [(0.05, (1.0, 0.0, 0.0)), (0.1, (1.0, 1.0, 1.0)),
                    (0.02, (0.0, 1.0, 1.0)), (0.2, (2.0, 1.0, 1.0))]
        tables = changing_tables(SCALE)
        digests = {}
        for name, key_column in KEY_COLUMNS.items():
            generator = ChangeGenerator(tables[name], key_column, seed=2014)
            digest = hashlib.sha256()
            for rate, mix in sequence:
                batch = generator.next_batch(rate, mix)
                digest.update(json.dumps(
                    [batch.table, batch.sequence, batch.inserts,
                     batch.deletes, batch.updates],
                    sort_keys=True).encode())
            digests[name] = digest.hexdigest()
        assert digests == {
            "pages": "0947e59381d25233bd79cacca0e6fd69"
                     "37eb2bf5cdf383f7ace245a097e43fb5",
            "pageviews": "1679f8ed9aaa332d9ad5e0843b1adbf1"
                         "a3333107041397cd53c821198bc06b3f",
            "users": "3075804db95bf352b655d533641dc43d"
                     "3ad0ae6da45912b1f5a10c4c7d163384",
        }

    def test_default_mix_is_append_only(self):
        generator = ChangeGenerator(
            changing_tables(SCALE)["pageviews"], "eventid"
        )
        batch = generator.next_batch(0.01)
        assert batch.append_only
        assert batch.inserts and not batch.deletes and not batch.updates

    def test_tiny_rate_still_changes_one_row(self):
        generator = ChangeGenerator(
            changing_tables(SCALE)["users"], "userid"
        )
        assert generator.next_batch(1e-9).change_count == 1

    def test_bad_inputs(self):
        generator = ChangeGenerator(
            changing_tables(SCALE)["users"], "userid"
        )
        with pytest.raises(PlanError):
            generator.next_batch(0.0)
        with pytest.raises(PlanError):
            generator.next_batch(0.1, (0.0, 0.0, 0.0))

    def test_minted_keys_are_fresh(self):
        table = changing_tables(SCALE)["pageviews"]
        generator = ChangeGenerator(table, "eventid", seed=5)
        existing = {row["eventid"] for row in table.rows}
        for _ in range(3):
            batch = generator.next_batch(0.05)
            minted = {row["eventid"] for row in batch.inserts}
            assert len(minted) == len(batch.inserts)
            assert not minted & existing
            existing |= minted


# ---------------------------------------------------------------------------
# apply_change_batch: delta files + statistics fold
# ---------------------------------------------------------------------------


class TestApplyChangeBatch:
    def test_append_only_publishes_insert_delta(self):
        service = fresh_service()
        generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                    "eventid")
        applied = apply_change_batch(service.dyno, generator.next_batch(0.01),
                                     "eventid")
        assert applied.insert_delta == insert_delta_name("pageviews", 0)
        assert applied.delete_delta is None
        delta = service.dyno.tables[applied.insert_delta]
        assert len(delta) == applied.delta_rows
        assert delta.schema == service.dyno.tables["pageviews"].schema

    def test_mixed_batch_publishes_both_sides(self):
        service = fresh_service()
        generator = ChangeGenerator(service.dyno.tables["users"], "userid")
        batch = generator.next_batch(0.1, (0.0, 1.0, 1.0))
        applied = apply_change_batch(service.dyno, batch, "userid")
        assert applied.insert_delta == insert_delta_name("users", 0)
        assert applied.delete_delta == delete_delta_name("users", 0)
        # update = delete preimage + insert postimage on both sides
        assert len(service.dyno.tables[applied.insert_delta]) == \
            len(batch.updates) + len(batch.inserts)
        assert len(service.dyno.tables[applied.delete_delta]) == \
            len(batch.updates) + len(batch.deletes)

    def test_unknown_table_rejected(self):
        service = fresh_service()
        generator = ChangeGenerator(service.dyno.tables["users"], "userid")
        batch = generator.next_batch(0.1)
        ghost = type(batch)("nope", 0, batch.inserts)
        with pytest.raises(PlanError):
            apply_change_batch(service.dyno, ghost, "userid")

    def test_second_batch_uses_fresh_delta_names(self):
        service = fresh_service()
        generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                    "eventid")
        first = apply_change_batch(service.dyno, generator.next_batch(0.01),
                                   "eventid")
        second = apply_change_batch(service.dyno, generator.next_batch(0.01),
                                    "eventid")
        assert first.insert_delta != second.insert_delta
        assert second.insert_delta == insert_delta_name("pageviews", 1)
        # both delta files remain scannable (immutable CDC history)
        assert first.insert_delta in service.dyno.tables
        assert second.insert_delta in service.dyno.tables


# ---------------------------------------------------------------------------
# refresh-strategy decisions
# ---------------------------------------------------------------------------


class TestDecisions:
    def decide(self, service, manager, table, rate, mix=(1.0, 0.0, 0.0)):
        generator = ChangeGenerator(service.dyno.tables[table],
                                    KEY_COLUMNS[table])
        applied = apply_change_batch(
            service.dyno, generator.next_batch(rate, mix),
            KEY_COLUMNS[table],
        )
        report = manager.refresh(applied)
        assert all(o.ok for o in report.outcomes), \
            [o.error for o in report.outcomes]
        return {o.query: o.decision for o in report.outcomes}

    def test_small_append_picks_delta_large_append_picks_full(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        for workload in standing_workloads():
            manager.register(workload.name, workload.final_spec)

        small = self.decide(service, manager, "pageviews", 0.01)
        assert {d.strategy for d in small.values()} == {"delta"}
        assert all(0 < d.ratio <= manager.full_threshold
                   for d in small.values())

        large = self.decide(service, manager, "pageviews", 0.5)
        assert large["WeblogEngagement"].strategy == "full"
        assert large["WeblogEngagement"].ratio > manager.full_threshold

    def test_deletes_force_group_state_full_but_not_pure_joins(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        for workload in standing_workloads():
            manager.register(workload.name, workload.final_spec)
        decided = self.decide(service, manager, "users", 0.05,
                              mix=(0.0, 1.0, 1.0))
        engagement = decided["WeblogEngagement"]
        assert engagement.strategy == "full"
        assert "un-count" in engagement.reason
        assert decided["PremiumSessions"].strategy == "delta"

    def test_avg_aggregate_is_statically_ineligible(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        standing = manager.register("AvgDwell", """
            SELECT u.country AS country, AVG(pv.dwell_ms) AS mean_dwell
            FROM pageviews pv, users u
            WHERE pv.userid = u.userid
            GROUP BY u.country
        """)
        assert standing.ineligible is not None
        assert "avg" in standing.ineligible
        decided = self.decide(service, manager, "pageviews", 0.01)
        assert decided["AvgDwell"].strategy == "full"

    def test_self_join_on_changed_table_forces_full(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        manager.register("SameUserPairs", """
            SELECT a.eventid AS first, b.eventid AS second
            FROM pageviews a, pageviews b
            WHERE a.userid = b.userid AND a.dwell_ms >= 60000
            AND b.dwell_ms >= 60000
        """)
        decided = self.decide(service, manager, "pageviews", 0.01)
        decision = decided["SameUserPairs"]
        assert decision.strategy == "full"
        assert "aliases" in decision.reason

    def test_duplicate_registration_rejected(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        workload = premium_sessions()
        manager.register(workload.name, workload.final_spec)
        with pytest.raises(PlanError):
            manager.register(workload.name, workload.final_spec)

    def test_decisions_are_recorded_per_query(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        workload = premium_sessions()
        manager.register(workload.name, workload.final_spec)
        self.decide(service, manager, "pageviews", 0.01)
        self.decide(service, manager, "users", 0.05, mix=(0.0, 1.0, 1.0))
        standing = manager.queries[workload.name]
        assert len(standing.decisions) == 2
        assert [d.sequence for d in standing.decisions] == [0, 0]


# ---------------------------------------------------------------------------
# the differential oracle
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    @pytest.mark.parametrize("leg,config,result_cache", [
        ("serial", DEFAULT_CONFIG, False),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_maintained_equals_recompute(self, leg, config, result_cache):
        service = fresh_service(config=config, result_cache=result_cache)
        delta_total, full_total = run_sweep(service)
        assert delta_total >= 1, "decision rule never picked delta"
        assert full_total >= 1, "decision rule never picked full"

    @pytest.mark.parametrize("plan", fault_matrix(),
                             ids=lambda plan: plan.name)
    def test_fault_matrix_legs(self, plan):
        service = fresh_service(scale=FAULT_SCALE,
                                config=faulted_config(plan))
        delta_total, full_total = run_sweep(service)
        assert delta_total >= 1 and full_total >= 1

    def test_adhoc_requests_ride_the_refresh_batch(self):
        service = fresh_service()
        manager = StandingQueryManager(service)
        workload = premium_sessions()
        manager.register(workload.name, workload.final_spec)
        generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                    "eventid")
        applied = apply_change_batch(service.dyno, generator.next_batch(0.01),
                                     "eventid")
        adhoc = QueryRequest.from_workload(premium_sessions(),
                                           tenant="adhoc")
        report = manager.refresh(applied, adhoc=[adhoc])
        assert len(report.adhoc) == 1 and report.adhoc[0].ok
        assert canonical_rows(report.adhoc[0].rows) == \
            canonical_rows(manager.result(workload.name))


class TestDeleteSubtraction:
    def test_unmatched_delete_rows_are_a_hard_error(self):
        """If the delete-side delta joins to rows the maintained state
        never contained, the state has silently diverged -- refuse to
        paper over it."""
        service = fresh_service()
        manager = StandingQueryManager(service)
        workload = premium_sessions()
        standing = manager.register(workload.name, workload.final_spec)
        with pytest.raises(PlanError, match="diverged"):
            manager._subtract_rows(standing, [
                {"eventid": -1, "country": "XX", "dwell": 1}
            ])


# ---------------------------------------------------------------------------
# result-cache staleness across data changes
# ---------------------------------------------------------------------------


class TestResultCacheFreshness:
    def outcome(self, service, name="PremiumSessions"):
        scheduler = service.scheduler
        result, = scheduler.drain([scheduler.submit(
            QueryRequest.from_workload(premium_sessions()))])
        assert result.ok, result.error
        return result

    def test_cdc_batch_invalidates_cached_results(self):
        service = fresh_service(result_cache=True)
        first = self.outcome(service)
        repeat = self.outcome(service)
        assert repeat.result_cache_hit
        assert canonical_rows(repeat.rows) == canonical_rows(first.rows)

        generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                    "eventid")
        apply_change_batch(service.dyno, generator.next_batch(0.2),
                           "eventid")
        after = self.outcome(service)
        assert not after.result_cache_hit
        assert canonical_rows(after.rows) == \
            canonical_rows(recompute(service, premium_sessions()))

    def test_reregistration_alone_defeats_the_cache(self):
        """Failing-before regression: statistics are lossy, so swapping a
        table's rows WITHOUT touching the metastore used to leave the
        statistics fingerprint -- and therefore the cache key --
        unchanged, and the cache served rows computed over the previous
        contents. The per-table epoch (bumped by every register_table)
        closes the hole."""
        service = fresh_service(result_cache=True)
        self.outcome(service)
        assert self.outcome(service).result_cache_hit

        # Swap the table's contents behind the metastore's back: drop a
        # third of pageviews, no statistics invalidation, no delta fold.
        pageviews = service.dyno.tables["pageviews"]
        doomed = pageviews.rows[:len(pageviews.rows) // 3]
        shrunk = pageviews.with_changes("eventid", deletes=doomed)
        service.dyno.register_table("pageviews", shrunk)

        after = self.outcome(service)
        assert not after.result_cache_hit, \
            "cache returned rows for the table's previous contents"
        assert canonical_rows(after.rows) == \
            canonical_rows(recompute(service, premium_sessions()))

    def test_a_change_landing_in_the_queue_is_read_at_drain(self):
        """The snapshot rule (docs/incremental.md): a request reads the
        table versions and data epochs current when the drain that runs
        it starts. A change batch applied while the request sits in the
        queue is visible to it: no stale cache hit, the interpreter's
        rows over the changed tables, and the plan cache invalidated."""
        service = fresh_service(result_cache=True)
        workload = premium_sessions()
        self.outcome(service)
        assert self.outcome(service).result_cache_hit
        invalidations = service.plan_cache.summary()["invalidations"]

        scheduler = service.scheduler
        ticket = scheduler.submit(QueryRequest.from_workload(workload))
        generator = ChangeGenerator(service.dyno.tables["pageviews"],
                                    "eventid")
        apply_change_batch(service.dyno, generator.next_batch(0.2),
                           "eventid")
        queued, = scheduler.drain([ticket])

        assert queued.ok, queued.error
        assert not queued.result_cache_hit
        assert service.plan_cache.summary()["invalidations"] > invalidations
        assert_same_rows(queued.rows, reference_rows(service.dyno.tables,
                                                     workload.final_spec))
