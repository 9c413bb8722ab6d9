"""Statistics metastore: signature store, CDC delta folds, persistence."""

import pytest

from repro.errors import StatisticsError
from repro.stats.metastore import (
    StatisticsMetastore,
    bare_table_signature,
    table_signature_prefix,
)
from repro.stats.statistics import ColumnStats, TableStats


def sample_stats():
    return TableStats(100.0, 5000.0, {
        "a.x": ColumnStats("a.x", 10.0, 1, 99, 0.05),
    }, exact=True)


class TestStore:
    def test_put_get(self):
        store = StatisticsMetastore()
        store.put("sig", sample_stats())
        assert "sig" in store
        assert store.get("sig").row_count == 100.0
        assert store.get("missing") is None

    def test_len_and_iter(self):
        store = StatisticsMetastore()
        store.put("b", sample_stats())
        store.put("a", sample_stats())
        assert len(store) == 2
        assert list(store) == ["a", "b"]

    def test_empty_signature_rejected(self):
        with pytest.raises(StatisticsError):
            StatisticsMetastore().put("", sample_stats())

    def test_overwrite_updates(self):
        store = StatisticsMetastore()
        store.put("sig", sample_stats())
        store.put("sig", TableStats(1.0, 1.0))
        assert store.get("sig").row_count == 1.0

    def test_invalidate(self):
        store = StatisticsMetastore()
        store.put("sig", sample_stats())
        store.invalidate("sig")
        assert "sig" not in store
        store.invalidate("sig")  # idempotent

    def test_clear(self):
        store = StatisticsMetastore()
        store.put("sig", sample_stats())
        store.clear()
        assert len(store) == 0


class TestInvalidationNotifies:
    def test_listener_sees_effective_invalidations_with_none(self):
        events = []
        store = StatisticsMetastore()
        store.subscribe(lambda sig, stats: events.append((sig, stats)))
        store.put("sig", sample_stats())
        store.invalidate("sig")
        assert events[-1] == ("sig", None)

    def test_noop_invalidation_stays_silent(self):
        """Dropping a signature that was never stored must not wake the
        caches -- they would scan every entry for nothing."""
        events = []
        store = StatisticsMetastore()
        store.subscribe(lambda sig, stats: events.append(sig))
        store.invalidate("ghost")
        assert events == []


class TestEpochs:
    def test_epochs_start_at_zero_and_count_up(self):
        store = StatisticsMetastore()
        assert store.table_epoch("orders") == 0
        assert store.bump_table_epoch("orders") == 1
        assert store.bump_table_epoch("orders") == 2
        assert store.table_epoch("orders") == 2
        assert store.table_epoch("other") == 0

    def test_epochs_are_not_persisted(self, tmp_path):
        """Epochs guard in-memory caches; a fresh session re-pilots
        anyway, so they deliberately stay out of the JSON file."""
        store = StatisticsMetastore()
        store.put(bare_table_signature("orders"), sample_stats())
        store.bump_table_epoch("orders")
        path = tmp_path / "stats.json"
        store.save(path)
        restored = StatisticsMetastore.load(path)
        assert restored.table_epoch("orders") == 0


class TestSignaturesForTable:
    def test_prefix_excludes_delta_tables(self):
        """`table:orders@delta0|...` is a different table (the batch's
        delta file), not a predicated signature over `orders` -- the '@'
        falls outside the `table:orders|` prefix, so a CDC fold over the
        base table can never clobber delta-file statistics."""
        store = StatisticsMetastore()
        store.put(bare_table_signature("orders"), sample_stats())
        store.put("table:orders|price>5", sample_stats())
        store.put("table:orders@delta0|", sample_stats())
        store.put("table:orders2|", sample_stats())
        assert store.signatures_for_table("orders") == [
            "table:orders|", "table:orders|price>5",
        ]
        assert table_signature_prefix("orders") == "table:orders|"


class TestApplyTableDelta:
    def seeded(self):
        store = StatisticsMetastore()
        store.put(bare_table_signature("orders"), sample_stats())
        store.put("table:orders|price>5",
                  TableStats(40.0, 2000.0, exact=True))
        store.put("table:orders@delta0|", TableStats(3.0, 30.0))
        return store

    def test_append_only_merges_bare_and_invalidates_predicated(self):
        store = self.seeded()
        actions = store.apply_table_delta("orders", delta_rows=10.0,
                                          delta_bytes=500.0,
                                          append_only=True)
        assert actions == {
            "table:orders|": "merged",
            "table:orders|price>5": "invalidated",
        }
        merged = store.get("table:orders|")
        assert merged.row_count == 110.0
        assert merged.size_bytes == 5500.0
        # synopses survive the merge but can no longer claim exactness:
        # distinct counts/extrema under-report the appended rows.
        assert not merged.exact
        assert merged.column("a.x").distinct_values == 10.0
        assert store.get("table:orders|price>5") is None
        assert store.table_epoch("orders") == 1

    def test_deletes_invalidate_everything(self):
        """Synopses cannot un-count: any batch with deletes or updates
        must force re-piloting of every signature over the table, the
        bare scan included."""
        store = self.seeded()
        actions = store.apply_table_delta("orders", delta_rows=5.0,
                                          delta_bytes=0.0,
                                          append_only=False)
        assert actions == {
            "table:orders|": "invalidated",
            "table:orders|price>5": "invalidated",
        }
        assert store.get("table:orders|") is None
        assert store.get("table:orders|price>5") is None
        assert store.table_epoch("orders") == 1

    def test_delta_file_signatures_are_untouched(self):
        store = self.seeded()
        store.apply_table_delta("orders", delta_rows=5.0, delta_bytes=0.0,
                                append_only=False)
        assert store.get("table:orders@delta0|").row_count == 3.0

    def test_fold_notifies_listeners_per_signature(self):
        store = self.seeded()
        events = []
        store.subscribe(lambda sig, stats: events.append((sig, stats is None)))
        store.apply_table_delta("orders", delta_rows=1.0, delta_bytes=10.0,
                                append_only=True)
        assert ("table:orders|", False) in events      # merged -> put
        assert ("table:orders|price>5", True) in events  # invalidated

    def test_unknown_table_is_a_noop_with_an_epoch_bump(self):
        store = StatisticsMetastore()
        assert store.apply_table_delta("ghost", 1.0, 1.0,
                                       append_only=True) == {}
        assert store.table_epoch("ghost") == 1


class TestPersistence:
    def test_round_trip(self, tmp_path):
        store = StatisticsMetastore()
        store.put("table:orders|", sample_stats())
        store.put("intermediate:x", TableStats(7.0, 70.0))
        path = tmp_path / "stats.json"
        store.save(path)
        restored = StatisticsMetastore.load(path)
        assert len(restored) == 2
        entry = restored.get("table:orders|")
        assert entry.exact
        assert entry.column("a.x").min_value == 1
        assert entry.column("a.x").null_fraction == pytest.approx(0.05)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(StatisticsError):
            StatisticsMetastore.load(tmp_path / "ghost.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(StatisticsError):
            StatisticsMetastore.load(path)

    def test_load_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(StatisticsError):
            StatisticsMetastore.load(path)

    def test_save_is_atomic_on_failure(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous file untouched
        (save used to truncate the target in place)."""
        path = tmp_path / "stats.json"
        store = StatisticsMetastore()
        store.put("keep-me", sample_stats())
        store.save(path)
        before = path.read_text()

        import repro.stats.metastore as module

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(module.os, "replace", exploding_replace)
        store.put("new-entry", TableStats(1.0, 1.0))
        with pytest.raises(OSError):
            store.save(path)
        assert path.read_text() == before
        # The staging file is cleaned up, not left littering the directory.
        assert list(tmp_path.iterdir()) == [path]

    def test_save_overwrites_previous_contents(self, tmp_path):
        path = tmp_path / "stats.json"
        store = StatisticsMetastore()
        store.put("sig", sample_stats())
        store.save(path)
        store.clear()
        store.put("only", TableStats(2.0, 20.0))
        store.save(path)
        restored = StatisticsMetastore.load(path)
        assert list(restored) == ["only"]


class TestListeners:
    """Nothing in the store is thread-safe; its listeners run inline, on
    the thread that calls ``put``, and may re-enter the store."""

    def test_subscribers_see_every_put(self):
        seen = []
        store = StatisticsMetastore()
        store.subscribe(lambda signature, stats: seen.append(signature))
        store.put("a", TableStats(1.0, 1.0))
        store.put("b", TableStats(2.0, 2.0))
        store.put("a", TableStats(3.0, 3.0))  # updates notify too
        assert seen == ["a", "b", "a"]

    def test_listener_may_reenter_the_store(self):
        store = StatisticsMetastore()
        store.subscribe(lambda signature, stats: len(store))
        store.put("a", TableStats(1.0, 1.0))  # must not deadlock
        assert "a" in store


class TestOnlyBaseLeafStatistics:
    def test_every_execution_path_leaves_only_table_entries(self):
        """Whatever runs -- a re-optimizing DYNOPT block over reused pilot
        outputs, the dynamic join operator, caller (RELOPT) statistics,
        service drains -- the store ends up holding base-leaf ``table:``
        statistics only, and a repeated drain adds none."""
        from repro.config import DEFAULT_CONFIG
        from repro.core.baselines import oracle_leaf_stats, relopt_leaf_stats
        from repro.data.tpch import generate_tpch
        from repro.optimizer.search import JoinOptimizer
        from repro.service import QueryRequest, QueryService
        from repro.workloads.queries import q3, q10
        from tests.serving import run_requests

        tables = generate_tpch(0.02, seed=2014).tables
        q10_workload, q3_workload = q10(), q3()
        # Small enough that Q10 runs as several jobs and re-optimizes.
        service = QueryService(tables,
                               config=DEFAULT_CONFIG.with_memory(16 * 1024),
                               udfs=q10_workload.udfs)
        dyno = service.dyno

        block = dyno.prepare(q10_workload.final_spec).block
        result = dyno.executor.execute_block(block)
        assert result.reoptimization_count >= 1
        assert any(outcome.reusable_output is not None
                   for outcome in result.pilot.outcomes.values())

        block = dyno.prepare(q3_workload.final_spec).block
        plan = JoinOptimizer(block, oracle_leaf_stats(dyno.tables, block),
                             dyno.config.optimizer,
                             dyno.config.cluster).optimize().plan
        assert len(dyno.executor.execute_switching_plan(
            block, plan).iterations) > 1
        dyno.execute(q3_workload.final_spec, leaf_stats=relopt_leaf_stats)

        def drain():
            run_requests(service, [QueryRequest.from_workload(workload)
                                   for workload in (q10_workload,
                                                    q3_workload)])
            return list(dyno.metastore)

        first = drain()
        assert drain() == first
        assert first and all(key.startswith("table:") for key in first)
