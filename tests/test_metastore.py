"""Statistics metastore: signature store, CDC delta folds, persistence."""

import pytest

from repro.errors import StatisticsError
from repro.stats.metastore import (
    LeafSource,
    StatisticsMetastore,
    bare_table_signature,
    table_signature_prefix,
)
from repro.stats.statistics import (
    ColumnStats,
    RunningColumn,
    RunningStats,
    TableStats,
)


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


def running_over(rows, keep=lambda row: True):
    """Exact accumulator of the ``a.x`` values of ``rows`` that ``keep``
    passes, 10 bytes a row (a stand-in for the pilot's kernel)."""
    running = RunningStats(["a.x"])
    for row in rows:
        if keep(row):
            running.update(row, 10)
    return running


class TestApplyTableDelta:
    """One rule: an entry with a pilot's :class:`LeafSource` is folded
    exactly, any other is invalidated. Leaves here are filter functions
    and ``scan`` reads in-memory files through them."""

    ORDERS = [{"a.x": value} for value in (1, 3, 5, 7, 9, 9)]

    def seeded(self):
        store = StatisticsMetastore()
        store.put(bare_table_signature("orders"), sample_stats(),
                  LeafSource(lambda row: True, ("a.x",)))
        store.put("table:orders|price>5", TableStats(40.0, 2000.0),
                  LeafSource(lambda row: row["a.x"] > 5, ("a.x",)))
        store.put("table:orders|loaded", TableStats(4.0, 40.0))
        store.put("table:orders@delta0|", TableStats(3.0, 30.0))
        return store

    def apply(self, store, files, sequence=1, appended=(), deleted=()):
        """Register the batch's files and fold it; returns the actions
        and the files the fold read."""
        inserts = f"orders@delta{sequence}" if appended else None
        deletes = f"orders@delta{sequence}-del" if deleted else None
        files.update({inserts: list(appended), deletes: list(deleted)})
        files["orders"] = [row for row in files["orders"]
                           if row not in deleted] + list(appended)
        read = []

        def scan(source, name):
            read.append(name)
            return running_over(files[name], source.leaf)

        store.bump_table_epoch("orders")  # the caller's register_table
        return store.apply_table_delta("orders", scan, inserts,
                                       deletes), read

    def assert_exact(self, store, signature, rows):
        folded = store.get(signature)
        truth = running_over(rows).freeze(exact=True)
        assert folded.exact
        assert (folded.row_count, folded.size_bytes) == \
            (truth.row_count, truth.size_bytes)
        assert folded.columns == truth.columns

    def test_appends_fold_exactly_into_every_sourced_signature(self):
        """Was: append-only batches merged the bare scan inexactly and
        invalidated every predicated signature. Now every signature with a
        source is exact after each batch; the first batch scans the new
        version once, later ones read only the batch's rows."""
        store = self.seeded()
        files = {"orders": list(self.ORDERS)}
        actions, read = self.apply(store, files, 1, [{"a.x": 11}])
        assert actions == {
            "table:orders|": "folded",
            "table:orders|loaded": "invalidated",
            "table:orders|price>5": "folded",
        }
        assert read.count("orders") == 2  # one build scan per signature
        actions, read = self.apply(store, files, 2,
                                   [{"a.x": 2}, {"a.x": 13}])
        assert "orders" not in read
        self.assert_exact(store, "table:orders|", files["orders"])
        self.assert_exact(store, "table:orders|price>5",
                          [row for row in files["orders"] if row["a.x"] > 5])
        assert store.get("table:orders|").column("a.x").max_value == 13
        assert store.get("table:orders|loaded") is None
        assert store.table_epoch("orders") == 4

    def test_deletes_subtract_from_the_count_tables(self, monkeypatch):
        """Was: any delete or update invalidated every signature. Now the
        deleted rows un-count exactly (row count, distinct values, and the
        extrema the deleted values held); only a column whose count table
        overflowed its budget cannot, and its entry is invalidated."""
        store = self.seeded()
        files = {"orders": list(self.ORDERS)}
        self.apply(store, files, 1, [{"a.x": 11}])
        actions, read = self.apply(store, files, 2, [{"a.x": 4}],
                                   [{"a.x": 1}, {"a.x": 11}])
        assert actions["table:orders|"] == "folded"
        assert "orders" not in read
        self.assert_exact(store, "table:orders|", files["orders"])
        self.assert_exact(store, "table:orders|price>5",
                          [row for row in files["orders"] if row["a.x"] > 5])
        bare = store.get("table:orders|").column("a.x")
        assert (bare.min_value, bare.max_value) == (3, 9)

        # Past three distinct values a count table is dropped: the bare
        # scan's overflows on the next append, the predicated one's not.
        monkeypatch.setattr(RunningColumn, "MAX_EXACT_VALUES", 3)
        self.apply(store, files, 3, [{"a.x": 20}])
        actions, _ = self.apply(store, files, 4, (), [{"a.x": 3}])
        assert actions == {"table:orders|": "invalidated",
                           "table:orders|price>5": "folded"}
        self.assert_exact(store, "table:orders|price>5",
                          [row for row in files["orders"] if row["a.x"] > 5])

    def test_delta_file_signatures_are_untouched(self):
        """A fold publishes its own batch's delta files and leaves an
        earlier batch's alone (they die with that batch's refresh)."""
        store = self.seeded()
        self.apply(store, {"orders": list(self.ORDERS)}, 1, [{"a.x": 6}],
                   [{"a.x": 1}])
        assert store.get("table:orders@delta0|").row_count == 3.0
        assert store.get("table:orders@delta1|").row_count == 1.0
        assert store.get("table:orders@delta1-del|").row_count == 1.0
        assert store.get("table:orders@delta1|price>5").row_count == 1.0
        assert store.get("table:orders@delta1-del|price>5").row_count == 0.0

    def test_fold_notifies_listeners_per_signature(self):
        store = self.seeded()
        events = []
        store.subscribe(lambda sig, stats: events.append((sig, stats is None)))
        self.apply(store, {"orders": list(self.ORDERS)}, 1, [{"a.x": 6}])
        assert ("table:orders|", False) in events         # folded -> put
        assert ("table:orders|price>5", False) in events
        assert ("table:orders|loaded", True) in events    # invalidated
        assert ("table:orders@delta1|", False) in events  # published

    def test_unknown_table_is_a_noop_with_an_epoch_bump(self):
        store = StatisticsMetastore()
        assert store.apply_table_delta("ghost", scan=None) == {}
        assert store.table_epoch("ghost") == 1

    def test_a_table_registered_behind_the_folds_back_is_rescanned(self):
        """Mergeable state is in step with one table version; a version
        registered without a fold makes the next fold scan afresh."""
        store = self.seeded()
        files = {"orders": list(self.ORDERS)}
        self.apply(store, files, 1, [{"a.x": 11}])
        store.bump_table_epoch("orders")  # re-registered, no fold
        files["orders"] = files["orders"][:2]
        _, read = self.apply(store, files, 2, [{"a.x": 2}])
        assert read.count("orders") == 2
        self.assert_exact(store, "table:orders|", files["orders"])


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
