"""Every row of a file version is qualified once per alias.

A base leaf is scanned at least twice per query -- its pilot run, then
the first real job -- and again by every later request under the same
alias. The qualified dict of a row is a pure function of (alias, row),
so it lives with the :class:`DFSFile` (``qualified_rows``), filled for
the rows a scan lets through and dropped with the file version. Five
angles: (i) the qualification budget of a cold and a warm request,
(ii) a change batch installs a new version and scans see it, (iii) the
per-file alias bound evicts without changing answers, (iv) racing
threads never get a wrong row, (v) the standing-query refresh
decision, which probes missing leaves through the same scan, estimates
exactly what the row-at-a-time oracle does.
"""

import sys
import threading

from repro.core.baselines import oracle_leaf_stats
from repro.core.dyno import Dyno
from repro.data import table as table_module
from repro.data.schema import INT, STRING, Schema
from repro.data.table import qualify_row
from repro.incremental import (
    ChangeGenerator,
    StandingQueryManager,
    apply_change_batch,
)
from repro.service import QueryService
from repro.storage.dfs import QUALIFIED_ALIAS_LIMIT, DFSFile
from repro.workloads.changing import (
    DEFAULT_STEPS,
    KEY_COLUMNS,
    changing_tables,
    changing_udfs,
    premium_sessions,
    standing_workloads,
)
from repro.workloads.queries import q10
from tests.conftest import assert_same_rows, reference_rows


def count_engine_qualifications(monkeypatch):
    """Wrap ``qualify_row`` wherever an engine module bound it.

    The interpreter and the oracle helpers (``jaql.interpreter``,
    ``jaql.blocks``, ``core.baselines``) keep the original: they are the
    references, not the engine.
    """
    calls = {"n": 0}
    original = table_module.qualify_row

    def counted(alias, row):
        calls["n"] += 1
        return original(alias, row)

    for name in ("repro.data.table", "repro.data.columns",
                 "repro.storage.dfs", "repro.jaql.vector",
                 "repro.jaql.compiler"):
        if vars(sys.modules[name]).get("qualify_row") is original:
            monkeypatch.setattr(sys.modules[name], "qualify_row", counted)
    return calls


# ---------------------------------------------------------------------------
# (i) budget: surviving rows once, then never again
# ---------------------------------------------------------------------------

class TestQualificationBudget:
    def test_cold_request_pays_survivors_once_and_a_repeat_nothing(
            self, tpch_tables, monkeypatch):
        workload = q10()
        dyno = Dyno(tpch_tables, udfs=workload.udfs)
        block = dyno.prepare(workload.final_spec).block
        survivors = sum(
            1 for leaf in block.base_leaves()
            for row in tpch_tables[leaf.source_name].rows
            if leaf.qualify_and_filter(row) is not None
        )

        calls = count_engine_qualifications(monkeypatch)
        cold = dyno.execute_multi(workload.stages)
        assert cold.block_results[0].pilot_seconds > 0
        # Pilot samples and the jobs' full scans together: no surviving
        # row of any leaf is materialized twice.
        assert 0 < calls["n"] <= survivors

        calls["n"] = 0
        warm = dyno.execute_multi(workload.stages)
        assert warm.rows == cold.rows
        assert calls["n"] == 0


# ---------------------------------------------------------------------------
# (ii) a change batch installs a new file version
# ---------------------------------------------------------------------------

class TestChangeBatchInvalidates:
    def test_scans_see_the_replaced_table(self):
        workload = premium_sessions()
        dyno = Dyno(changing_tables(0.03), udfs=changing_udfs())
        before = dyno.execute_multi(workload.stages).rows
        assert_same_rows(
            before, reference_rows(dyno.tables, workload.final_spec))
        old_file = dyno.dfs.open("users")
        assert any(row is not None for row in old_file._qualified["u"])

        # Updates rewrite rows in place and deletes shift every later
        # slot: a memo that outlived its version could not go unnoticed.
        batch = ChangeGenerator(dyno.tables["users"], "userid",
                                seed=2014).next_batch(0.3, (0.0, 1.0, 1.0))
        apply_change_batch(dyno, batch, KEY_COLUMNS["users"])
        new_file = dyno.dfs.open("users")
        assert new_file is not old_file and not new_file._qualified

        after = dyno.execute_multi(workload.stages).rows
        assert_same_rows(
            after, reference_rows(dyno.tables, workload.final_spec))
        assert after != before


# ---------------------------------------------------------------------------
# (iii) the alias bound
# ---------------------------------------------------------------------------

class TestAliasBound:
    SQL = ("SELECT {a}.n_name AS name, r.r_name AS region "
           "FROM nation {a}, region r "
           "WHERE {a}.n_regionkey = r.r_regionkey AND {a}.n_nationkey >= 5")

    def test_fifth_alias_evicts_the_oldest(self, tpch_tables):
        dyno = Dyno(tpch_tables)
        aliases = [f"n{i}" for i in range(QUALIFIED_ALIAS_LIMIT + 1)]
        first_runs = {}
        for alias in aliases:
            first_runs[alias] = dyno.execute(
                self.SQL.format(a=alias), name=alias).rows
        memo = dyno.dfs.open("nation")._qualified
        assert list(memo) == aliases[1:]
        assert len({str(rows) for rows in first_runs.values()}) == 1

        # The evicted alias re-qualifies (dropping the next oldest) and
        # answers exactly as it did the first time.
        again = dyno.execute(self.SQL.format(a=aliases[0]),
                             name="again").rows
        assert again == first_runs[aliases[0]]
        assert list(memo) == aliases[2:] + aliases[:1]
        assert_same_rows(again, reference_rows(
            tpch_tables, dyno.parse(self.SQL.format(a=aliases[0]))))


# ---------------------------------------------------------------------------
# (iv) threads racing the memo
# ---------------------------------------------------------------------------

class TestRacingTheMemo:
    def test_thread_hammer_never_hands_out_a_wrong_row(self):
        """More threads than cores, more aliases than the bound: every
        answer equals a fresh qualification and the bound holds."""
        rows = [{"k": i, "v": f"v{i}"} for i in range(400)]
        dfs_file = DFSFile("f", Schema.of(k=INT, v=STRING), rows,
                           block_size_bytes=1 << 20)
        aliases = [f"a{i}" for i in range(QUALIFIED_ALIAS_LIMIT + 2)]
        failures = []

        def worker(seed):
            for round_ in range(60):
                alias = aliases[(seed + round_) % len(aliases)]
                start = (seed * 37 + round_ * 11) % 200
                selection = range(seed % 3, 200, 1 + round_ % 4)
                got = dfs_file.qualified_rows(alias, start, selection)
                want = [qualify_row(alias, rows[start + i])
                        for i in selection]
                if got != want or \
                        len(dfs_file._qualified) > QUALIFIED_ALIAS_LIMIT:
                    failures.append((seed, round_, alias))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


# ---------------------------------------------------------------------------
# (v) the refresh decision's probe
# ---------------------------------------------------------------------------

class TestRefreshDecisionProbe:
    def test_estimate_equals_the_oracles_on_every_default_step(
            self, monkeypatch):
        service = QueryService(changing_tables(0.03), udfs=changing_udfs())
        dyno = service.dyno
        manager = StandingQueryManager(service)
        for workload in standing_workloads():
            manager.register(workload.name, workload.final_spec)
        generators = {
            table: ChangeGenerator(dyno.tables[table], key, seed=2014)
            for table, key in KEY_COLUMNS.items()
        }
        probe = StandingQueryManager._probe_leaf
        probed = []

        def checked_probe(self, block, leaf):
            """The scan-kernel probe, held to the oracle's answer."""
            stats = probe(self, block, leaf)
            truth = oracle_leaf_stats(dyno.tables, block)[leaf.signature()]
            assert stats.row_count == truth.row_count
            assert stats.columns == truth.columns
            probed.append(leaf.signature())
            return stats

        def oracle_probe(self, block, leaf):
            return oracle_leaf_stats(dyno.tables, block)[leaf.signature()]

        def estimate_with(probe_leaf, standing, applied):
            with monkeypatch.context() as patch:
                patch.setattr(StandingQueryManager, "_probe_leaf",
                              probe_leaf)
                return manager._estimate(standing, applied)

        estimates = 0
        for step in DEFAULT_STEPS:
            batch = generators[step.table].next_batch(step.change_rate,
                                                     step.mix)
            applied = apply_change_batch(dyno, batch,
                                         KEY_COLUMNS[step.table])
            for standing in manager.queries.values():
                if step.table not in standing.base_tables or \
                        manager._forced_full_reason(standing, applied):
                    continue
                assert estimate_with(checked_probe, standing, applied) == \
                    estimate_with(oracle_probe, standing, applied)
                estimates += 1
            report = manager.refresh(applied)
            assert all(outcome.ok for outcome in report.outcomes)
        assert estimates >= len(DEFAULT_STEPS) and probed
