"""Every row of a file version is qualified once per alias.

A base leaf is scanned at least twice per query -- its pilot run, then
the first real job -- and again by every later request under the same
alias. The qualified dict of a row is a pure function of (alias, row),
so it lives with the :class:`DFSFile` (``qualified_rows``), filled for
the rows a scan lets through and dropped with the file version. Four
angles: (i) the qualification budget of a cold and a warm request,
(ii) a change batch installs a new version and scans see it, (iii) the
per-file alias bound evicts without changing answers, (iv) the
standing-query refresh decision reads the statistics a change batch
folded into the metastore and scans no table itself.
"""

import sys

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
from repro.storage.dfs import (
    QUALIFIED_ALIAS_LIMIT,
    DFSFile,
    DistributedFileSystem,
)
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
# (iv) the refresh decision's probe
# ---------------------------------------------------------------------------

class TestRefreshDecisionProbe:
    """The refresh decision reads the statistics the change batch folded
    into the metastore; the full-scan probe it used to run is gone."""

    #: (query, table, batch, strategy, delta/full ratio) on DEFAULT_STEPS
    #: at scale 0.03, as the full-scan probe decided them.
    DECISIONS = [
        ("WeblogEngagement", "pageviews", 0, "delta", 0.01467),
        ("PremiumSessions", "pageviews", 0, "delta", 0.080268),
        ("WeblogEngagement", "users", 0, "full", 0.0),
        ("PremiumSessions", "users", 0, "delta", 0.2),
        ("WeblogEngagement", "pageviews", 1, "full", 0.510316),
        ("PremiumSessions", "pageviews", 1, "full", 1.0),
    ]

    def sweep(self, on_batch=lambda manager, applied: None):
        service = QueryService(changing_tables(0.03), udfs=changing_udfs())
        dyno = service.dyno
        manager = StandingQueryManager(service)
        for workload in standing_workloads():
            manager.register(workload.name, workload.final_spec)
        generators = {
            table: ChangeGenerator(dyno.tables[table], key, seed=2014)
            for table, key in KEY_COLUMNS.items()
        }
        decisions = []
        for step in DEFAULT_STEPS:
            batch = generators[step.table].next_batch(step.change_rate,
                                                     step.mix)
            applied = apply_change_batch(dyno, batch,
                                         KEY_COLUMNS[step.table])
            on_batch(manager, applied)
            report = manager.refresh(applied)
            assert all(outcome.ok for outcome in report.outcomes)
            decisions.extend(
                (d.query, d.table, d.sequence, d.strategy, round(d.ratio, 6))
                for d in (outcome.decision for outcome in report.outcomes))
        return decisions

    def test_estimate_scans_no_base_table(self, monkeypatch):
        qualified = count_engine_qualifications(monkeypatch)
        opened: list[str] = []
        original_open = DistributedFileSystem.open

        def recording_open(dfs, name):
            opened.append(name)
            return original_open(dfs, name)

        class Watched(dict):
            def __getitem__(self, name):
                opened.append(name)
                return super().__getitem__(name)

            def get(self, name, default=None):
                opened.append(name)
                return super().get(name, default)

        estimates = []

        def estimate(manager, applied):
            dyno = manager.service.dyno
            tables = dyno.tables
            qualified["n"] = 0
            with monkeypatch.context() as patch:
                patch.setattr(DistributedFileSystem, "open", recording_open)
                dyno.tables = Watched(tables)
                try:
                    for standing in manager.queries.values():
                        if applied.batch.table in standing.base_tables and \
                                not manager._forced_full_reason(standing,
                                                                applied):
                            estimates.append(
                                manager._estimate(standing, applied))
                finally:
                    dyno.tables = tables
            assert opened == [] and qualified["n"] == 0

        self.sweep(estimate)
        assert len(estimates) >= len(DEFAULT_STEPS)
        assert None not in estimates

    def test_decisions_on_the_default_steps_are_pinned(self):
        assert self.sweep() == self.DECISIONS
