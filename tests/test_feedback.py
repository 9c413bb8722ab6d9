"""The workload feedback loop: corrections, pilot tuning, regret.

Three layers of evidence:

* **property** -- against a synthetic estimator with a constant
  multiplicative bias, the learned correction drives the q-error from
  the bias toward 1.0 (within the quantization step);
* **differential** -- feedback changes *plans*, never *rows*: with the
  loop on, every oracle query returns byte-identical results to a
  feedback-off run, on the first run and on the corrected re-run;
* **integration** -- a service-shared store ingests audits from
  concurrent drivers, q-error improves batch over batch, and pilot
  escalation forces re-pilots with boosted sample sizes.
"""

import math

import pytest

from repro.core.dyno import Dyno
from repro.feedback import (
    FeedbackStore,
    block_feedback_context,
    canonical_block_key,
    group_key,
)
from repro.feedback.store import (
    PILOT_BOOST_MAX,
    PILOT_ESCALATE_AFTER,
    QUANT_STEP_LOG2,
)
from repro.obs.metrics import MetricsRegistry, q_error
from repro.service import QueryRequest, QueryService

from .oracle import (
    ORACLE_SEED,
    canonical_rows,
    fingerprint,
    oracle_tables,
    run_workload,
)
from .serving import run_requests

IDENTITY = (("l", "table:lineitem|"), ("o", "table:orders|"))


@pytest.fixture(scope="module")
def tables():
    return oracle_tables()


class TestCorrectionConvergence:
    @pytest.mark.parametrize("bias", [20.0, 8.0, 3.5, 0.2, 0.05])
    def test_qerror_converges_toward_one(self, bias):
        """A constant multiplicative estimator bias is learned away.

        The estimate fed back is the already-corrected one, so the
        update chases the residual; after convergence the remaining
        error is bounded by the quantization grid (2**0.125 ~ 1.09).
        """
        store = FeedbackStore()
        key = "from[l;o]|ids[...]|conds[...]|preds[]"
        actual = 10_000.0
        initial = q_error(actual * bias, actual)
        final = initial
        for _ in range(25):
            rows_factor, bytes_factor = store.correction(key)
            corrected_rows = actual * bias * rows_factor
            corrected_bytes = actual * 8 * bias * bytes_factor
            final = q_error(corrected_rows, actual)
            store.ingest(key, IDENTITY,
                         estimated_rows=corrected_rows,
                         actual_rows=actual,
                         estimated_bytes=corrected_bytes,
                         actual_bytes=actual * 8)
        quantization_floor = 2.0 ** (QUANT_STEP_LOG2 / 2.0)
        assert final <= quantization_floor * 1.05
        assert final < initial

    def test_unbiased_estimates_learn_no_correction(self):
        store = FeedbackStore()
        key = "k"
        for _ in range(10):
            store.ingest(key, IDENTITY, 1000.0, 1000.0, 8000.0, 8000.0)
        assert store.correction(key) == (1.0, 1.0)
        assert store.correction_token(dict(IDENTITY)) == ""


class TestPilotEscalation:
    KEY = "from[l]|ids[l=table:lineitem|]|conds[]|preds[]"

    def big_miss(self, store, key=KEY):
        return store.ingest(key, (("l", "table:lineitem|"),),
                            estimated_rows=10.0, actual_rows=100_000.0,
                            estimated_bytes=10.0, actual_bytes=100_000.0)

    def test_persistent_misses_escalate_contributing_signatures(self):
        store = FeedbackStore()
        for audit in range(PILOT_ESCALATE_AFTER - 1):
            assert self.big_miss(store) == ()
        assert self.big_miss(store) == ("table:lineitem|",)
        assert store.should_repilot("table:lineitem|")
        assert store.pilot_boost("table:lineitem|") == 2.0
        # Untouched signatures stay at their defaults.
        assert store.pilot_boost("table:orders|") == 1.0
        assert not store.should_repilot("table:orders|")

    def test_repilot_done_clears_pending_keeps_boost(self):
        store = FeedbackStore()
        for _ in range(PILOT_ESCALATE_AFTER):
            self.big_miss(store)
        store.repilot_done("table:lineitem|")
        assert not store.should_repilot("table:lineitem|")
        assert store.pilot_boost("table:lineitem|") == 2.0

    def test_boost_caps_out(self):
        store = FeedbackStore()
        for _ in range(PILOT_ESCALATE_AFTER * 20):
            self.big_miss(store)
            store.repilot_done("table:lineitem|")
        assert store.pilot_boost("table:lineitem|") == PILOT_BOOST_MAX

    def test_one_good_audit_resets_the_streak(self):
        store = FeedbackStore()
        for _ in range(PILOT_ESCALATE_AFTER - 1):
            self.big_miss(store)
        store.ingest(self.KEY, (("l", "table:lineitem|"),),
                     1000.0, 1000.0, 8000.0, 8000.0)
        assert self.big_miss(store) == ()


class TestRepilotIntegration:
    SQL = (
        "SELECT n.n_name AS n FROM nation n, region r "
        "WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'"
    )

    def test_escalation_forces_one_boosted_repilot(self, tables):
        """An escalated signature re-pilots once despite its metastore
        hit, then returns to normal skipping."""
        feedback = FeedbackStore()
        dyno = Dyno(tables, feedback=feedback)
        first = dyno.execute(self.SQL, name="first")
        assert first.block_results[0].pilot.jobs_run == 2
        warm = dyno.execute(self.SQL, name="warm")
        assert warm.block_results[0].pilot.jobs_run == 0

        signature = next(sig for sig in dyno.metastore
                         if sig.startswith("table:region"))
        for _ in range(PILOT_ESCALATE_AFTER):
            feedback.ingest("synthetic", (("r", signature),),
                            estimated_rows=10.0, actual_rows=100_000.0,
                            estimated_bytes=10.0, actual_bytes=100_000.0)
        assert feedback.should_repilot(signature)

        repiloted = dyno.execute(self.SQL, name="repiloted")
        assert repiloted.block_results[0].pilot.jobs_run == 1
        assert not feedback.should_repilot(signature)
        assert feedback.pilot_boost(signature) == 2.0
        # The forced pilot re-collected statistics; later runs skip again.
        settled = dyno.execute(self.SQL, name="settled")
        assert settled.block_results[0].pilot.jobs_run == 0
        assert canonical_rows(settled.rows) == canonical_rows(first.rows)


class TestRegret:
    def test_regret_is_relative_to_best_known(self):
        store = FeedbackStore()
        key = "leaves[...]"
        assert store.record_choice(key, "planA", 10.0) == 0.0
        assert store.record_choice(key, "planB", 15.0) == pytest.approx(0.5)
        # A new best is not charged, and resets the baseline.
        assert store.record_choice(key, "planC", 5.0) == 0.0
        assert store.record_choice(key, "planB", 15.0) == pytest.approx(2.0)
        (entry,) = store.regret_leaderboard()
        assert entry["choices"] == 4
        assert entry["best_plan"] == "planC"
        assert entry["worst_plan"] == "planB"
        assert entry["max_regret"] == pytest.approx(2.0)

    def test_leaderboard_ranks_by_mean_regret(self):
        store = FeedbackStore()
        store.record_choice("good", "p", 10.0)
        store.record_choice("good", "p", 10.0)
        store.record_choice("bad", "p1", 10.0)
        store.record_choice("bad", "p2", 30.0)
        board = store.regret_leaderboard()
        assert [entry["block"] for entry in board] == ["bad", "good"]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        store = FeedbackStore()
        store.ingest("k", IDENTITY, 100.0, 1000.0, 800.0, 8000.0)
        for _ in range(PILOT_ESCALATE_AFTER):
            store.ingest("k2", (("l", "table:lineitem|"),),
                         10.0, 100_000.0, 10.0, 100_000.0)
        store.record_choice("block", "planA", 10.0)
        store.record_choice("block", "planB", 12.0)
        path = tmp_path / "feedback.json"
        store.save(path)

        loaded = FeedbackStore.load(path)
        assert loaded.correction("k") == store.correction("k")
        assert loaded.correction_token(dict(IDENTITY)) == \
            store.correction_token(dict(IDENTITY))
        assert loaded.pilot_boost("table:lineitem|") == \
            store.pilot_boost("table:lineitem|")
        assert loaded.should_repilot("table:lineitem|")
        assert loaded.regret_leaderboard() == store.regret_leaderboard()

    def test_load_rejects_garbage(self, tmp_path):
        from repro.errors import StatisticsError

        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(StatisticsError):
            FeedbackStore.load(path)
        with pytest.raises(StatisticsError):
            FeedbackStore.load(tmp_path / "missing.json")


class TestKeys:
    SQL = (
        "SELECT n.n_name AS n FROM nation n, region r "
        "WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'"
    )

    def test_keys_are_name_independent(self, tables):
        """Two service-renamed copies of one query share every key."""
        dyno = Dyno(tables)
        block_a = dyno.prepare(self.SQL, name="b0.q000.query").block
        block_b = dyno.prepare(self.SQL, name="b7.q123.query").block
        assert block_a.name != block_b.name
        assert canonical_block_key(block_a) == canonical_block_key(block_b)
        context_a = block_feedback_context(block_a)
        context_b = block_feedback_context(block_b)
        aliases = frozenset({"n", "r"})
        assert group_key(context_a, block_a, aliases) == \
            group_key(context_b, block_b, aliases)

    def test_unknown_alias_yields_no_key(self, tables):
        dyno = Dyno(tables)
        block = dyno.prepare(self.SQL).block
        context = block_feedback_context(block)
        assert group_key(context, block, frozenset({"n", "zz"})) is None
        assert group_key(context, block, frozenset()) is None

    def test_correction_token_scoped_to_matching_blocks(self):
        store = FeedbackStore()
        store.ingest("k", IDENTITY, 100.0, 10_000.0, 800.0, 80_000.0)
        # Blocks containing the corrected group's aliases see a token ...
        assert store.correction_token(dict(IDENTITY)) != ""
        superset = dict(IDENTITY)
        superset["c"] = "table:customer|"
        assert store.correction_token(superset) == \
            store.correction_token(dict(IDENTITY))
        # ... unrelated blocks do not, so their cache keys are untouched.
        assert store.correction_token({"c": "table:customer|"}) == ""


class TestDifferential:
    """Feedback may change plans and costs -- never a single row."""

    @pytest.mark.parametrize("query", ["Q10", "Q8'"])
    def test_results_identical_with_and_without_feedback(self, tables,
                                                         query):
        baseline_dyno, baseline_execution = run_workload(tables, query)
        baseline = fingerprint(baseline_dyno, baseline_execution)

        from tests.oracle import ORACLE_WORKLOADS

        workload = ORACLE_WORKLOADS[query]()
        feedback = FeedbackStore()
        dyno = Dyno(tables, udfs=workload.udfs, feedback=feedback)
        for run in range(3):
            if len(workload.stages) > 1:
                execution = dyno.execute_multi(workload.stages)
            else:
                execution = dyno.execute(workload.final_spec, name=query)
            corrected = fingerprint(dyno, execution)
            assert corrected["rows"] == baseline["rows"], \
                f"{query} run {run} diverged with feedback on"
        assert len(feedback) > 0, "the loop must actually have learned"


class TestSimpleModeAuditsAndLearns:
    """DYNOPT-SIMPLE consumes corrections, so it must also produce them:
    its jobs are audited and ingested by the same loop as DYNOPT's."""

    @pytest.mark.parametrize("strategy", ["SIMPLE_SO", "SIMPLE_MO"])
    def test_one_estimate_per_join_job_and_a_nonempty_store(self, tables,
                                                            strategy):
        from repro.obs import MemorySink, Tracer
        from tests.oracle import ORACLE_WORKLOADS

        workload = ORACLE_WORKLOADS["Q7"]()
        sink = MemorySink()
        feedback = FeedbackStore()
        dyno = Dyno(tables, udfs=workload.udfs, feedback=feedback,
                    tracer=Tracer(sink))
        execution = dyno.execute(workload.final_spec, mode="simple",
                                 strategy=strategy, name="Q7")
        (block,) = execution.block_results
        executed = [name for record in block.iterations
                    for name in record.jobs_executed]
        assert len(executed) > 1  # a multi-job static plan
        estimates = [record["attrs"] for record in sink.records
                     if record["name"] == "estimate"]
        assert [attrs["job"] for attrs in estimates] == executed
        assert all(attrs["joins"] >= 1 for attrs in estimates)
        # inf for the block: nothing can miss, nothing re-optimizes.
        assert not any(attrs["missed"] for attrs in estimates)
        assert len(block.plans) == 1 and block.midjob_replans == []
        assert len(feedback) > 0, "a SIMPLE run must feed the store"


class TestServiceIntegration:
    SCALE = 0.02
    EVENTS = 1200

    def mixed(self):
        from repro.workloads.mixed import mixed_batch, mixed_tables

        tables = mixed_tables(self.SCALE, seed=ORACLE_SEED,
                              weblog_events=self.EVENTS)
        requests, udfs = mixed_batch()
        return tables, requests, udfs

    def batch_qerror_mean(self, metrics, before):
        obs = metrics.summary()["observations"].get("qerror.rows")
        assert obs is not None
        count = obs["count"] - before["count"]
        total = obs["total"] - before["total"]
        return (total / count if count else 0.0), dict(obs)

    def test_shared_store_improves_repeated_batches(self):
        tables, requests, udfs = self.mixed()
        metrics = MetricsRegistry()
        feedback = FeedbackStore()
        service = QueryService(tables, udfs=udfs, metrics=metrics,
                               feedback=feedback)
        baseline = QueryService(tables, udfs=udfs)
        expected = [canonical_rows(outcome.rows)
                    for outcome in run_requests(baseline, requests)]

        before = {"count": 0, "total": 0.0}
        means = []
        for _batch in range(3):
            outcomes = run_requests(service, requests)
            assert [outcome.error for outcome in outcomes] == [None] * 7
            assert [canonical_rows(outcome.rows)
                    for outcome in outcomes] == expected
            mean, before = self.batch_qerror_mean(metrics, before)
            means.append(mean)
        assert len(feedback) > 0
        assert metrics.summary()["counters"]["feedback.ingested"] > 0
        # Corrections learned in batch 1 apply from batch 2 on.
        assert means[-1] <= means[0]
        assert min(means[1:]) < means[0]

    def test_feedback_report_renders(self):
        tables, requests, udfs = self.mixed()
        feedback = FeedbackStore()
        service = QueryService(tables, udfs=udfs, feedback=feedback)
        run_requests(service, requests)
        report = feedback.report()
        assert "feedback report:" in report
        assert "correction keys" in report
        summary = feedback.summary()
        assert summary["samples"] > 0
        assert math.isfinite(summary["keys"])
