"""Observability layer: tracer, metrics, and the trace-event schema."""

import io
import json

import pytest

from repro.core.dyno import Dyno
from repro.data.schema import INT, STRING, Schema
from repro.data.table import Table
from repro.obs import (JsonLinesSink, MemorySink, MetricsRegistry,
                       NULL_TRACER, Tracer, q_error)

RECORD_KEYS = {"ts", "seq", "kind", "name", "attrs"}


class TestTracer:
    def test_span_brackets_interval(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", phase="test") as span:
            span.set(cost=42)
        start, end = sink.records
        assert start["kind"] == "span_start" and start["name"] == "work"
        assert end["kind"] == "span_end"
        assert start["span"] == end["span"]
        assert end["dur_s"] >= 0.0
        # Attributes set mid-span land on span_end.
        assert end["attrs"]["cost"] == 42
        assert end["attrs"]["phase"] == "test"

    def test_event_is_a_point_record(self):
        sink = MemorySink()
        Tracer(sink).event("fault", detail="x")
        (record,) = sink.records
        assert record["kind"] == "event"
        assert record["attrs"] == {"detail": "x"}
        assert "span" not in record

    def test_name_can_also_be_an_attribute(self):
        # span()/event() take the record name positionally, so callers can
        # attach an attr literally called "name" (Dyno does, for queries).
        sink = MemorySink()
        Tracer(sink).event("query", name="Q10")
        assert sink.records[0]["name"] == "query"
        assert sink.records[0]["attrs"]["name"] == "Q10"

    def test_exception_recorded_on_span_end(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        end = sink.records[-1]
        assert end["kind"] == "span_end"
        assert end["attrs"]["error"] == "ValueError"

    def test_seq_dense_and_ts_monotonic(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        for index in range(5):
            tracer.event("tick", index=index)
        seqs = [record["seq"] for record in sink.records]
        assert seqs == [0, 1, 2, 3, 4]
        stamps = [record["ts"] for record in sink.records]
        assert stamps == sorted(stamps)

    def test_json_lines_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesSink(path))
        with tracer.span("outer"):
            tracer.event("inner", value=1.5)
        tracer.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["span_start", "event",
                                                "span_end"]

    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", x=1) as span:
            span.set(y=2)
        NULL_TRACER.event("anything")
        NULL_TRACER.close()  # no sink to close; must not raise


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(100.0, 100.0) == pytest.approx(1.0)

    def test_symmetric(self):
        assert q_error(10.0, 1000.0) == q_error(1000.0, 10.0) \
            == pytest.approx(100.0)

    def test_never_below_one(self):
        assert q_error(0.0, 0.0) == pytest.approx(1.0)
        assert q_error(0.0, 5.0) == pytest.approx(5.0)
        assert q_error(5.0, 0.0) == pytest.approx(5.0)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.inc("jobs")
        metrics.inc("jobs", 2)
        assert metrics.counter("jobs") == 3

    def test_observations_track_distribution(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            metrics.observe("latency", value)
        stats = metrics.observation("latency")
        assert stats["count"] == 3
        assert stats["total"] == pytest.approx(6.0)
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["mean"] == pytest.approx(2.0)

    def test_summary_and_save(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.inc("n")
        metrics.observe("x", 4.0)
        path = tmp_path / "metrics.json"
        metrics.save(path)
        summary = json.loads(path.read_text())
        assert summary == metrics.summary()
        assert summary["counters"]["n"] == 1
        assert summary["observations"]["x"]["mean"] == 4.0

    def test_folds_trace_records_beside_other_sinks(self):
        metrics = MetricsRegistry()
        sink = MemorySink()
        tracer = Tracer(sink, metrics)
        tracer.event("plan_cache", hit=True)
        tracer.event("plan_cache", hit=False)
        tracer.event("service.complete", tenant="acme", wait_s=0.5)
        tracer.event("untracked", value=3)
        with tracer.span("optimize") as span:
            span.set(sim_s=0.25)
        assert len(sink.records) == 6
        assert metrics.summary()["counters"] == {
            "dynopt.optimizations": 1.0, "plan_cache.hits": 1.0,
            "plan_cache.misses": 1.0, "service.tenant_waits": 1.0,
        }
        assert metrics.observation("service.tenant_wait_s.acme")[
            "total"] == 0.5
        assert metrics.observation("optimizer.sim_s")["count"] == 1

    def test_a_span_that_raised_folds_nothing(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics)
        with pytest.raises(ValueError):
            with tracer.span("recover"):
                raise ValueError("lost again")
        assert metrics.summary() == {"counters": {}, "observations": {}}


def small_tables():
    nation = Table("nation", Schema.of(nk=INT, rk=INT, nname=STRING), [
        {"nk": i, "rk": i % 3, "nname": f"N{i}"} for i in range(9)
    ])
    region = Table("region", Schema.of(rk=INT, rname=STRING), [
        {"rk": i, "rname": f"R{i}"} for i in range(3)
    ])
    return {"nation": nation, "region": region}


SQL = ("SELECT n.nname AS nname, r.rname AS rname "
       "FROM nation n, region r WHERE n.rk = r.rk")


class TestTraceSchema:
    """Every emitted record round-trips through JSON and follows the
    documented schema, for a real end-to-end DYNOPT run."""

    def run_traced(self):
        sink = MemorySink()
        metrics = MetricsRegistry()
        dyno = Dyno(small_tables(), tracer=Tracer(sink, metrics))
        execution = dyno.execute(SQL, mode="dynopt", name="schema-test")
        return execution, sink.records, metrics

    def test_every_record_round_trips_through_json(self):
        _, records, _ = self.run_traced()
        assert records
        for record in records:
            clone = json.loads(json.dumps(record, sort_keys=True,
                                          default=str))
            assert clone == record, record

    def test_records_follow_schema(self):
        _, records, _ = self.run_traced()
        for record in records:
            assert RECORD_KEYS <= set(record), record
            assert record["kind"] in ("span_start", "span_end", "event")
            assert isinstance(record["name"], str) and record["name"]
            assert isinstance(record["attrs"], dict)
            if record["kind"] in ("span_start", "span_end"):
                assert isinstance(record["span"], int)
            if record["kind"] == "span_end":
                assert record["dur_s"] >= 0.0
        seqs = [record["seq"] for record in records]
        assert seqs == list(range(len(records)))

    def test_spans_balance(self):
        _, records, _ = self.run_traced()
        starts = {r["span"] for r in records if r["kind"] == "span_start"}
        ends = {r["span"] for r in records if r["kind"] == "span_end"}
        assert starts == ends

    def test_lifecycle_names_present(self):
        _, records, _ = self.run_traced()
        names = {record["name"] for record in records}
        assert {"query", "block", "optimize", "execute", "job",
                "schedule", "batch"} <= names

    def test_estimate_events_carry_q_errors(self):
        _, records, metrics = self.run_traced()
        estimates = [r for r in records if r["name"] == "estimate"]
        for record in estimates:
            attrs = record["attrs"]
            assert attrs["q_error_rows"] >= 1.0
            assert attrs["q_error_bytes"] >= 1.0
            assert attrs["actual_rows"] >= 0
        if estimates:
            assert metrics.observation("qerror.rows")["count"] == \
                len(estimates)

    def test_job_events_separate_sim_and_wall_time(self):
        _, records, _ = self.run_traced()
        jobs = [r for r in records if r["name"] == "job"]
        assert jobs
        for record in jobs:
            attrs = record["attrs"]
            assert attrs["sim_elapsed_s"] > 0.0
            assert attrs["driver_wall_s"] >= 0.0
            # Simulated cluster time dwarfs driver wall time by design.
            assert attrs["sim_elapsed_s"] != attrs["driver_wall_s"]

    def test_tracing_does_not_change_results(self):
        traced, _, _ = self.run_traced()
        plain = Dyno(small_tables()).execute(SQL, mode="dynopt",
                                             name="schema-test")
        assert traced.rows == plain.rows


CHAOS_PLAN = {"seed": 67, "name": "ci-chaos", "task_failure_rate": 0.15,
              "job_failure_rate": 0.3, "node_loss_rate": 0.5,
              "max_node_losses": 1, "straggler_rate": 0.2}
DOOMED_PLAN = {"seed": 67, "broadcast_failure_rate": 1.0}

#: observation streams on the simulated clock (or otherwise independent
#: of wall time): their totals repeat exactly run to run.
DETERMINISTIC_TOTALS = ("batch.makespan_s", "job.sim_elapsed_s",
                        "optimizer.sim_s", "pilot.sim_s",
                        "query.sim_pilot_s", "query.sim_optimizer_s",
                        "query.sim_execution_s", "incremental.cdc_rows",
                        "service.queue_depth")

PARITY_SCENARIOS = {
    "q10-doomed": {
        "argv": ["--workload", "Q10", "--scale-factor", "0.1"],
        "plan": DOOMED_PLAN,
        "counters": {
            "bytes.output": 690712.0, "dynopt.estimate_misses": 3.0,
            "dynopt.midjob_replans": 2.0, "dynopt.optimizations": 4.0,
            "dynopt.replans": 1.0, "dynopt.subplans_executed": 3.0,
            "faults.events": 1.0, "jobs.executed": 8.0,
            "pilot.jobs_run": 4.0, "plan_cache.misses": 1.0,
            "queries.executed": 1.0, "rows.output": 1664.0,
            "service.batches": 1.0, "service.queries": 1.0,
            "service.tenant_waits": 1.0,
        },
        "counts": {
            "batch.makespan_s": 5, "job.driver_wall_s": 8,
            "job.sim_elapsed_s": 8, "optimizer.sim_s": 4,
            "pilot.sim_s": 1, "qerror.bytes": 3, "qerror.rows": 3,
            "query.driver_wall_s": 1, "query.sim_execution_s": 1,
            "query.sim_optimizer_s": 1, "query.sim_pilot_s": 1,
            "service.queue_depth": 2, "service.tenant_wait_s": 1,
            "service.tenant_wait_s.default": 1,
        },
        "totals": {
            "batch.makespan_s": 499.1918240625001,
            "job.sim_elapsed_s": 599.5230304166666,
            "optimizer.sim_s": 0.396, "pilot.sim_s": 54.626023125,
            "query.sim_execution_s": 444.56580093750006,
            "query.sim_optimizer_s": 0.396,
            "query.sim_pilot_s": 54.626023125,
            "service.queue_depth": 1.0,
        },
    },
    "mixed-chaos": {
        "argv": ["--batch", "mixed", "--scale-factor", "0.05",
                 "--tenants", "3", "--result-cache"],
        "plan": CHAOS_PLAN,
        "counters": {
            "bytes.output": 2562800.0, "dynopt.estimate_misses": 5.0,
            "dynopt.midjob_replans": 1.0, "dynopt.optimizations": 5.0,
            "dynopt.recovered_jobs": 1.0, "dynopt.subplans_executed": 5.0,
            "faults.events": 9.0, "faults.node_losses": 1.0,
            "faults.stragglers": 81.0, "faults.task_retries": 79.0,
            "jobs.executed": 22.0, "pilot.jobs_run": 12.0,
            "plan_cache.misses": 5.0, "queries.executed": 4.0,
            "rows.output": 10226.0, "service.batches": 1.0,
            "service.queries": 21.0, "service.result_cache_hits": 17.0,
            "service.tenant_waits": 21.0,
        },
        "counts": {
            "batch.makespan_s": 14, "job.driver_wall_s": 22,
            "job.sim_elapsed_s": 22, "optimizer.sim_s": 5,
            "pilot.sim_s": 4, "qerror.bytes": 5, "qerror.rows": 5,
            "query.driver_wall_s": 4, "query.sim_execution_s": 4,
            "query.sim_optimizer_s": 4, "query.sim_pilot_s": 4,
            "service.queue_depth": 22, "service.tenant_wait_s": 21,
            "service.tenant_wait_s.tenant-0": 7,
            "service.tenant_wait_s.tenant-1": 7,
            "service.tenant_wait_s.tenant-2": 7,
        },
        "totals": {
            "batch.makespan_s": 3653.726744166667,
            "job.sim_elapsed_s": 3956.305446354166,
            "optimizer.sim_s": 0.306, "pilot.sim_s": 188.678575,
            "query.sim_execution_s": 3465.0481691666664,
            "query.sim_optimizer_s": 0.306,
            "query.sim_pilot_s": 188.678575,
            "service.queue_depth": 231.0,
        },
    },
    "standing": {
        "argv": ["--standing", "--scale-factor", "0.05", "--changes", "3"],
        "plan": None,
        "counters": {
            "bytes.output": 987361.0, "dynopt.estimate_misses": 13.0,
            "dynopt.midjob_replans": 2.0, "dynopt.optimizations": 13.0,
            "dynopt.subplans_executed": 13.0,
            "incremental.cdc_batches": 3.0,
            "incremental.refresh_delta": 2.0,
            "incremental.refresh_full": 4.0, "jobs.executed": 27.0,
            "pilot.jobs_run": 7.0, "pilot.reused": 19.0,
            "plan_cache.misses": 13.0, "queries.executed": 11.0,
            "rows.output": 4610.0, "service.batches": 5.0,
            "service.queries": 11.0, "service.tenant_waits": 11.0,
        },
        "counts": {
            "batch.makespan_s": 23, "incremental.cdc_rows": 3,
            "job.driver_wall_s": 27, "job.sim_elapsed_s": 27,
            "optimizer.sim_s": 13, "pilot.sim_s": 3, "qerror.bytes": 13,
            "qerror.rows": 13, "query.driver_wall_s": 11,
            "query.sim_execution_s": 11, "query.sim_optimizer_s": 11,
            "query.sim_pilot_s": 11, "service.queue_depth": 16,
            "service.tenant_wait_s": 11,
            "service.tenant_wait_s.adhoc": 3,
            "service.tenant_wait_s.standing": 8,
        },
        "totals": {
            "batch.makespan_s": 858.5342859999997,
            "incremental.cdc_rows": 516.0,
            "job.sim_elapsed_s": 926.4087389999999,
            "optimizer.sim_s": 0.378, "pilot.sim_s": 132.60449599999998,
            "query.sim_execution_s": 725.92979,
            "query.sim_optimizer_s": 0.378,
            "query.sim_pilot_s": 132.60449599999998,
            "service.queue_depth": 20.0,
        },
    },
}


class TestMetricParity:
    """The ``--metrics`` summary of three CLI runs, pinned: counters
    exactly, every observation stream's name and sample count, and the
    totals of the streams that do not depend on wall time."""

    @pytest.mark.parametrize("scenario", sorted(PARITY_SCENARIOS))
    def test_metrics_summary_is_pinned(self, scenario, tmp_path):
        from repro.cli import main

        pinned = PARITY_SCENARIOS[scenario]
        argv = list(pinned["argv"])
        if pinned["plan"] is not None:
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps(pinned["plan"]))
            argv += ["--fault-plan", str(plan)]
        path = tmp_path / "metrics.json"
        assert main(argv + ["--metrics", str(path)], out=io.StringIO()) == 0
        summary = json.loads(path.read_text())

        assert summary["counters"] == pinned["counters"]
        observations = summary["observations"]
        assert {name: stats["count"]
                for name, stats in observations.items()} == pinned["counts"]
        totals = {name: observations[name]["total"]
                  for name in DETERMINISTIC_TOTALS if name in observations}
        assert totals.keys() == pinned["totals"].keys()
        for name, total in pinned["totals"].items():
            assert totals[name] == pytest.approx(total, rel=1e-6), name
