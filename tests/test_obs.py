"""Observability layer: tracer, metrics, and the trace-event schema."""

import json

import pytest

from repro.core.dyno import Dyno
from repro.data.schema import INT, STRING, Schema
from repro.data.table import Table
from repro.obs import (JsonLinesSink, MemorySink, MetricsRegistry,
                       NULL_METRICS, NULL_TRACER, Tracer, q_error)

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

    def test_null_metrics_is_disabled(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.inc("n")
        NULL_METRICS.observe("x", 1.0)
        assert NULL_METRICS.summary() == {"counters": {},
                                          "observations": {}}
        with pytest.raises(ValueError):
            NULL_METRICS.save("anywhere.json")


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
        tracer = Tracer(sink)
        metrics = MetricsRegistry()
        dyno = Dyno(small_tables(), tracer=tracer, metrics=metrics)
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
