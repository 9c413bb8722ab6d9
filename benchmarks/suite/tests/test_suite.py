"""End-to-end self-tests at ``--size smoke``: seconds, not minutes."""

import json

import pytest

from benchmarks.suite import compare, harness, metrics
from benchmarks.suite.cli import REPO_ROOT, main
from benchmarks.suite.tracing import TARGETS, resolve
from benchmarks.suite.workloads import (
    NOMINAL_SECONDS,
    WORKLOADS,
    sizes_for,
)


@pytest.fixture(scope="module")
def smoke_records():
    """Every workload untraced twice and traced once, same seed."""
    return {
        name: [harness.measure(name, 7, NOMINAL_SECONDS, "smoke", trace)
               for trace in (False, False, True)]
        for name in WORKLOADS
    }


def test_every_workload_runs_correct(smoke_records):
    for name, records in smoke_records.items():
        for record in records:
            assert record["correct"], (name, record["failures"])
            assert record["failed"] == 0
            assert record["attempted"] == record["samples"]["ops"] > 0


def test_untraced_records_carry_the_end_to_end_metrics(smoke_records):
    declared = [name for name, *_ in metrics.END_TO_END]
    for records in smoke_records.values():
        values = records[0]["metrics"]
        assert list(values) == declared + ["failed_ops_ratio"]
        assert all(values[name]["value"] > 0 for name in declared)
        assert values["failed_ops_ratio"]["value"] == 0


def test_traced_records_carry_the_per_layer_metrics(smoke_records):
    declared = [name for name, *_ in metrics.PER_LAYER]
    for name, records in smoke_records.items():
        values = records[2]["metrics"]
        assert list(values) == declared
        assert values["trace.coverage_pct"]["value"] >= 90.0, name
        assert values["runtime.execute_batch.calls"]["value"] > 0
    adhoc = smoke_records["adhoc_cold"][2]["metrics"]
    assert adhoc["pilot.jobs_run"]["value"] > 0
    assert adhoc["sched.drain.calls"]["value"] == 0
    assert adhoc["result_cache.key.calls"]["value"] == 0
    cached = smoke_records["serving_cached"][2]["metrics"]
    assert cached["result_cache.hit_ratio"]["value"] > 0
    assert cached["jaql.parse.calls"]["value"] >= 96
    uncached = smoke_records["serving_uncached"][2]["metrics"]
    assert uncached["result_cache.key.calls"]["value"] == 0
    assert uncached["plan_cache.hit_ratio"]["value"] > 0
    standing = smoke_records["standing_refresh"][2]["metrics"]
    assert standing["standing.delta_count"]["value"] > 0
    assert standing["standing.full_count"]["value"] > 0
    assert standing["cdc.generate.self_s"]["value"] > 0
    assert standing["cdc.apply.calls"]["value"] == 12


def test_counts_repeat_exactly_across_runs(smoke_records):
    for name, (first, second, traced) in smoke_records.items():
        assert first["counts"] == second["counts"], name
        for key, value in first["counts"].items():
            assert traced["counts"][key] == value, (name, key)
        assert first["samples"] == second["samples"]


def test_no_wrapper_survives_a_traced_pass(smoke_records):
    for target in TARGETS:
        attribute = vars(resolve(target.owner))[target.attr]
        assert not hasattr(attribute, "__wrapped__"), target


def test_seconds_scale_the_op_counts():
    assert sizes_for("adhoc_cold", "full", NOMINAL_SECONDS)["passes"] == 15
    assert sizes_for("adhoc_cold", "full", NOMINAL_SECONDS / 3)["passes"] == 5
    assert sizes_for("serving_cached", "full", 1)["requests"] == 144
    assert sizes_for("standing_refresh", "full", 0.01)["cycles"] == 1
    assert sizes_for("serving_uncached", "smoke", 0.01)["requests"] == 12


def test_benchmark_json_matches_the_metric_tables():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(metrics.PER_LAYER)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert declared["run_seconds"] == NOMINAL_SECONDS


def test_cli_prints_the_contract_line(capsys):
    code = main(["--workload", "serving_cached", "--seed", "3",
                 "--seconds", "20", "--trace", "0", "--size", "smoke"])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [n for n, *_ in metrics.END_TO_END]


def test_a_wrong_answer_fails_the_run(monkeypatch):
    from repro.service import result_cache

    original = result_cache.ResultCache.lookup

    def corrupt(self, key):
        rows = original(self, key)
        return rows[:-1] if rows else rows

    monkeypatch.setattr(result_cache.ResultCache, "lookup", corrupt)
    record = harness.measure("serving_cached", 7, NOMINAL_SECONDS, "smoke",
                             False)
    assert not record["correct"] and record["failed"] > 0
    assert any("cache hit" in reason for reason in record["failures"])


def result_file(records, **overrides):
    first, second, traced = records
    result = {"git_sha": "test", "seed": 7, "size": "smoke",
              "seconds": NOMINAL_SECONDS,
              "workloads": {first["workload"]: {
                  "runs": [first, second], "traced": traced}}}
    result.update(overrides)
    return result


def test_compare_verdicts(smoke_records):
    declared = compare.declared_metrics()
    base = result_file(smoke_records["serving_cached"])
    rows = compare.compare(base, base, declared)
    assert {row[6] for row in rows} <= {"ok", "unresolved", "equal"}
    assert {row[1] for row in rows} >= {"failed_ops_ratio", "sim_s_per_op",
                                        "result_cache.hits"}

    slower = json.loads(json.dumps(base))
    for run in slower["workloads"]["serving_cached"]["runs"]:
        run["metrics"]["latency_ms_p50"]["value"] *= 2
        run["counts"]["result_cache.hits"] += 1
    slower["workloads"]["serving_cached"]["traced"]["counts"][
        "result_cache.hits"] += 1
    verdicts = {row[1]: row[6]
                for row in compare.compare(base, slower, declared)}
    assert verdicts["latency_ms_p50"] == "regressed"
    assert verdicts["result_cache.hits"] == "differs"
    assert verdicts["throughput_ops_s"] in ("ok", "unresolved")


def test_verdict_rules():
    lower = {"better": "lower", "bound": 0.10}
    higher = {"better": "higher", "bound": 0.10}
    assert compare.verdict(lower, [100.0], [109.0]) == "ok"
    assert compare.verdict(lower, [100.0], [111.0]) == "regressed"
    assert compare.verdict(higher, [100.0], [89.0]) == "regressed"
    assert compare.verdict(higher, [100.0], [150.0]) == "ok"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(lower, noisy, [101.0] * 5) == "unresolved"
    # Every new run better than every base run: resolved despite noise.
    assert compare.verdict(lower, noisy, [70.0] * 5) == "ok"
    zero = {"better": "lower", "bound": 0.0}
    assert compare.verdict(zero, [0.0], [0.0]) == "ok"
    assert compare.verdict(zero, [0.0], [0.01]) == "regressed"
