"""Differential execution tests: every engine path vs the interpreter.

The Jaql interpreter evaluates a query tree directly over in-memory
tables; it shares no code with the MapReduce compilation, the optimizer,
or the cluster runtime. Running every paper workload through every
execution path a user can select -- DYNOPT under each strategy, pilot
mode, backend, trigger threshold and a spilling memory budget, and
DYNOPT-SIMPLE (SO and MO) -- and demanding row-identical results is
therefore an end-to-end differential oracle for the whole engine stack.
"""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.dyno import infer_schema
from repro.data.table import Table
from repro.jaql.expr import QuerySpec
from repro.jaql.interpreter import Interpreter
from repro.jaql.rewrites import push_down_filters
from repro.workloads.queries import TPCH_WORKLOADS
from repro.workloads.skewed import SKEWED_WORKLOADS
from tests.conftest import assert_same_rows
from tests.oracle import oracle_tables, run_workload, skewed_oracle_tables

def with_threshold(qerror: float):
    return replace(DEFAULT_CONFIG, reoptimization_qerror_threshold=qerror)


#: label -> what the leg passes to ``run_workload`` on top of its
#: defaults (DYNOPT, UNC-1, PILR_MT, ``DEFAULT_CONFIG``). One leg per
#: setting of an option, so no two legs run the same configuration.
ENGINE_PATHS = {
    "dynopt-unc1": dict(strategy="UNC-1"),
    "dynopt-cheap1": dict(strategy="CHEAP-1"),
    "dynopt-all-at-once": dict(strategy="ALL"),
    "simple-so": dict(mode="simple", strategy="SIMPLE_SO"),
    # Static multi-job plans: Q7 stacks a join on a repartition output,
    # SkewFunnel on a skew output (shape asserted in test_fault_matrix).
    "simple-mo": dict(mode="simple", strategy="SIMPLE_MO"),
    "dynopt-pilr-st": dict(pilot_mode="ST"),
    "dynopt-unc2": dict(strategy="UNC-2"),
    "dynopt-cheap2": dict(strategy="CHEAP-2"),
    # A finite trigger: re-optimize only when an estimate missed 2x.
    "dynopt-threshold2": dict(config=with_threshold(2.0)),
    "dynopt-hive": dict(config=DEFAULT_CONFIG.with_backend("hive")),
    # A quarter of the default Mmax: Q7 and Q10 plan hybrid joins whose
    # builds spill.
    "dynopt-tight-memory": dict(config=DEFAULT_CONFIG.with_memory(
        task_memory_bytes=24 * 1024)),
}


def interpreter_reference(tables, workload):
    """Evaluate all stages with the interpreter, like execute_multi does:
    each intermediate result registers as a new base table."""
    tables = dict(tables)
    rows = None
    for spec, output_name in workload.stages:
        pushed = QuerySpec(spec.name, push_down_filters(spec.root))
        rows = Interpreter(tables).run(pushed)
        if output_name is not None:
            tables[output_name] = Table(output_name, infer_schema(rows),
                                        rows)
    return rows


@pytest.fixture(scope="module")
def tables():
    """SF 0.1 (not the 0.05 session dataset): Q2's correlated aggregation
    subquery only survives with non-empty results at this scale."""
    return oracle_tables()


@pytest.fixture(scope="module")
def reference_cache():
    return {}


@pytest.mark.parametrize("label", ENGINE_PATHS)
@pytest.mark.parametrize("query", sorted(TPCH_WORKLOADS))
def test_engine_matches_interpreter(tables, reference_cache, query, label):
    if query not in reference_cache:
        reference_cache[query] = interpreter_reference(
            tables, TPCH_WORKLOADS[query]())
    _, execution = run_workload(tables, query, **ENGINE_PATHS[label])
    assert_same_rows(execution.rows, reference_cache[query])


@pytest.fixture(scope="module")
def skew_tables():
    return skewed_oracle_tables()


@pytest.fixture(scope="module")
def skew_reference_cache():
    return {}


@pytest.mark.parametrize("label", ENGINE_PATHS)
@pytest.mark.parametrize("query", sorted(SKEWED_WORKLOADS))
def test_skewed_engine_matches_interpreter(skew_tables,
                                           skew_reference_cache, query,
                                           label):
    """The hot-key workloads through every engine path vs the interpreter.

    The dynopt paths plan these with a skew join (asserted below), so
    this sweep differentially proves the whole SKEWJOIN pipeline --
    heavy-hitter stats, costing, split-routing compilation, and the
    map-side-output runtime.
    """
    from repro.optimizer.plans import summarize_plan

    if query not in skew_reference_cache:
        skew_reference_cache[query] = interpreter_reference(
            skew_tables, SKEWED_WORKLOADS[query]())
    path = ENGINE_PATHS[label]
    _, execution = run_workload(skew_tables, query, **path)
    assert_same_rows(execution.rows, skew_reference_cache[query])
    if path.get("mode", "dynopt") == "dynopt":
        # Pilot statistics expose the hot keys, so the dynamic optimizer
        # must pick the skew join.
        skew_joins = sum(summarize_plan(plan).skew_joins
                         for block in execution.block_results
                         for plan in block.plans)
        assert skew_joins >= 1, f"{label}: no skew join planned"


class TestMidjobReplanTrigger:
    """DynoConfig.reoptimization_qerror_threshold semantics."""

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            with_threshold(0.99)

    def test_unreachable_threshold_is_execution_identical(self,
                                                          skew_tables):
        """The two ends of the one knob. The floor (1.0: every estimate
        "misses") *is* the default run -- plans, iteration structure and
        rows exactly the paper's every-job policy. A finite-but-huge
        threshold exercises the audit arithmetic on every job yet never
        fires: one optimizer call, the same rows."""
        from tests.oracle import fingerprint

        baseline_dyno, baseline = run_workload(skew_tables, "SkewFunnel",
                                               "UNC-1")
        floor_dyno, floor = run_workload(skew_tables, "SkewFunnel", "UNC-1",
                                         config=with_threshold(1.0))
        for base_block, floor_block in zip(baseline.block_results,
                                           floor.block_results):
            assert ([it.plan_signature for it in floor_block.iterations]
                    == [it.plan_signature
                        for it in base_block.iterations])
            assert ([it.jobs_executed for it in floor_block.iterations]
                    == [it.jobs_executed for it in base_block.iterations])
        assert floor.total_seconds == baseline.total_seconds
        assert fingerprint(floor_dyno, floor) == \
            fingerprint(baseline_dyno, baseline)

        armed_dyno, armed = run_workload(skew_tables, "SkewFunnel", "UNC-1",
                                         config=with_threshold(1e12))
        for armed_block in armed.block_results:
            assert armed_block.midjob_replans == []
            assert len(armed_block.plans) == 1
            assert len(armed_block.iterations) > 1
        assert fingerprint(armed_dyno, armed)["rows"] == \
            fingerprint(baseline_dyno, baseline)["rows"]

    def test_trigger_fires_on_misestimates_and_results_match(
            self, skew_tables, skew_reference_cache):
        """At the floor threshold any estimation error fires the trigger
        mid-graph; the replanned execution must still match the
        interpreter row-for-row, and the trigger must be observable
        through the trace and metrics channels."""
        from repro.core.dyno import Dyno
        from repro.obs import MemorySink, MetricsRegistry, Tracer

        if "SkewFunnel" not in skew_reference_cache:
            skew_reference_cache["SkewFunnel"] = interpreter_reference(
                skew_tables, SKEWED_WORKLOADS["SkewFunnel"]())
        sink = MemorySink()
        metrics = MetricsRegistry()
        workload = SKEWED_WORKLOADS["SkewFunnel"]()
        dyno = Dyno(skew_tables,
                    config=with_threshold(1.0),
                    udfs=workload.udfs, tracer=Tracer(sink),
                    metrics=metrics)
        execution = dyno.execute(workload.final_spec, mode="dynopt",
                                 strategy="UNC-1", name="SkewFunnel")

        fired = [name for block in execution.block_results
                 for name in block.midjob_replans]
        assert fired, "floor threshold never fired mid-graph"
        events = [record for record in sink.records
                  if record["name"] == "midjob_replan"]
        assert [event["attrs"]["job"] for event in events] == fired
        assert all(event["attrs"]["q_error"] >= 1.0 for event in events)
        assert all(event["attrs"]["threshold"] == 1.0
                   for event in events)
        assert metrics.counter("dynopt.midjob_replans") == len(fired)
        assert_same_rows(execution.rows,
                         skew_reference_cache["SkewFunnel"])


def test_reference_is_nontrivial(tables):
    """Guard: the differential suite must compare real result sets.

    Q9' is known-empty at every test scale (its UDF predicate is that
    selective); matching empty-vs-empty is still a meaningful check, but
    every other workload must produce rows.
    """
    for query in sorted(set(TPCH_WORKLOADS) - {"Q9'"}):
        rows = interpreter_reference(tables, TPCH_WORKLOADS[query]())
        assert rows, f"{query} returned no rows at the test scale factor"
