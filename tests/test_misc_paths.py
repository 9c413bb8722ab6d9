"""Smaller behaviours not covered elsewhere."""

import pytest

from repro.errors import PlanError


class TestJobGraphLookups:
    def test_job_named(self, dyno_factory):
        from repro.core.baselines import oracle_leaf_stats
        from repro.jaql.compiler import PlanCompiler
        from repro.optimizer.search import JoinOptimizer
        from repro.workloads.queries import q10

        workload = q10()
        dyno = dyno_factory(udfs=workload.udfs)
        extracted = dyno.prepare(workload.final_spec)
        stats = oracle_leaf_stats(dyno.tables, extracted.block)
        plan = JoinOptimizer(extracted.block, stats, dyno.config.optimizer,
                             dyno.config.cluster).optimize().plan
        graph = PlanCompiler(dyno.dfs, dyno.config, "misc").compile_block(
            plan
        )
        first = graph.jobs[0]
        assert graph.job_named(first.name) is first
        with pytest.raises(PlanError):
            graph.job_named("ghost")


class TestStageErrors:
    def test_group_after_client_stage_rejected(self, dyno_factory):
        """A GroupBy stage cannot follow a client-side stage."""
        from repro.jaql.expr import (
            Aggregate,
            GroupBy,
            OrderBy,
            Project,
            QuerySpec,
            Scan,
            ref,
        )

        dyno = dyno_factory()
        tree = Project(
            GroupBy(
                OrderBy(Scan("nation", "n"), (ref("n", "n_name"),)),
                (ref("n", "n_regionkey"),),
                (Aggregate("count", None, "c"),),
            ),
            ((ref("n", "n_regionkey"), "rk"),),
        )
        with pytest.raises(PlanError):
            dyno.execute(QuerySpec("bad", tree))


class TestInterpreterErrors:
    def test_unknown_expression_type(self):
        from repro.jaql.expr import Expr
        from repro.jaql.interpreter import Interpreter

        class Mystery(Expr):
            def children(self):
                return ()

        with pytest.raises(PlanError):
            Interpreter({}).evaluate(Mystery())


class TestWorkloadAccessors:
    def test_final_spec_is_last_stage(self):
        from repro.workloads.queries import q2

        workload = q2()
        assert workload.final_spec is workload.stages[-1][0]


class TestSchedulerDetermination:
    def test_same_batch_same_result(self):
        from repro.cluster.scheduler import ScheduledJob, SlotScheduler

        jobs = [
            ScheduledJob("a", [3.0, 2.0], [1.0], startup_seconds=1.0),
            ScheduledJob("b", [4.0], depends_on=["a"]),
            ScheduledJob("c", [2.0, 2.0, 2.0]),
        ]
        first = SlotScheduler(2, 2).schedule(jobs)
        second = SlotScheduler(2, 2).schedule(jobs)
        assert first.makespan == second.makespan
        for job_id in ("a", "b", "c"):
            assert (first.timelines[job_id].finish_time
                    == second.timelines[job_id].finish_time)


class TestEstimateMissed:
    def test_threshold_boundary(self, dyno_factory):
        """The one re-optimization predicate: an estimate misses when
        ``max(q_error(rows), q_error(bytes))`` *reaches* the threshold."""
        from repro.jaql.compiler import CompiledJob

        executor = dyno_factory().executor

        class _Job:
            name = "x"

        compiled = CompiledJob(
            job=_Job(), depends_on=[], output_aliases=frozenset(("a",)),
            applied_predicates=(), join_count=1, estimated_cost=0.0,
            estimated_rows=100.0, estimated_bytes=1000.0,
        )

        class _Result:
            def __init__(self, rows, size=1000):
                self.output_rows = rows
                self.output_bytes = size

        def missed_by(result, threshold=1.5):
            return executor._audit_estimate(compiled, result, 0, threshold)

        assert missed_by(_Result(149)) is None
        assert missed_by(_Result(150)) == 1.5  # reaching it counts
        assert missed_by(_Result(67)) is None  # symmetric: 100/67 < 1.5
        assert missed_by(_Result(66)) == pytest.approx(100 / 66)
        # Bytes alone can miss; the worse of the two is reported.
        assert missed_by(_Result(100, size=400)) == 2.5
        # A perfect estimate still "misses" the every-job floor ...
        assert missed_by(_Result(100), threshold=1.0) == 1.0
        # ... and nothing reaches the never-re-optimize ceiling.
        assert missed_by(_Result(10 ** 9), threshold=float("inf")) is None
