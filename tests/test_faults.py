"""Unit tests for the fault-injection subsystem (cluster.faults).

The differential oracle (tests/test_fault_matrix.py) proves faults are
result-invisible end to end; these tests pin down the building blocks:
plan validation and serialization, the derived RNG, injector budgets,
task-attempt inflation, and the runtime's boundary retry loop.
"""

import pytest

from repro.cluster.faults import (
    FaultPlan,
    JOB_BOUNDARIES,
    derived_rng,
)
from repro.cluster.job import MapReduceJob
from repro.config import ClusterConfig, DynoConfig
from repro.errors import (
    FaultPlanError,
    JobFaultInjectedError,
    TaskRetriesExhaustedError,
)

from tests.test_runtime import (
    SCHEMA,
    identity_mapper,
    make_runtime,
    small_config,
)


class _JobStub:
    """Minimal job-shaped object for injector unit tests."""

    def __init__(self, name, broadcast=False):
        self.name = name
        self.is_broadcast_join = broadcast


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultPlanError, match="task_failure_rate"):
            FaultPlan(seed=1, task_failure_rate=1.5)
        with pytest.raises(FaultPlanError, match="node_loss_rate"):
            FaultPlan(seed=1, node_loss_rate=-0.1)

    def test_straggler_factor_must_slow_down(self):
        with pytest.raises(FaultPlanError, match="straggler_factor"):
            FaultPlan(seed=1, straggler_factor=0.5)

    def test_budgets_must_be_non_negative(self):
        with pytest.raises(FaultPlanError, match="budgets"):
            FaultPlan(seed=1, max_node_losses=-1)

    def test_unknown_boundary_rejected(self):
        with pytest.raises(FaultPlanError, match="commit"):
            FaultPlan(seed=1, job_failure_boundaries=("map", "commit"))

    def test_injects_anything(self):
        assert not FaultPlan(seed=1).injects_anything
        assert FaultPlan(seed=1, straggler_rate=0.1).injects_anything


class TestFaultPlanSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=7, name="rt", task_failure_rate=0.2,
                         job_failure_rate=0.1,
                         job_failure_boundaries=("map", "finalize"),
                         straggler_rate=0.05, node_loss_rate=0.3,
                         max_node_losses=5, broadcast_failure_rate=0.4)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_boundaries_survive_as_tuple(self):
        plan = FaultPlan.from_dict(
            {"seed": 3, "job_failure_boundaries": ["reduce"]})
        assert plan.job_failure_boundaries == ("reduce",)

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"seed": 1, "task_failure_rte": 0.1})

    def test_seed_required(self):
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan.from_dict({"task_failure_rate": 0.1})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")


class TestDerivedRng:
    def test_same_label_same_stream(self):
        a = [derived_rng(42, "chan", "job", 1).random() for _ in range(5)]
        b = [derived_rng(42, "chan", "job", 1).random() for _ in range(5)]
        assert a == b

    def test_distinct_labels_distinct_streams(self):
        draws = {
            derived_rng(42, "chan", "job", incarnation).random()
            for incarnation in range(10)
        }
        assert len(draws) == 10

    def test_seed_matters(self):
        assert derived_rng(1, "x").random() != derived_rng(2, "x").random()


class TestInjectorBudgets:
    def test_incarnations_count_up(self):
        injector = FaultPlan(seed=1, task_failure_rate=0.1).arm()
        job = _JobStub("j")
        assert injector.begin_attempt(job).incarnation == 1
        assert injector.begin_attempt(job).incarnation == 2
        assert injector.begin_attempt(_JobStub("other")).incarnation == 1

    def test_job_failure_budget(self):
        injector = FaultPlan(seed=1, job_failure_rate=1.0,
                             max_job_failures=2).arm()
        assert injector.consume_job_failure("j")
        assert injector.consume_job_failure("j")
        assert not injector.consume_job_failure("j")
        assert injector.consume_job_failure("other")  # per-job budget

    def test_node_loss_considered_once(self):
        injector = FaultPlan(seed=1, node_loss_rate=1.0,
                             max_node_losses=10).arm()
        assert injector.lose_outputs(["a", "b"]) == ["a", "b"]
        # Re-materialized outputs are never re-lost: recovery converges.
        assert injector.lose_outputs(["a", "b"]) == []

    def test_node_loss_budget(self):
        injector = FaultPlan(seed=1, node_loss_rate=1.0,
                             max_node_losses=1).arm()
        assert len(injector.lose_outputs(["a", "b", "c"])) == 1

    def test_node_loss_inactive_at_zero_rate(self):
        injector = FaultPlan(seed=1, task_failure_rate=0.5).arm()
        assert injector.lose_outputs(["a"]) == []

    def test_penalties_accumulate_and_drain(self):
        injector = FaultPlan(seed=1, job_failure_rate=0.5).arm()
        injector.add_penalty("j", 4.0)
        injector.add_penalty("j", 8.0)
        assert injector.consume_penalty("j") == 12.0
        assert injector.consume_penalty("j") == 0.0


class TestJobAttempt:
    def test_task_inflater_exhausts_budget(self):
        injector = FaultPlan(seed=1, task_failure_rate=1.0).arm()
        attempt = injector.begin_attempt(_JobStub("j"))
        inflate = attempt.task_inflater(max_attempts=3,
                                        task_startup_seconds=1.0)
        with pytest.raises(TaskRetriesExhaustedError) as excinfo:
            inflate(10.0)
        assert excinfo.value.attempts == 3
        assert any("task-retries-exhausted" in event
                   for event in injector.events)

    def test_task_inflater_charges_retries(self):
        # Find a seed whose first task fails at least once but not enough
        # to exhaust a generous budget; the retry re-pays task + startup.
        injector = FaultPlan(seed=1, task_failure_rate=0.5).arm()
        attempt = injector.begin_attempt(_JobStub("j"))
        inflate = attempt.task_inflater(max_attempts=64,
                                        task_startup_seconds=1.0)
        durations = [inflate(10.0) for _ in range(50)]
        assert injector.task_retries > 0
        assert all(total >= 10.0 for total in durations)
        assert any(total > 10.0 for total in durations)
        # every inflated value is base + k * (base + startup)
        assert all((total - 10.0) % 11.0 == 0.0 for total in durations)

    def test_straggler_multiplies_duration(self):
        injector = FaultPlan(seed=1, straggler_rate=1.0,
                             straggler_factor=8.0).arm()
        attempt = injector.begin_attempt(_JobStub("j"))
        inflate = attempt.task_inflater(max_attempts=4,
                                        task_startup_seconds=1.0)
        assert inflate(10.0) == 80.0
        assert injector.stragglers == 1

    def test_boundary_kill_respects_boundary_list(self):
        plan = FaultPlan(seed=1, job_failure_rate=1.0,
                         job_failure_boundaries=("finalize",))
        injector = plan.arm()
        attempt = injector.begin_attempt(_JobStub("j"))
        attempt.boundary("map")
        attempt.boundary("reduce")
        with pytest.raises(JobFaultInjectedError) as excinfo:
            attempt.boundary("finalize")
        assert excinfo.value.boundary == "finalize"

    def test_doomed_broadcast_fails_every_attempt(self):
        plan = FaultPlan(seed=1, broadcast_failure_rate=1.0)
        injector = plan.arm()
        job = _JobStub("bjoin", broadcast=True)
        for _ in range(3):  # permanent: no incarnation escapes
            attempt = injector.begin_attempt(job)
            assert attempt.doomed
            with pytest.raises(TaskRetriesExhaustedError) as excinfo:
                attempt.boundary("map")
            assert "broadcast" in excinfo.value.detail
            # No budget was exhausted -- the task fails whatever it is --
            # so the message must not count "all 0 attempt(s)".
            assert "failed on every attempt" in str(excinfo.value)
            assert "attempt(s)" not in str(excinfo.value)

    def test_repartition_jobs_never_doomed(self):
        plan = FaultPlan(seed=1, broadcast_failure_rate=1.0)
        attempt = plan.arm().begin_attempt(_JobStub("rjoin"))
        assert not attempt.doomed
        attempt.boundary("map")  # does not raise


def _faulted_runtime(plan, rows=100, **cluster_overrides):
    cluster = ClusterConfig(block_size_bytes=256, task_memory_bytes=4096,
                            **cluster_overrides)
    config = DynoConfig(cluster=cluster).with_fault_plan(plan)
    return make_runtime(rows, config=config)


class TestRuntimeIntegration:
    def test_no_plan_leaves_injector_unarmed(self):
        assert make_runtime().fault_injector is None

    def test_inert_plan_leaves_injector_unarmed(self):
        runtime = _faulted_runtime(FaultPlan(seed=1))
        assert runtime.fault_injector is None

    def test_transient_job_fault_retried_with_backoff(self):
        plan = FaultPlan(seed=5, job_failure_rate=1.0, max_job_failures=1)
        runtime = _faulted_runtime(plan)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        result = runtime.execute(job)
        assert result.output_rows == 100  # the retry completed the job
        snap = runtime.fault_injector.snapshot()
        assert len(snap["events"]) == 1
        assert snap["job_failures"] == {"j": 1}
        # the backoff penalty was charged as extra startup time
        baseline = make_runtime().execute(
            MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA))
        backoff = runtime._retry_backoff_seconds(1)
        assert result.elapsed_seconds == pytest.approx(
            baseline.elapsed_seconds + backoff)

    def test_job_fault_reraised_after_max_attempts(self):
        plan = FaultPlan(seed=5, job_failure_rate=1.0,
                         max_job_failures=100)
        runtime = _faulted_runtime(plan, max_job_attempts=3)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        with pytest.raises(JobFaultInjectedError):
            runtime.execute(job)
        assert runtime.fault_injector.snapshot()["job_failures"] == {"j": 3}

    def test_backoff_is_capped_exponential(self):
        runtime = _faulted_runtime(
            FaultPlan(seed=1, job_failure_rate=0.5),
            job_retry_backoff_seconds=4.0,
            job_retry_backoff_cap_seconds=64.0)
        backoffs = [runtime._retry_backoff_seconds(n) for n in range(1, 8)]
        assert backoffs == [4.0, 8.0, 16.0, 32.0, 64.0, 64.0, 64.0]

    def test_suspended_faults_suppresses_injection(self):
        plan = FaultPlan(seed=5, job_failure_rate=1.0,
                         straggler_rate=1.0, task_failure_rate=0.3)
        runtime = _faulted_runtime(plan)
        job = MapReduceJob("j", ["input"], identity_mapper, "out", SCHEMA)
        with runtime.suspended_faults():
            result = runtime.execute(job)
        assert result.output_rows == 100
        snap = runtime.fault_injector.snapshot()
        assert snap["events"] == []
        assert snap["stragglers"] == 0
        assert snap["task_retries"] == 0

    def test_suspension_is_reentrant(self):
        runtime = _faulted_runtime(FaultPlan(seed=5, straggler_rate=1.0))
        with runtime.suspended_faults():
            with runtime.suspended_faults():
                assert runtime._active_injector() is None
            assert runtime._active_injector() is None
        assert runtime._active_injector() is not None


class TestConfigPlumbing:
    def test_with_fault_plan_requires_a_plan(self):
        with pytest.raises(ValueError, match="must be a FaultPlan"):
            small_config().with_fault_plan({"seed": 1})

    def test_boundaries_constant_matches_plan_default(self):
        assert FaultPlan(seed=1).job_failure_boundaries == JOB_BOUNDARIES
