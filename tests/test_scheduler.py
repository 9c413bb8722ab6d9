"""Slot scheduler: waves, FIFO sharing, dependencies, makespan bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scheduler import ScheduledJob, SlotScheduler
from repro.errors import JobError


def schedule(jobs, map_slots=4, reduce_slots=2):
    return SlotScheduler(map_slots, reduce_slots).schedule(jobs)


class TestSingleJob:
    def test_map_only_single_wave(self):
        result = schedule([
            ScheduledJob("j", [10.0] * 4, startup_seconds=5.0)
        ])
        assert result.makespan == pytest.approx(15.0)

    def test_map_only_two_waves(self):
        result = schedule([
            ScheduledJob("j", [10.0] * 8, startup_seconds=5.0)
        ])
        assert result.makespan == pytest.approx(25.0)

    def test_reduce_starts_after_all_maps(self):
        result = schedule([
            ScheduledJob("j", [10.0, 20.0], [7.0], startup_seconds=0.0)
        ])
        # maps finish at 20, reduce runs 7 -> 27
        assert result.makespan == pytest.approx(27.0)
        timeline = result.timelines["j"]
        assert timeline.map_finish_time == pytest.approx(20.0)
        assert timeline.finish_time == pytest.approx(27.0)

    def test_job_with_no_tasks_finishes_at_startup(self):
        result = schedule([ScheduledJob("j", [], startup_seconds=3.0)])
        assert result.makespan == pytest.approx(3.0)

    def test_elapsed_includes_startup(self):
        result = schedule([
            ScheduledJob("j", [1.0], startup_seconds=15.0)
        ])
        assert result.timelines["j"].elapsed == pytest.approx(16.0)


class TestBatch:
    def test_parallel_jobs_share_slots(self):
        # Two jobs of 4 tasks each on 4 slots: FIFO means job a's wave runs
        # first, then job b's.
        result = schedule([
            ScheduledJob("a", [10.0] * 4),
            ScheduledJob("b", [10.0] * 4),
        ])
        assert result.makespan == pytest.approx(20.0)
        assert result.timelines["a"].finish_time <= \
            result.timelines["b"].finish_time

    def test_independent_jobs_overlap(self):
        result = schedule([
            ScheduledJob("a", [10.0] * 2),
            ScheduledJob("b", [10.0] * 2),
        ])
        # 4 tasks over 4 slots: one wave.
        assert result.makespan == pytest.approx(10.0)

    def test_dependency_serializes(self):
        result = schedule([
            ScheduledJob("a", [10.0]),
            ScheduledJob("b", [10.0], depends_on=["a"]),
        ])
        assert result.makespan == pytest.approx(20.0)
        assert (result.timelines["b"].ready_time
                == result.timelines["a"].finish_time)

    def test_dependent_startup_after_dependency(self):
        result = schedule([
            ScheduledJob("a", [10.0], startup_seconds=5.0),
            ScheduledJob("b", [10.0], startup_seconds=5.0,
                         depends_on=["a"]),
        ])
        assert result.makespan == pytest.approx(30.0)

    def test_unknown_dependency_rejected(self):
        with pytest.raises(JobError):
            schedule([ScheduledJob("a", [1.0], depends_on=["ghost"])])

    def test_cycle_rejected(self):
        with pytest.raises(JobError):
            schedule([
                ScheduledJob("a", [1.0], depends_on=["b"]),
                ScheduledJob("b", [1.0], depends_on=["a"]),
            ])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(JobError):
            schedule([ScheduledJob("a", [1.0]), ScheduledJob("a", [1.0])])

    def test_empty_batch(self):
        assert schedule([]).makespan == 0.0

    def test_bad_slot_counts_rejected(self):
        with pytest.raises(JobError):
            SlotScheduler(0, 1)

    def test_reduce_slots_limit_parallelism(self):
        result = schedule(
            [ScheduledJob("j", [1.0], [10.0] * 4)],
            map_slots=4, reduce_slots=2,
        )
        # 4 reduces over 2 slots: two waves of 10s after 1s of map.
        assert result.makespan == pytest.approx(21.0)


@st.composite
def job_batches(draw):
    count = draw(st.integers(1, 5))
    jobs = []
    for index in range(count):
        maps = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6))
        reduces = draw(st.lists(st.floats(0.1, 10.0), max_size=3))
        deps = []
        if index and draw(st.booleans()):
            deps = [f"j{draw(st.integers(0, index - 1))}"]
        jobs.append(ScheduledJob(f"j{index}", maps, reduces,
                                 startup_seconds=draw(st.floats(0, 5)),
                                 depends_on=deps))
    return jobs


class TestMakespanProperties:
    @given(job_batches(), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, jobs, map_slots, reduce_slots):
        result = SlotScheduler(map_slots, reduce_slots).schedule(jobs)
        total_work = sum(
            sum(job.map_durations) + sum(job.reduce_durations)
            + job.startup_seconds
            for job in jobs
        )
        # Serial upper bound: everything back to back.
        assert result.makespan <= total_work + 1e-6
        # Lower bound: the longest single job's critical path.
        for job in jobs:
            critical = (job.startup_seconds
                        + (max(job.map_durations) if job.map_durations else 0)
                        + (max(job.reduce_durations)
                           if job.reduce_durations else 0))
            assert result.timelines[job.job_id].finish_time >= critical - 1e-6

    @given(job_batches())
    @settings(max_examples=40, deadline=None)
    def test_more_slots_never_slower(self, jobs):
        small = SlotScheduler(2, 2).schedule(jobs).makespan
        large = SlotScheduler(16, 16).schedule(jobs).makespan
        assert large <= small + 1e-6

    @given(job_batches())
    @settings(max_examples=40, deadline=None)
    def test_dependencies_respected(self, jobs):
        result = SlotScheduler(4, 4).schedule(jobs)
        for job in jobs:
            for dep in job.depends_on:
                assert (result.timelines[job.job_id].ready_time
                        >= result.timelines[dep].finish_time - 1e-6)


class TestReduceOnlyJobs:
    """Regression: a job with reduces but no maps used to raise JobError
    (the job_start branch returned before enqueueing its reduce tasks, so
    the event loop drained with the job unfinished)."""

    def test_reduce_only_job_completes(self):
        result = schedule([ScheduledJob("j", [], [5.0])])
        assert result.makespan == pytest.approx(5.0)
        timeline = result.timelines["j"]
        assert timeline.map_finish_time == pytest.approx(0.0)
        assert timeline.finish_time == pytest.approx(5.0)

    def test_reduce_only_with_startup(self):
        result = schedule([
            ScheduledJob("j", [], [5.0, 7.0], startup_seconds=3.0)
        ])
        # Maps vacuously finish at startup; reduces run 3 -> 10.
        assert result.makespan == pytest.approx(10.0)

    def test_reduce_only_respects_reduce_slots(self):
        result = schedule([ScheduledJob("j", [], [4.0] * 4)],
                          reduce_slots=2)
        # 4 reduces over 2 slots: two waves.
        assert result.makespan == pytest.approx(8.0)

    def test_dependency_on_reduce_only_job(self):
        result = schedule([
            ScheduledJob("a", [], [6.0]),
            ScheduledJob("b", [2.0], depends_on=["a"]),
        ])
        assert result.makespan == pytest.approx(8.0)
        assert (result.timelines["b"].ready_time
                == result.timelines["a"].finish_time)

    def test_reduce_only_jobs_drain_in_submission_order(self):
        jobs = [
            ScheduledJob("a", [], [5.0] * 2),
            ScheduledJob("b", [], [5.0] * 2),
        ]
        result = SlotScheduler(4, 2).schedule(jobs)
        # a's two reduces take both slots first; b runs in the next wave.
        assert result.timelines["a"].finish_time == pytest.approx(5.0)
        assert result.makespan == pytest.approx(10.0)


class TestSpeculativeEdgeCases:
    def test_reduce_only_with_speculation(self):
        # median 1, cap 3*1+1 = 4: the 30s straggler is capped at 4.
        result = SlotScheduler(4, 4, speculative=True).schedule([
            ScheduledJob("j", [], [1.0, 1.0, 30.0])
        ])
        assert result.makespan == pytest.approx(4.0)

    def test_map_only_with_speculation(self):
        result = SlotScheduler(4, 4, speculative=True).schedule([
            ScheduledJob("j", [1.0, 1.0, 30.0])
        ])
        assert result.makespan == pytest.approx(4.0)

    def test_single_task_below_speculation_minimum(self):
        # Fewer than 3 tasks: no median, nothing speculated.
        result = SlotScheduler(4, 4, speculative=True).schedule([
            ScheduledJob("j", [30.0])
        ])
        assert result.makespan == pytest.approx(30.0)

    def test_empty_durations_with_speculation(self):
        result = SlotScheduler(4, 4, speculative=True).schedule([
            ScheduledJob("j", [], [], startup_seconds=3.0)
        ])
        assert result.makespan == pytest.approx(3.0)

    def test_zero_median_durations_not_speculated(self):
        result = SlotScheduler(4, 4, speculative=True).schedule([
            ScheduledJob("j", [0.0, 0.0, 9.0])
        ])
        assert result.makespan == pytest.approx(9.0)

    def test_speculative_reduce_only_batch(self):
        result = SlotScheduler(4, 2, speculative=True).schedule([
            ScheduledJob("a", [], [1.0, 1.0, 30.0]),
            ScheduledJob("b", [], [2.0]),
        ])
        assert result.timelines["a"].finish_time <= 30.0
        assert result.timelines["b"].finish_time >= 2.0
