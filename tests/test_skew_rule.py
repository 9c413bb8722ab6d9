"""The skew join's peel rule and its heavy-key slice.

A repartition join finishes when its slowest reducer does. With the
probe profile's keys in descending fraction ``f1 >= f2 >= ...`` and
``R`` the reducers the compiler gives the join, the skew join peels key
``k`` off the shuffle while ``f_k > (1 - (f1 + ... + f_k)) / R``; it is
generated only once some key reaches ``skew_key_fraction``.

The peeled keys' build rows are sliced out of the build file once, by a
map-only job submitted with the ``sjoin``, when that beats every
``sjoin`` map task loading the whole file (``ClusterCostModel.slice_pays``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import pytest

from repro.cluster.costmodel import ClusterCostModel, reducer_count
from repro.cluster.counters import Counters
from repro.cluster.faults import FaultPlan
from repro.cluster.runtime import ClusterRuntime
from repro.config import DEFAULT_CONFIG, ClusterConfig, OptimizerConfig
from repro.core.dyno import Dyno
from repro.jaql.blocks import SOURCE_TABLE, BlockLeaf
from repro.jaql.expr import JoinCondition, ref
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.plans import SKEW, PhysLeaf
from repro.optimizer.rules import JoinContext, join_candidates
from repro.validation import compare_rows, interpret
from repro.workloads.skewed import generate_skewed, skewed_join
from tests.oracle import run_workload, skewed_oracle_tables

#: SkewJoin's clicks.user_id profile (HEAVY_HITTER_K = 8 keys).
SKEWJOIN_PROFILE = (0.1745, 0.1713, 0.1404, 0.0569, 0.0372, 0.026,
                    0.0189, 0.0169)
#: clicks and users bytes of a join the compiler gives 48 reducers.
PROBE_BYTES, BUILD_BYTES = 1_200_000.0, 372_000.0


def leaf(alias: str, size: float) -> PhysLeaf:
    block_leaf = BlockLeaf(frozenset((alias,)), SOURCE_TABLE, alias)
    return PhysLeaf(aliases=frozenset((alias,)), est_rows=size / 64,
                    est_bytes=size, cost=0.0, leaf=block_leaf)


def skew_candidates(fractions, cluster: ClusterConfig = ClusterConfig()):
    """The skew candidates of clicks ./ users under ``fractions``."""
    probe, build = leaf("c", PROBE_BYTES), leaf("u", BUILD_BYTES)
    context = JoinContext(
        aliases=frozenset(("c", "u")), est_rows=20_000.0,
        est_bytes=PROBE_BYTES + BUILD_BYTES,
        conditions=(JoinCondition(ref("c", "user_id"),
                                  ref("u", "user_id")),),
        applied_predicates=(),
        probe_heavy=tuple(((key,), fraction)
                          for key, fraction in enumerate(fractions)),
        build_key_distinct=6000.0,
    )
    model = JoinCostModel(OptimizerConfig(), cluster)
    return [candidate for candidate in join_candidates(probe, build,
                                                       context, model)
            if candidate.method == SKEW]


def test_skewjoin_profile_peels_all_eight_keys_at_48_reducers():
    assert reducer_count(PROBE_BYTES + BUILD_BYTES, ClusterConfig()) == 48
    (candidate,) = skew_candidates(SKEWJOIN_PROFILE)
    assert candidate.heavy_keys == tuple((key,) for key in range(8))
    assert candidate.heavy_probe_fraction == sum(SKEWJOIN_PROFILE)


def test_the_fourth_key_stays_in_the_shuffle_at_6_reducers():
    # 0.1404 > (1 - 0.4862) / 6, but 0.0569 <= (1 - 0.5431) / 6: an
    # average reducer already carries more than the fourth key.
    cluster = ClusterConfig(worker_nodes=1, reduce_slots_per_node=6)
    (candidate,) = skew_candidates(SKEWJOIN_PROFILE, cluster)
    assert candidate.heavy_keys == ((0,), (1,), (2,))


def test_a_tight_budget_keeps_the_heaviest_keys_that_fit():
    # Each key's build slice is 372000 / 6000 = 62 bytes, x1.3 headroom:
    # three keys (241.8 bytes) fit a 300-byte budget, four do not.
    cluster = ClusterConfig(task_memory_bytes=300)
    (candidate,) = skew_candidates(SKEWJOIN_PROFILE, cluster)
    assert candidate.heavy_keys == ((0,), (1,), (2,))
    assert candidate.heavy_build_fraction == pytest.approx(3 / 6000)


def test_one_reducer_yields_no_skew_candidate():
    cluster = ClusterConfig(worker_nodes=1, reduce_slots_per_node=1)
    assert reducer_count(PROBE_BYTES + BUILD_BYTES, cluster) == 1
    assert skew_candidates(SKEWJOIN_PROFILE, cluster) == []


def test_uniform_profile_yields_no_skew_candidate():
    assert skew_candidates((1 / 6000,) * 8) == []


def test_no_candidate_unless_some_key_reaches_the_trigger():
    # Each key would straggle one of 48 reducers, but none reaches
    # skew_key_fraction (0.1), so sampling noise cannot plant a skew join.
    assert skew_candidates((0.09,) * 8) == []
    assert len(skew_candidates((0.1,) + (0.09,) * 7)) == 1


def test_executed_skew_join_has_no_straggling_reducer(monkeypatch):
    """SkewJoin's sjoin job: largest reduce task < 3x its median."""
    reduce_seconds: dict[str, list[float]] = {}
    original = ClusterRuntime._finalize_job

    def finalize(runtime, job, data):
        if job.name.rsplit(".", 1)[-1].startswith("sjoin"):
            reduce_seconds[job.name] = list(data.reduce_task_seconds)
        return original(runtime, job, data)

    monkeypatch.setattr(ClusterRuntime, "_finalize_job", finalize)
    workload = skewed_join()
    dyno = Dyno(generate_skewed(1.0), udfs=workload.udfs)
    dyno.execute(workload.final_spec, mode="dynopt", strategy="UNC-1",
                 name="SkewJoin")
    (tasks,) = reduce_seconds.values()
    assert max(tasks) < 3 * statistics.median(tasks)


# -- the heavy-key slice -------------------------------------------------

#: what a slice job costs on the default cluster: one job startup plus
#: one wave of full-block split reads.
SLICE_SECONDS = 15.0 + 0.5 + 16384 / 1024


def test_slice_pays_just_above_its_break_even_under_jaql():
    model = ClusterCostModel(ClusterConfig())
    # Jaql: every consumer task saves the dropped bytes at 4096 B/s, so
    # a one-wave consumer breaks even at 31.5 s x 4096 B/s of build.
    break_even = SLICE_SECONDS * 4096
    assert break_even == 129024
    assert not model.slice_pays(break_even - 1, 0, 97, "jaql")
    assert not model.slice_pays(break_even, 0, 97, "jaql")
    assert model.slice_pays(break_even + 1, 0, 97, "jaql")
    # The bytes the slice keeps are not saved.
    assert not model.slice_pays(break_even + 1, 2, 97, "jaql")
    # A second wave of consumer tasks saves the load twice.
    assert model.slice_pays(break_even / 2 + 1, 0, 141, "jaql")
    assert not model.slice_pays(break_even / 2 - 1, 0, 141, "jaql")


def test_slice_does_not_pay_under_hive_at_the_users_file_size():
    # Hive loads the build once per node (DistributedCache): 97 tasks on
    # 14 nodes share 404,928 bytes of loads, 14.3 s per task < 31.5 s.
    model = ClusterCostModel(ClusterConfig())
    assert model.slice_pays(404_928, 0, 97, "jaql")
    assert not model.slice_pays(404_928, 0, 97, "hive")
    break_even = SLICE_SECONDS * 4096 * 97 / 14
    assert not model.slice_pays(break_even - 1, 0, 97, "hive")
    assert model.slice_pays(break_even + 1, 0, 97, "hive")


@dataclass
class _RanJob:
    name: str
    inputs: list
    builds: list
    map_tasks: int
    broadcast_bytes: int
    map_input_bytes: int


def run_skewjoin(backend: str):
    """SkewJoin on ``generate_skewed(1.0)``: rows, the interpreter's
    rows, every job run, and the DFS size of every file a job read."""
    ran: list[_RanJob] = []
    sizes: dict[str, int] = {}
    original = ClusterRuntime._finalize_job

    def finalize(runtime, job, data):
        for name in job.inputs:
            sizes[name] = runtime.dfs.file_size(name)
        ran.append(_RanJob(
            job.name, list(job.inputs),
            [build.input_file for build in job.broadcast_builds],
            len(data.map_task_seconds),
            data.counters.get("map", Counters.BROADCAST_BYTES),
            data.counters.get("map", Counters.MAP_INPUT_BYTES)))
        return original(runtime, job, data)

    workload = skewed_join()
    tables = generate_skewed(1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterRuntime, "_finalize_job", finalize)
        dyno = Dyno(tables, config=DEFAULT_CONFIG.with_backend(backend),
                    udfs=workload.udfs)
        execution = dyno.execute(workload.final_spec, mode="dynopt",
                                 strategy="UNC-1", name="SkewJoin")
    expected = interpret(tables, workload.final_spec)
    return execution.rows, expected, ran, sizes


@pytest.fixture(scope="module")
def jaql_run():
    return run_skewjoin("jaql")


def test_sjoin_keeps_its_name_and_the_slice_is_named_after_it(jaql_run):
    _, _, ran, _ = jaql_run
    names = [job.name for job in ran]
    assert "SkewJoin.it0.sjoin1" in names
    assert [name for name in names if name.endswith(".slice")] == \
        ["SkewJoin.it0.sjoin1.slice"]


def test_sjoin_tasks_load_the_slice_not_the_build_file(jaql_run):
    _, _, ran, sizes = jaql_run
    (sjoin,) = [job for job in ran if job.name == "SkewJoin.it0.sjoin1"]
    (slice_job,) = [job for job in ran if job.name.endswith(".slice")]
    (build_file,) = slice_job.inputs
    assert sjoin.builds == [f"{slice_job.name}.out"]
    # BROADCAST_BYTES is what one task loads: the slice, which fits the
    # task's memory; the build file (about 400 KB) would not.
    assert sizes[build_file] > DEFAULT_CONFIG.cluster.task_memory_bytes
    assert 0 < sjoin.broadcast_bytes \
        <= DEFAULT_CONFIG.cluster.task_memory_bytes
    # One job scans the build file for its heavy keys, each split once;
    # no job loads it whole as a build.
    assert slice_job.map_input_bytes == sizes[build_file]
    assert not any(build_file in job.builds for job in ran)


def test_sliced_skew_join_rows_equal_the_interpreters(jaql_run):
    rows, expected, _, _ = jaql_run
    report = compare_rows(rows, expected)
    assert report.matches, report.describe()


def test_no_slice_job_under_hive():
    rows, expected, ran, _ = run_skewjoin("hive")
    names = [job.name for job in ran]
    assert "SkewJoin.it0.sjoin1" in names
    assert not any(name.endswith(".slice") for name in names)
    assert compare_rows(rows, expected).matches


def test_a_lost_slice_is_recovered_from_its_provenance():
    """A node loss eats both the sjoin's output and its slice; re-running
    the sjoin for the next job first re-runs the slice it loads."""
    plan = FaultPlan(seed=1, name="lose-both", node_loss_rate=1.0,
                     max_node_losses=2)
    tables = skewed_oracle_tables()
    _, clean = run_workload(tables, "SkewFunnel", "SIMPLE_SO",
                            mode="simple")
    _, lossy = run_workload(tables, "SkewFunnel", "SIMPLE_SO",
                            mode="simple",
                            config=DEFAULT_CONFIG.with_fault_plan(plan))
    (block,) = lossy.block_results
    assert block.lost_outputs == ["SkewFunnel.s0.sjoin1.out",
                                  "SkewFunnel.s0.sjoin1.slice.out"]
    assert block.recovered_jobs == ["SkewFunnel.s0.sjoin1.slice",
                                    "SkewFunnel.s0.sjoin1"]
    assert lossy.rows == clean.rows
