"""The skew join's peel rule: every key that would straggle a reducer.

A repartition join finishes when its slowest reducer does. With the
probe profile's keys in descending fraction ``f1 >= f2 >= ...`` and
``R`` the reducers the compiler gives the join, the skew join peels key
``k`` off the shuffle while ``f_k > (1 - (f1 + ... + f_k)) / R``; it is
generated only once some key reaches ``skew_key_fraction``.
"""

from __future__ import annotations

import statistics

import pytest

from repro.cluster.costmodel import reducer_count
from repro.cluster.runtime import ClusterRuntime
from repro.config import ClusterConfig, OptimizerConfig
from repro.core.dyno import Dyno
from repro.jaql.blocks import SOURCE_TABLE, BlockLeaf
from repro.jaql.expr import JoinCondition, ref
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.plans import SKEW, PhysLeaf
from repro.optimizer.rules import JoinContext, join_candidates
from repro.workloads.skewed import generate_skewed, skewed_join

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
