"""Implementation rules: logical join -> physical join candidates.

The paper deactivated Columbia's stock physical joins (hash/merge) and
added two new ones matching Jaql's runtime: the repartition join and the
broadcast join (Section 5.2). We mirror that with one candidate
generator, :func:`join_candidates`, which turns a logical join (two
optimized child plans) into every applicable physical join, the skew
variant included.

The broadcast candidate is gated on the *estimated* build size fitting
the memory budget ``Mmax`` -- when the estimate is wrong (e.g. RELOPT
underestimating a correlated predicate), the chosen plan can fail at
runtime with :class:`~repro.errors.BroadcastBuildOverflowError`, which is
the disaster scenario pilot runs exist to avoid (Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cluster.costmodel import reducer_count
from repro.jaql.expr import JoinCondition, Predicate
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.plans import (
    BROADCAST,
    REPARTITION,
    SKEW,
    PhysJoin,
    PhysicalNode,
)


@dataclass(frozen=True)
class JoinContext:
    """Everything the candidates need about the join being implemented."""

    aliases: frozenset[str]
    est_rows: float
    est_bytes: float
    conditions: tuple[JoinCondition, ...]
    applied_predicates: tuple[Predicate, ...]
    #: heavy-hitter join keys per side, ``((key tuple, fraction), ...)``
    #: most frequent first, keys in join-condition order -- left is the
    #: probe, right the build.
    probe_heavy: tuple = ()
    build_heavy: tuple = ()
    #: distinct values of the build side's join key (for estimating the
    #: build share of heavy keys not in the build's own heavy list).
    build_key_distinct: float = 1.0


def join_candidates(left: PhysicalNode, right: PhysicalNode,
                    context: JoinContext,
                    cost_model: JoinCostModel) -> Iterator[PhysJoin]:
    """Every physical join of probe ``left`` and build ``right``, costed.

    Broadcast when the build fits in task memory, chained when the probe
    is a broadcast whose pipeline builds still fit (the paper's chain
    rule, applied *during* search so single-job chains can win against
    cascades of map-only jobs, Section 5.2); skew when some probe key
    would straggle a reducer (:func:`_heavy_split`); repartition
    always. The search keeps the first strictly cheapest candidate, so
    this order breaks exact cost ties (e.g. over empty estimated inputs)
    towards the map-only operator, which is never slower in practice.
    """

    def candidate(method: str, heavy_keys: tuple = (),
                  **costing) -> PhysJoin:
        cost = cost_model.join_cost(method, left, right, context.est_bytes,
                                    **costing)
        return PhysJoin(
            aliases=context.aliases, est_rows=context.est_rows,
            est_bytes=context.est_bytes, cost=cost, method=method,
            left=left, right=right, conditions=context.conditions,
            applied_predicates=context.applied_predicates,
            heavy_keys=heavy_keys, **costing)

    if cost_model.fits_in_memory(right.est_bytes):
        yield candidate(BROADCAST,
                        chained=cost_model.chains(left, right.est_bytes))
    split = _heavy_split(left, right, context, cost_model)
    if split is not None:
        heavy_keys, probe_fraction, build_fraction = split
        yield candidate(SKEW, heavy_keys,
                        heavy_probe_fraction=probe_fraction,
                        heavy_build_fraction=build_fraction)
    yield candidate(REPARTITION)


def _heavy_split(left: PhysicalNode, right: PhysicalNode,
                 context: JoinContext,
                 cost_model: JoinCostModel) -> tuple | None:
    """The skew join's ``(heavy keys, probe fraction, build fraction)``.

    Heavy-hitter keys (from the pilot frequency profile, see
    :meth:`repro.optimizer.cardinality.CardinalityModel.heavy_hitters`)
    are joined map-side against a broadcast build of just their rows,
    bypassing the shuffle, while the tail of both sides repartitions --
    one map+reduce job, which finishes when its slowest reducer does.

    With the probe keys in their profile's order, ``f1 >= f2 >= ...``, and
    ``R`` the reducers the compiler gives the join (:func:`reducer_count`
    of both sides' estimated bytes), key ``k`` is peeled while
    ``f_k > (1 - (f1 + ... + f_k)) / R``: it alone would carry more probe
    rows than an average reducer's share of what still shuffles, and
    while the peeled keys' build slice fits in task memory (so a tight
    budget keeps the heaviest keys resident rather than none). None
    unless some key reaches ``skew_key_fraction`` (a guard against
    sampling noise) and at least one key is peeled. Where a plain
    broadcast applies it is always cheaper, so the skew join only wins
    for builds too big to broadcast.
    """
    config = cost_model.config
    if not config.enable_skew_rule or not any(
            fraction >= config.skew_key_fraction
            for _, fraction in context.probe_heavy):
        return None
    reducers = reducer_count(left.est_bytes + right.est_bytes,
                             cost_model.cluster)
    build_fractions = dict(context.build_heavy)
    distinct = max(context.build_key_distinct, 1.0)
    heavy = []
    probe_fraction = build_fraction = 0.0
    shuffled = 1.0
    for key, fraction in context.probe_heavy:
        shuffled -= fraction
        key_build = build_fractions.get(key, 1.0 / distinct)
        if fraction <= shuffled / reducers or not cost_model.fits_in_memory(
                min(1.0, build_fraction + key_build) * right.est_bytes):
            break
        heavy.append(key)
        probe_fraction += fraction
        build_fraction += key_build
    if not heavy:
        return None
    return tuple(heavy), min(1.0, probe_fraction), min(1.0, build_fraction)
