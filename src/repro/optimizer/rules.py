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
    #: in join-condition order -- left is the probe, right the build.
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
    cascades of map-only jobs, Section 5.2); skew when the probe's heavy
    hitters clear the thresholds (:func:`_heavy_split`); repartition
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
    split = _heavy_split(right, context, cost_model)
    if split is not None:
        heavy_keys, probe_fraction, build_fraction = split
        yield candidate(SKEW, heavy_keys,
                        heavy_probe_fraction=probe_fraction,
                        heavy_build_fraction=build_fraction)
    yield candidate(REPARTITION)


def _heavy_split(right: PhysicalNode, context: JoinContext,
                 cost_model: JoinCostModel) -> tuple | None:
    """The skew join's ``(heavy keys, probe fraction, build fraction)``.

    Heavy-hitter keys (from the pilot frequency profile, see
    :meth:`repro.optimizer.cardinality.CardinalityModel.heavy_hitters`)
    are joined map-side against a broadcast build of just their rows,
    bypassing the shuffle, while the tail of both sides repartitions --
    one map+reduce job. None unless the per-key and total heavy fractions
    clear the configured thresholds and the heavy-key slice of the build
    fits in task memory. Where a plain broadcast applies it is always
    cheaper, so the skew join only wins for builds too big to broadcast.
    """
    config = cost_model.config
    if not config.enable_skew_rule or not context.probe_heavy:
        return None
    heavy = [(key, fraction) for key, fraction in context.probe_heavy
             if fraction >= config.skew_key_fraction]
    heavy = heavy[:config.skew_max_keys]
    if not heavy:
        return None
    probe_fraction = min(1.0, sum(fraction for _, fraction in heavy))
    if probe_fraction < config.skew_min_probe_fraction:
        return None
    build_fractions = dict(context.build_heavy)
    distinct = max(context.build_key_distinct, 1.0)
    build_fraction = min(1.0, sum(
        build_fractions.get(key, 1.0 / distinct) for key, _ in heavy
    ))
    if not cost_model.fits_in_memory(build_fraction * right.est_bytes):
        return None
    return tuple(key for key, _ in heavy), probe_fraction, build_fraction
