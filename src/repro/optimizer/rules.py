"""Implementation rules: logical join -> physical operator.

The paper deactivated Columbia's stock physical joins (hash/merge) and
added two new ones matching Jaql's runtime: the repartition join and the
broadcast join (Section 5.2). We mirror that: each rule turns a logical
join (two optimized child plans) into a physical candidate, or declines.

The broadcast rule is gated on the *estimated* build size fitting the
memory budget ``Mmax`` -- when the estimate is wrong (e.g. RELOPT
underestimating a correlated predicate), the chosen plan can fail at
runtime with :class:`~repro.errors.BroadcastBuildOverflowError`, which is
the disaster scenario pilot runs exist to avoid (Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.jaql.expr import JoinCondition, Predicate
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.plans import (
    BROADCAST,
    REPARTITION,
    SKEW,
    PhysJoin,
    PhysicalNode,
    pipeline_build_bytes,
)


@dataclass(frozen=True)
class JoinContext:
    """Everything a rule needs about the join being implemented."""

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


class ImplementationRule:
    """Base class: produce a physical join candidate or None."""

    name = "abstract"

    def apply(self, left: PhysicalNode, right: PhysicalNode,
              context: JoinContext,
              cost_model: JoinCostModel) -> PhysJoin | None:
        raise NotImplementedError


class RepartitionJoinRule(ImplementationRule):
    """Always applicable: shuffle both inputs in one map+reduce job."""

    name = "join->repartition"

    def apply(self, left: PhysicalNode, right: PhysicalNode,
              context: JoinContext,
              cost_model: JoinCostModel) -> PhysJoin | None:
        cost = (left.cost + right.cost
                + cost_model.repartition_cost(
                    left.est_bytes, right.est_bytes, context.est_bytes))
        return PhysJoin(
            aliases=context.aliases,
            est_rows=context.est_rows,
            est_bytes=context.est_bytes,
            cost=cost,
            method=REPARTITION,
            left=left,
            right=right,
            conditions=context.conditions,
            applied_predicates=context.applied_predicates,
        )


class BroadcastJoinRule(ImplementationRule):
    """Applicable when the (estimated) build side fits in task memory.

    Incorporates the paper's chain rule *during* search (Section 5.2: "we
    added a new rule to our optimizer ... which joins should be chained"):
    when the probe input's best plan is itself a broadcast join and the
    combined pipeline builds fit in ``Mmax``, the join is marked chained
    and skips both the probe's materialization (``cout``) and its re-scan
    (``cprobe``) -- so single-job chains can win against cascades of
    map-only jobs.
    """

    name = "join->broadcast"

    def apply(self, left: PhysicalNode, right: PhysicalNode,
              context: JoinContext,
              cost_model: JoinCostModel) -> PhysJoin | None:
        if not cost_model.fits_in_memory(right.est_bytes):
            return None
        config = cost_model.config
        chained = (
            config.enable_chain_rule
            and isinstance(left, PhysJoin)
            and left.method == BROADCAST
            and (pipeline_build_bytes(left) + right.est_bytes
                 <= config.max_broadcast_bytes)
        )
        cost = (left.cost + right.cost
                + config.cbuild * right.est_bytes
                + config.cout * context.est_bytes)
        if chained:
            cost -= config.cout * left.est_bytes
        else:
            cost += config.cprobe * left.est_bytes + config.cjob
        return PhysJoin(
            aliases=context.aliases,
            est_rows=context.est_rows,
            est_bytes=context.est_bytes,
            cost=cost,
            method=BROADCAST,
            left=left,
            right=right,
            conditions=context.conditions,
            applied_predicates=context.applied_predicates,
            chained=chained,
        )


class SkewJoinRule(ImplementationRule):
    """Skew-aware join for probe sides dominated by a few hot keys.

    Heavy-hitter keys (detected from the pilot frequency profile, see
    :meth:`repro.optimizer.cardinality.CardinalityModel.heavy_hitters`)
    are routed through a broadcast side channel: map tasks hash-load only
    the build rows of those keys and join heavy probe rows in place,
    bypassing the shuffle, while the long tail of both sides repartitions
    normally -- one map+reduce job. Applicable when per-key and total
    heavy fractions clear the configured thresholds and the heavy-key
    slice of the build fits in task memory. Where a plain broadcast join
    applies it always costs less (it skips the tail shuffle too), so this
    rule only ever wins for builds too big to broadcast --
    exactly the hot-key repartition joins it exists to fix.
    """

    name = "join->skew"

    def apply(self, left: PhysicalNode, right: PhysicalNode,
              context: JoinContext,
              cost_model: JoinCostModel) -> PhysJoin | None:
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
        cost = (left.cost + right.cost
                + cost_model.skew_cost(
                    left.est_bytes, right.est_bytes, context.est_bytes,
                    probe_fraction, build_fraction))
        return PhysJoin(
            aliases=context.aliases,
            est_rows=context.est_rows,
            est_bytes=context.est_bytes,
            cost=cost,
            method=SKEW,
            left=left,
            right=right,
            conditions=context.conditions,
            applied_predicates=context.applied_predicates,
            heavy_keys=tuple(key for key, _ in heavy),
            heavy_probe_fraction=probe_fraction,
            heavy_build_fraction=build_fraction,
        )


def default_rules() -> tuple[ImplementationRule, ...]:
    """The rule set: the paper's two joins plus the skew variant.

    The broadcast rule comes first so that exact cost ties (e.g. joins
    over empty estimated inputs) resolve to the map-only operator, which
    is never slower in practice; the skew rule produces an extra
    candidate only when the probe side's frequency profile clears its
    thresholds.
    """
    return (BroadcastJoinRule(), SkewJoinRule(), RepartitionJoinRule())
