"""Top-down branch-and-bound join enumeration (the Columbia-style search).

``JoinOptimizer`` optimizes one join block: it explores the memo top-down,
costs every physical candidate of every logical join of every group
(:func:`~repro.optimizer.rules.join_candidates`, which also applies the
broadcast-chain rule of Section 5.2), and memoizes per-group winners.

The search space covers all bushy, cartesian-free join orders. Costing uses
the paper's formulas over the byte-size estimates of the cardinality model.
A candidate is abandoned as soon as its partial cost reaches the group's
best-so-far (Columbia's bounding, safe because costs are non-negative and
monotone in the children).

The optimizer's own latency is *simulated* with an exponential model in the
number of leaves, calibrated to the paper's Section 6.2 observations: the
initial 8-relation optimization of Q8' accounts for about 7% of its
runtime while 4-6 relation blocks stay under 0.25%, and subsequent calls
(on partially executed, hence smaller, blocks) are much cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ClusterConfig, OptimizerConfig
from repro.errors import OptimizerError
from repro.jaql.blocks import JoinBlock
from repro.optimizer.cardinality import CardinalityModel
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.memo import (
    GroupKey,
    LogicalJoin,
    LogicalLeaf,
    Memo,
    Winner,
)
from repro.optimizer.plans import (
    HASH_BUILD_METHODS,
    PhysJoin,
    PhysLeaf,
    PhysicalNode,
)
from repro.optimizer.rules import JoinContext, join_candidates
from repro.stats.statistics import TableStats, composite_name

#: Simulated optimizer latency: seconds = BASE * GROWTH ** leaves.
OPTIMIZER_SECONDS_BASE = 0.002
OPTIMIZER_SECONDS_GROWTH = 3.0


def simulated_optimizer_seconds(leaf_count: int) -> float:
    return OPTIMIZER_SECONDS_BASE * OPTIMIZER_SECONDS_GROWTH ** leaf_count


@dataclass
class OptimizationResult:
    """Best plan plus search diagnostics."""

    plan: PhysicalNode
    cost: float
    groups_explored: int
    plans_considered: int
    simulated_seconds: float

    @property
    def signature(self) -> str:
        from repro.optimizer.plans import plan_signature

        return plan_signature(self.plan)


class JoinOptimizer:
    """Cost-based join enumeration for one join block."""

    def __init__(self, block: JoinBlock,
                 leaf_stats: dict[str, TableStats],
                 config: OptimizerConfig,
                 cluster: ClusterConfig,
                 banned_broadcast: frozenset[frozenset[str]] = frozenset()):
        self.block = block
        self.config = config
        self.graph = JoinGraph.build(block)
        self.graph.validate()
        self.cardinality = CardinalityModel(block, leaf_stats)
        self.cost_model = JoinCostModel(config, cluster)
        self.memo = Memo(self.graph)
        #: alias sets whose broadcast join failed permanently at runtime;
        #: the dynamic executor replans with those candidates excluded so
        #: the search falls back to repartition (recovery, Section 1).
        self.banned_broadcast = banned_broadcast
        self._plans_considered = 0
        #: join-key columns that could clear the skew gate; contexts
        #: probing any other key skip all heavy-hitter work.
        self._skew_columns = (
            self.cardinality.heavy_columns(config.skew_key_fraction)
            if config.enable_skew_rule else frozenset()
        )

    # -- public -------------------------------------------------------------------

    def optimize(self) -> OptimizationResult:
        root_key: GroupKey = frozenset(range(self.graph.size))
        winner = self._optimize_group(root_key)
        return OptimizationResult(
            plan=winner.plan,
            cost=winner.cost,
            groups_explored=self.memo.group_count,
            plans_considered=self._plans_considered,
            simulated_seconds=simulated_optimizer_seconds(len(
                self.block.leaves
            )),
        )

    # -- search -------------------------------------------------------------------

    def _optimize_group(self, key: GroupKey) -> Winner:
        group = self.memo.explore(key)
        if group.winner is not None:
            return group.winner

        best: Winner | None = None
        for expression in group.expressions:
            if isinstance(expression, LogicalLeaf):
                candidate = self._leaf_plan(expression.index)
                self._plans_considered += 1
                if best is None or candidate.cost < best.cost:
                    best = Winner(candidate.cost, candidate)
                continue

            assert isinstance(expression, LogicalJoin)
            left = self._optimize_group(expression.left)
            if best is not None and left.cost >= best.cost:
                continue
            right = self._optimize_group(expression.right)
            if best is not None and left.cost + right.cost >= best.cost:
                continue
            context = self._join_context(expression)
            for candidate in join_candidates(left.plan, right.plan, context,
                                             self.cost_model):
                if self._broadcast_banned(candidate):
                    continue
                self._plans_considered += 1
                if best is None or candidate.cost < best.cost:
                    best = Winner(candidate.cost, candidate)

        if best is None:
            raise OptimizerError(
                f"no physical plan for group {sorted(key)}"
            )
        group.winner = best
        return best

    def _broadcast_banned(self, candidate: PhysicalNode) -> bool:
        """True when this hash-build join failed permanently at runtime.

        Subset semantics: banning ``{o, l}`` also rejects a broadcast of
        any *smaller* alias set of that failed join -- replanned jobs get
        different alias groupings and must not resurrect the dead build.
        The ban covers the skew join too: a build that already overflowed
        pathologically (or was doomed by a fault) must fall back to the
        repartition join, not to another hash build.
        """
        if not self.banned_broadcast:
            return False
        if not isinstance(candidate, PhysJoin) \
                or candidate.method not in HASH_BUILD_METHODS:
            return False
        return any(candidate.aliases <= banned
                   for banned in self.banned_broadcast)

    # -- plan pieces ---------------------------------------------------------------

    def _leaf_plan(self, index: int) -> PhysicalNode:
        leaf = self.graph.leaf(index)
        stats = self.cardinality.leaf_stats(leaf)
        return PhysLeaf(
            aliases=leaf.aliases,
            est_rows=max(stats.row_count, 0.0),
            est_bytes=max(stats.size_bytes, 0.0),
            cost=0.0,
            leaf=leaf,
        )

    def _join_context(self, expression: LogicalJoin) -> JoinContext:
        left_aliases = self.graph.aliases_of(expression.left)
        right_aliases = self.graph.aliases_of(expression.right)
        combined = left_aliases | right_aliases
        estimate = self.cardinality.estimate(combined)
        conditions = self.block.conditions_between(left_aliases,
                                                   right_aliases)
        applied = tuple(
            predicate for predicate in self.block.non_local_predicates
            if predicate.references() <= combined
            and not predicate.references() <= left_aliases
            and not predicate.references() <= right_aliases
        )
        probe_heavy: tuple = ()
        build_heavy: tuple = ()
        build_key_distinct = 1.0
        if conditions and self._skew_columns:
            probe_refs = [condition.side_for(left_aliases)
                          for condition in conditions]
            if len(probe_refs) == 1:
                probe_hot = probe_refs[0].qualified in self._skew_columns
            else:  # composite keys profile under their composite name
                probe_hot = composite_name(
                    ref.qualified for ref in probe_refs
                ) in self._skew_columns
            if probe_hot:
                probe_heavy = self.cardinality.heavy_hitters(probe_refs)
            if probe_heavy:
                build_refs = [condition.side_for(right_aliases)
                              for condition in conditions]
                build_heavy = self.cardinality.heavy_hitters(build_refs)
                build_key_distinct = self.cardinality.key_distinct_values(
                    build_refs
                )
        return JoinContext(
            aliases=combined,
            est_rows=estimate.rows,
            est_bytes=estimate.bytes,
            conditions=conditions,
            applied_predicates=applied,
            probe_heavy=probe_heavy,
            build_heavy=build_heavy,
            build_key_distinct=build_key_distinct,
        )
