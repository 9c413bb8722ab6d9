"""Join cost formulas (paper Section 5.2, plus the skew variant).

With ``|X|`` the estimated byte size of relation ``X``:

* repartition join:  ``C(R ./r S) = crep * (|R| + |S|) + cout * |R ./ S|``
* broadcast join:    ``C(R ./b S) = cprobe * |R| + cbuild * |S| + cout * |R ./ S|``
* chained broadcasts over probe ``R`` with builds ``S1..Sk``:
  ``cprobe * |R| + cbuild * (|S1|+..+|Sk|) + cout * |R ./ S1 ./ .. ./ Sk|``
  (the intermediate results of the chain are neither written nor re-read);
* skew join: see :meth:`JoinCostModel.skew_cost`.

The constants satisfy ``crep >> cprobe > cbuild > cout``, so broadcast
joins are preferred whenever the build side fits in memory and larger
builds fall back to the repartition join. Leaves cost nothing: reading
inputs is charged by the join consuming them, as in the paper's formulas.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import OptimizerConfig
from repro.errors import PlanError
from repro.optimizer.plans import (
    BROADCAST,
    SKEW,
    PhysJoin,
    PhysLeaf,
    PhysicalNode,
)


class JoinCostModel:
    """Evaluates the paper's cost formulas under an :class:`OptimizerConfig`."""

    def __init__(self, config: OptimizerConfig):
        self.config = config

    # -- per-operator costs (used during search, before chain marking) --------

    def repartition_cost(self, left_bytes: float, right_bytes: float,
                         out_bytes: float) -> float:
        cfg = self.config
        return (cfg.crep * (left_bytes + right_bytes)
                + cfg.cout * out_bytes + cfg.cjob)

    def broadcast_cost(self, probe_bytes: float, build_bytes: float,
                       out_bytes: float) -> float:
        cfg = self.config
        return (cfg.cprobe * probe_bytes + cfg.cbuild * build_bytes
                + cfg.cout * out_bytes + cfg.cjob)

    def skew_cost(self, probe_bytes: float, build_bytes: float,
                  out_bytes: float, heavy_probe_fraction: float,
                  heavy_build_fraction: float) -> float:
        """Skew join: heavy fractions pay broadcast rates, the tail
        repartitions, all within one job.

        Probe bytes carrying heavy keys are scanned and probed map-side
        (``cprobe``); the remaining tail of both sides shuffles at
        ``crep``; the heavy-key build table is filtered out of a full
        scan of the build side, so ``cbuild`` is charged on all of it.
        """
        cfg = self.config
        tail_probe = (1.0 - heavy_probe_fraction) * probe_bytes
        tail_build = (1.0 - heavy_build_fraction) * build_bytes
        return (cfg.crep * (tail_probe + tail_build)
                + cfg.cprobe * heavy_probe_fraction * probe_bytes
                + cfg.cbuild * build_bytes
                + cfg.cout * out_bytes + cfg.cjob)

    def fits_in_memory(self, build_bytes: float) -> bool:
        """Memory gate for the broadcast implementation rule."""
        budget = self.config.max_broadcast_bytes
        return build_bytes * self.config.broadcast_safety_factor <= budget

    # -- chain rule (Section 5.2, "new rule ... dictates which joins
    #    should be chained") ---------------------------------------------------

    def apply_chain_rule(self, plan: PhysicalNode) -> PhysicalNode:
        """Mark chainable broadcast joins and re-cost the whole plan.

        A broadcast join chains with the broadcast join producing its probe
        input when every build side of the resulting chain fits in memory
        simultaneously (budget ``Mmax``). Chained joins skip the write+read
        of the intermediate probe result.
        """
        marked, _ = self._mark(plan)
        recosted, _ = self._recost(marked)
        return recosted

    def _mark(self, node: PhysicalNode) -> tuple[PhysicalNode, float]:
        """Returns (marked node, bytes of builds in the current pipeline)."""
        if isinstance(node, PhysLeaf):
            return node, 0.0
        if not isinstance(node, PhysJoin):
            raise PlanError(f"unknown plan node {type(node).__name__}")
        if node.method != BROADCAST:
            left, _ = self._mark(node.left)
            right, _ = self._mark(node.right)
            return replace(node, left=left, right=right, chained=False), 0.0

        probe, chain_bytes = self._mark(node.left)
        build, _ = self._mark(node.right)
        budget = self.config.max_broadcast_bytes
        can_chain = (
            self.config.enable_chain_rule
            and isinstance(probe, PhysJoin)
            and probe.method == BROADCAST
            and chain_bytes + build.est_bytes <= budget
        )
        new_chain_bytes = (
            chain_bytes + build.est_bytes if can_chain else build.est_bytes
        )
        marked = replace(
            node, left=probe, right=build, chained=can_chain
        )
        return marked, new_chain_bytes

    def _recost(self, node: PhysicalNode) -> tuple[PhysicalNode, float]:
        """Returns (node with updated cumulative cost, its output bytes)."""
        cfg = self.config
        if isinstance(node, PhysLeaf):
            return replace(node, cost=0.0), node.est_bytes
        assert isinstance(node, PhysJoin)
        left, left_bytes = self._recost(node.left)
        right, right_bytes = self._recost(node.right)
        if node.method == BROADCAST:
            cost = (left.cost + right.cost
                    + cfg.cbuild * right_bytes
                    + cfg.cout * node.est_bytes)
            if node.chained:
                # The probe intermediate is neither materialized nor
                # re-read: remove its cout, and do not charge cprobe or a
                # new job again.
                cost -= cfg.cout * left_bytes
            else:
                cost += cfg.cprobe * left_bytes + cfg.cjob
        elif node.method == SKEW:
            cost = (left.cost + right.cost
                    + self.skew_cost(left_bytes, right_bytes,
                                     node.est_bytes,
                                     node.heavy_probe_fraction,
                                     node.heavy_build_fraction))
        else:
            cost = (left.cost + right.cost
                    + cfg.crep * (left_bytes + right_bytes)
                    + cfg.cout * node.est_bytes + cfg.cjob)
        return (
            replace(node, left=left, right=right, cost=cost),
            node.est_bytes,
        )
