"""Join cost formulas (paper Section 5.2, plus the skew variant).

With ``|X|`` the estimated byte size of relation ``X``:

* repartition join:  ``C(R ./r S) = crep * (|R| + |S|) + cout * |R ./ S|``
* broadcast join:    ``C(R ./b S) = cprobe * |R| + cbuild * |S| + cout * |R ./ S|``
* chained broadcasts over probe ``R`` with builds ``S1..Sk``:
  ``cprobe * |R| + cbuild * (|S1|+..+|Sk|) + cout * |R ./ S1 ./ .. ./ Sk|``
  (the intermediate results of the chain are neither written nor re-read);
* skew join: see :meth:`JoinCostModel.join_cost`.

The constants satisfy ``crep >> cprobe > cbuild > cout``, so broadcast
joins are preferred whenever the build side fits in memory and larger
builds fall back to the repartition join. Leaves cost nothing: reading
inputs is charged by the join consuming them, as in the paper's formulas.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import ClusterConfig, OptimizerConfig
from repro.errors import PlanError
from repro.optimizer.plans import (
    BROADCAST,
    SKEW,
    PhysJoin,
    PhysLeaf,
    PhysicalNode,
    pipeline_build_bytes,
)


class JoinCostModel:
    """Evaluates the paper's cost formulas under an :class:`OptimizerConfig`.

    ``cluster`` is the cluster the plan will run on: its
    ``task_memory_bytes`` is the broadcast and chain rules' budget
    ``Mmax``, and the skew rule asks it how many reducers a join's
    shuffle is spread over.
    """

    def __init__(self, config: OptimizerConfig, cluster: ClusterConfig):
        self.config = config
        self.cluster = cluster

    def join_cost(self, method: str, left: PhysicalNode,
                  right: PhysicalNode, out_bytes: float,
                  chained: bool = False, heavy_probe_fraction: float = 0.0,
                  heavy_build_fraction: float = 0.0) -> float:
        """Cumulative cost of joining probe ``left`` with build ``right``.

        The children's costs plus this join's own. A chained broadcast
        neither materializes its probe input (its ``cout`` is taken back)
        nor re-reads it or starts a job. The skew join pays broadcast
        rates on the heavy-key fraction of the probe and repartitions the
        tail of both sides in one job; its heavy-key build table is
        filtered out of a full scan of the build, so ``cbuild`` is charged
        on all of it. Where it pays, the compiler runs that scan once, in
        a map-only slice job, instead of in every map task; the formula
        prices the scan either way, so plans do not depend on it.
        """
        cfg = self.config
        # The grouping below is the association the search has always
        # summed in; exact cost ties, hence plan choices, depend on it.
        children = left.cost + right.cost
        probe, build = left.est_bytes, right.est_bytes
        if method == BROADCAST:
            cost = children + cfg.cbuild * build + cfg.cout * out_bytes
            if chained:
                return cost - cfg.cout * probe
            return cost + (cfg.cprobe * probe + cfg.cjob)
        if method == SKEW:
            tail_probe = (1.0 - heavy_probe_fraction) * probe
            tail_build = (1.0 - heavy_build_fraction) * build
            return children + (cfg.crep * (tail_probe + tail_build)
                               + cfg.cprobe * heavy_probe_fraction * probe
                               + cfg.cbuild * build
                               + cfg.cout * out_bytes + cfg.cjob)
        return children + (cfg.crep * (probe + build)
                           + cfg.cout * out_bytes + cfg.cjob)

    def fits_in_memory(self, build_bytes: float) -> bool:
        """Memory gate for the broadcast and skew candidates."""
        budget = self.cluster.task_memory_bytes
        return build_bytes * self.config.broadcast_safety_factor <= budget

    # -- chain rule (Section 5.2, "new rule ... dictates which joins
    #    should be chained") ---------------------------------------------------

    def chains(self, probe: PhysicalNode, build_bytes: float) -> bool:
        """True when a broadcast join over ``probe`` joins its map pipeline.

        A broadcast join chains with the broadcast join producing its
        probe input when every build side of the resulting chain fits in
        memory simultaneously (budget ``Mmax``).
        """
        return (
            self.config.enable_chain_rule
            and isinstance(probe, PhysJoin)
            and probe.method == BROADCAST
            and (pipeline_build_bytes(probe) + build_bytes
                 <= self.cluster.task_memory_bytes)
        )

    def apply_chain_rule(self, plan: PhysicalNode) -> PhysicalNode:
        """Mark chainable broadcast joins and re-cost the plan bottom-up.

        The search marks and costs its candidates as it builds them; this
        is for plans built by hand (the static baselines).
        """
        if isinstance(plan, PhysLeaf):
            return plan
        if not isinstance(plan, PhysJoin):
            raise PlanError(f"unknown plan node {type(plan).__name__}")
        left = self.apply_chain_rule(plan.left)
        right = self.apply_chain_rule(plan.right)
        chained = (plan.method == BROADCAST
                   and self.chains(left, right.est_bytes))
        cost = self.join_cost(plan.method, left, right, plan.est_bytes,
                              chained, plan.heavy_probe_fraction,
                              plan.heavy_build_fraction)
        return replace(plan, left=left, right=right, chained=chained,
                       cost=cost)
