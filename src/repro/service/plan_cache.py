"""Cross-query plan cache keyed by (join-block signature, statistics
fingerprint).

DYNOPT re-optimizes a block every iteration, so a recurring query pays the
optimizer once per executed step *every time it runs*. But the optimizer is
a pure function of (block shape, leaf statistics): when both recur, the
plan recurs -- the per-plan reuse argument of "One Join Order Does Not Fit
All" applied to the serving layer. The cache therefore keys on:

* the **canonical block key** -- the block's leaves, join conditions, and
  non-local predicates, rendered *name-independently*: base leaves appear
  as their statistics signature (Section 4.1), intermediate leaves as their
  alias set. Per-query DFS file names (``q003.Q3.it0.j1.out``) never enter
  the key, so iteration-k blocks of repeated queries hit;
* the **statistics fingerprint** -- a stable hash of every contributing
  leaf's :class:`TableStats`. A later statistics collection that changes
  any contributing entry changes the fingerprint, so stale plans miss.

Entries are additionally invalidated eagerly when the metastore reports an
updated base-leaf entry (see :meth:`PlanCache.on_stats_update`), keeping
the cache from accumulating unreachable fingerprints.

Cached plans embed the original query's :class:`PhysLeaf` nodes, whose
intermediate leaves carry that query's DFS file names; :meth:`lookup`
therefore *remaps* the plan onto the current block's leaves (matched by
alias set) before returning it.

Correctness note: results in this system are plan-invariant (the
differential oracle of earlier PRs), so a cache collision could at worst
execute a suboptimal plan -- never return wrong rows.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.jaql.blocks import BlockLeaf, JoinBlock
from repro.optimizer.plans import PhysicalNode, PhysJoin, PhysLeaf
from repro.service.lru import LRU
from repro.stats.statistics import TableStats


@dataclass
class CachedOptimization:
    """What a cache hit hands back to the DYNOPT loop.

    Mirrors the fields of
    :class:`repro.optimizer.search.OptimizationResult` the executor reads;
    ``simulated_seconds`` is zero because a hit skips the optimizer
    entirely -- that is the point of the cache.
    """

    plan: PhysicalNode
    cost: float
    groups_explored: int = 0
    plans_considered: int = 0
    simulated_seconds: float = 0.0


__all__ = [
    "CachedOptimization",
    "PlanCache",
    "canonical_block_key",
    "statistics_fingerprint",
]


def leaf_identity(leaf: BlockLeaf) -> str:
    """Name-independent relation identity of one leaf.

    A pilot-substituted intermediate *is* the base leaf it materialized
    (same rows, same statistics), so it keys under that leaf's signature;
    cold runs (pilots substituted) and warm runs (pilots skipped, base
    leaves intact) of one query then share cache entries. Join-result
    intermediates have no cross-query identity beyond their alias set.
    """
    if leaf.is_base:
        return leaf.signature()
    return leaf.provenance or "intermediate"


def canonical_block_key(block: JoinBlock) -> str:
    """Name-independent identity of a join block's remaining work.

    The plan cache and the result cache key on it. Per-query DFS file
    names never enter the key, so repeated queries -- and iteration-k
    blocks of repeated queries -- share one identity.
    """
    leaf_parts = []
    for leaf in sorted(block.leaves, key=lambda l: tuple(sorted(l.aliases))):
        aliases = "+".join(sorted(leaf.aliases))
        leaf_parts.append(f"{aliases}={leaf_identity(leaf)}")
    conditions = sorted(c.describe() for c in block.conditions)
    predicates = sorted(p.signature() for p in block.non_local_predicates)
    return (
        "leaves[" + ";".join(leaf_parts) + "]"
        "|conds[" + ";".join(conditions) + "]"
        "|preds[" + ";".join(predicates) + "]"
    )


def statistics_fingerprint(block: JoinBlock,
                           leaf_stats: dict[str, TableStats]) -> str | None:
    """Stable hash over the contributing leaves' statistics.

    Returns None when a contributing leaf's statistics are missing -- the
    caller must treat that as a cache miss, not a crash (an invalidation
    or a caller bug may leave a leaf unstated; degrading keeps the query
    alive).
    """
    payload = {}
    for leaf in block.leaves:
        signature = leaf.signature()
        identity = leaf_identity(leaf)
        if identity == "intermediate":
            identity = "intermediate:" + "+".join(sorted(leaf.aliases))
        stats = leaf_stats.get(signature)
        if stats is None:
            return None
        payload[identity] = stats.to_dict()
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: ``hits_by_block`` keeps this many recent block names (see PlanCache).
MAX_BLOCK_STATS = 512


class PlanCache:
    """(block key, statistics fingerprint) -> plan store.

    Entries live in a :class:`~repro.service.lru.LRU` (LRU eviction and
    invalidation are documented there); what is the plan cache's own is
    the key derivation, the remap of a cached plan onto the probing
    block's leaves, and per-query hit attribution.

    ``hits_by_block`` is LRU-capped at ``MAX_BLOCK_STATS`` entries --
    block names are per-query prefixed in the service, so an unbounded
    map is a slow memory leak; the cap keeps the recent (in-flight)
    queries readable, which is all the service's per-query attribution
    needs.
    """

    def __init__(self, max_entries: int = 256) -> None:
        #: (block key, fingerprint) -> (plan, cost).
        self._lru: LRU[tuple[PhysicalNode, float]] = LRU(max_entries)
        #: per-block-name hit counts; block names are query-prefixed in the
        #: service, so this attributes hits to queries (recent ones only --
        #: see the class docstring for the bound).
        self.hits_by_block: OrderedDict[str, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._lru)

    # -- lookup / store -------------------------------------------------------

    def lookup(self, block: JoinBlock, leaf_stats: dict[str, TableStats],
               ) -> CachedOptimization | None:
        block_key = canonical_block_key(block)
        # A missing leaf's fingerprint is None; no entry is ever stored
        # under it, so the probe below counts the miss.
        fingerprint = statistics_fingerprint(block, leaf_stats)
        entry = self._lru.get((block_key, fingerprint))
        if entry is None:
            return None
        self.hits_by_block[block.name] = \
            self.hits_by_block.get(block.name, 0) + 1
        self.hits_by_block.move_to_end(block.name)
        while len(self.hits_by_block) > MAX_BLOCK_STATS:
            self.hits_by_block.popitem(last=False)
        plan, cost = entry
        return CachedOptimization(plan=_remap_plan(plan, block), cost=cost)

    def store(self, block: JoinBlock, leaf_stats: dict[str, TableStats],
              plan: PhysicalNode, cost: float) -> None:
        fingerprint = statistics_fingerprint(block, leaf_stats)
        if fingerprint is None:
            return
        block_key = canonical_block_key(block)
        # Base-leaf statistics signatures this plan's estimates came
        # from; an update to any of them evicts the entry.
        contributing = frozenset(
            identity for identity in map(leaf_identity, block.leaves)
            if identity.startswith("table:")
        )
        self._lru.put((block_key, fingerprint), (plan, cost), contributing)

    def on_stats_update(self, signature: str,
                        stats: TableStats | None) -> None:
        """Metastore listener (see :meth:`LRU.invalidate`)."""
        self._lru.invalidate(signature, stats)

    def hits_for_prefix(self, prefix: str) -> int:
        """Total hits attributed to block names starting with ``prefix``."""
        return sum(count for block, count in self.hits_by_block.items()
                   if block.startswith(prefix))

    def summary(self) -> dict[str, int]:
        return self._lru.summary()


def _remap_plan(plan: PhysicalNode, block: JoinBlock) -> PhysicalNode:
    """Rebind a cached plan's leaves onto the current block's leaf objects.

    Matched by alias set; base leaves are interchangeable by construction
    (same signature), intermediate leaves differ only in their per-query
    DFS file name.
    """
    by_aliases = {leaf.aliases: leaf for leaf in block.leaves}
    return _remap_node(plan, by_aliases)


def _remap_node(node: PhysicalNode, by_aliases) -> PhysicalNode:
    if isinstance(node, PhysLeaf):
        current = by_aliases[node.aliases]
        if current == node.leaf:
            return node
        return replace(node, leaf=current)
    if isinstance(node, PhysJoin):
        left = _remap_node(node.left, by_aliases)
        right = _remap_node(node.right, by_aliases)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)
    return node
