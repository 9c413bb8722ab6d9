"""Physical plan nodes and the paper-style plan printer.

Physical operators are Jaql's two join methods (Section 2.2.1) plus the
skew variant this repro adds:

* ``PhysJoin(method="repartition")`` -- one map+reduce job that shuffles
  both inputs on the join key (the paper's ``./r``);
* ``PhysJoin(method="broadcast")`` -- a map-only hash join whose build side
  is loaded into every task (``./b``); consecutive broadcast joins may be
  *chained* into one job when their build sides fit in memory together;
* ``PhysJoin(method="skew")`` -- the skew-aware hybrid of repartition and
  broadcast (``./s``): heavy-hitter join keys detected from pilot
  frequency profiles are joined map-side against a heavy-keys-only
  broadcast build (bypassing the shuffle entirely), while the long tail
  repartitions as usual -- all within one map+reduce job.

``render_plan`` prints trees in the style of the paper's Figures 2 and 3,
and ``plan_signature`` gives a stable text identity used to detect plan
changes across re-optimization points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.jaql.blocks import BlockLeaf
from repro.jaql.expr import JoinCondition, Predicate

REPARTITION = "repartition"
BROADCAST = "broadcast"
SKEW = "skew"

#: join methods whose build side is hash-loaded by map tasks (and which a
#: permanent build failure therefore bans together). SKEW belongs here:
#: its heavy-key side channel is a broadcast build, so a doomed/overflowed
#: build bans it alongside broadcast and recovery falls back to a
#: pure repartition plan.
HASH_BUILD_METHODS = (BROADCAST, SKEW)

_SYMBOLS = {REPARTITION: "./r", BROADCAST: "./b", SKEW: "./s"}


@dataclass(frozen=True)
class PhysicalNode:
    """Common physical-plan node state."""

    aliases: frozenset[str]
    est_rows: float
    est_bytes: float
    #: cumulative estimated cost of the subtree (chain-rule adjusted).
    cost: float

    def children(self) -> tuple["PhysicalNode", ...]:
        return ()

    @property
    def is_leaf(self) -> bool:
        return not self.children()

    def join_count(self) -> int:
        return sum(child.join_count() for child in self.children())

    def leaves(self) -> tuple["PhysLeaf", ...]:
        collected: list[PhysLeaf] = []
        for child in self.children():
            collected.extend(child.leaves())
        return tuple(collected)


@dataclass(frozen=True)
class PhysLeaf(PhysicalNode):
    """A block leaf: base scan (+ local predicates) or intermediate file."""

    leaf: BlockLeaf = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.leaf is None:
            raise PlanError("PhysLeaf requires its block leaf")
        if self.leaf.aliases != self.aliases:
            raise PlanError("PhysLeaf aliases do not match its block leaf")

    def leaves(self) -> tuple["PhysLeaf", ...]:
        return (self,)

    def label(self) -> str:
        return "+".join(sorted(self.aliases))


@dataclass(frozen=True)
class PhysJoin(PhysicalNode):
    """A join; for broadcast joins ``left`` is the probe, ``right`` the build."""

    method: str = REPARTITION
    left: PhysicalNode = None  # type: ignore[assignment]
    right: PhysicalNode = None  # type: ignore[assignment]
    conditions: tuple[JoinCondition, ...] = ()
    #: non-local predicates evaluated right after this join.
    applied_predicates: tuple[Predicate, ...] = ()
    #: True when this broadcast join runs in the same map-only job as the
    #: broadcast join producing its probe input (Section 5.2, chain rule).
    chained: bool = False
    #: SKEW only: the heavy join-key values (one tuple per key, in join
    #: condition order) routed through the broadcast side channel; frozen
    #: into the plan at optimization time from the pilot frequency profile.
    heavy_keys: tuple = ()
    #: SKEW only: estimated fraction of probe/build *bytes* carried by the
    #: heavy keys (drives costing and the build's declared memory demand).
    heavy_probe_fraction: float = 0.0
    heavy_build_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in _SYMBOLS:
            raise PlanError(f"unknown join method: {self.method!r}")
        if self.left is None or self.right is None:
            raise PlanError("join requires two inputs")
        if not self.conditions:
            raise PlanError("physical join requires join conditions")
        if self.chained and self.method != BROADCAST:
            raise PlanError("only broadcast joins can be chained")
        if self.method == SKEW and not self.heavy_keys:
            raise PlanError("skew join requires heavy keys")
        if self.heavy_keys and self.method != SKEW:
            raise PlanError("only skew joins carry heavy keys")
        expected = self.left.aliases | self.right.aliases
        if expected != self.aliases:
            raise PlanError("join aliases do not match its inputs")

    def children(self) -> tuple[PhysicalNode, ...]:
        return (self.left, self.right)

    def join_count(self) -> int:
        return 1 + self.left.join_count() + self.right.join_count()

    @property
    def probe(self) -> PhysicalNode:
        return self.left

    @property
    def build(self) -> PhysicalNode:
        return self.right

    def symbol(self) -> str:
        return _SYMBOLS[self.method]


def pipeline_build_bytes(node: PhysicalNode) -> float:
    """Estimated bytes of all build sides in the node's map pipeline.

    A broadcast join's pipeline holds its own build plus -- when chained --
    the builds of the probe-side pipeline it extends. Leaves, repartition
    joins and unchained probes start fresh pipelines.
    """
    if isinstance(node, PhysJoin) and node.method == BROADCAST:
        own = node.right.est_bytes
        if node.chained:
            return own + pipeline_build_bytes(node.left)
        return own
    return 0.0


# ---------------------------------------------------------------------------
# Rendering (Figure 2/3 style)
# ---------------------------------------------------------------------------


def render_plan(node: PhysicalNode, indent: int = 0,
                show_estimates: bool = False) -> str:
    """Multi-line, indentation-based rendering of a physical plan."""
    pad = "  " * indent
    if isinstance(node, PhysLeaf):
        # Delta-scan leaves (incremental refresh plans read `T@deltaN`
        # files instead of the base table) get a visible marker so a
        # rendered refresh plan is distinguishable from a full recompute.
        delta = "Δ" if "@delta" in node.leaf.source_name else ""
        line = f"{pad}{delta}{node.leaf.describe()}"
        if show_estimates:
            line += f"  [~{node.est_rows:.0f} rows]"
        return line
    assert isinstance(node, PhysJoin)
    conditions = " AND ".join(c.describe() for c in node.conditions)
    marker = " (chained)" if node.chained else ""
    line = f"{pad}{node.symbol()}{marker} on {conditions}"
    if node.applied_predicates:
        preds = " AND ".join(p.signature() for p in node.applied_predicates)
        line += f" then filter {preds}"
    if show_estimates:
        line += f"  [~{node.est_rows:.0f} rows, cost {node.cost:.1f}]"
    return "\n".join(
        [line,
         render_plan(node.left, indent + 1, show_estimates),
         render_plan(node.right, indent + 1, show_estimates)]
    )


def compact_plan(node: PhysicalNode) -> str:
    """One-line rendering, e.g. ``((l ./r o) ./b c)`` -- paper style."""
    if isinstance(node, PhysLeaf):
        return node.label()
    assert isinstance(node, PhysJoin)
    operator = _SYMBOLS[node.method]
    if node.chained:
        operator += "+"
    return (f"({compact_plan(node.left)} {operator} "
            f"{compact_plan(node.right)})")


def plan_signature(node: PhysicalNode) -> str:
    """Stable identity of plan *shape* (method + structure, no estimates)."""
    return compact_plan(node)


@dataclass
class PlanSummary:
    """Derived facts about a plan, used by experiments and tests."""

    joins: int = 0
    repartition_joins: int = 0
    broadcast_joins: int = 0
    skew_joins: int = 0
    chained_joins: int = 0
    max_depth: int = 0
    is_left_deep: bool = True
    leaf_labels: tuple[str, ...] = field(default_factory=tuple)


def plan_diff(before: PhysicalNode, after: PhysicalNode) -> list[str]:
    """Human-readable differences between two plans of the same block.

    Used to narrate re-optimization points (the paper's Figure 2 story):
    which joins flipped method, which chains formed or broke, and which
    sub-plans were replaced by materialized intermediates.
    """
    changes: list[str] = []

    def joins_by_aliases(node: PhysicalNode) -> dict[frozenset[str],
                                                     PhysJoin]:
        found: dict[frozenset[str], PhysJoin] = {}

        def visit(current: PhysicalNode) -> None:
            if isinstance(current, PhysJoin):
                found[current.aliases] = current
                visit(current.left)
                visit(current.right)

        visit(node)
        return found

    def leaf_sources(node: PhysicalNode) -> dict[frozenset[str], str]:
        return {
            leaf.aliases: leaf.leaf.source_name for leaf in node.leaves()
        }

    before_joins = joins_by_aliases(before)
    after_joins = joins_by_aliases(after)
    for aliases, old in sorted(before_joins.items(),
                               key=lambda item: sorted(item[0])):
        label = "+".join(sorted(aliases))
        new = after_joins.get(aliases)
        if new is None:
            changes.append(f"join over {label} no longer exists "
                           f"(executed or re-ordered)")
            continue
        if old.method != new.method:
            changes.append(f"join over {label}: {old.method} -> "
                           f"{new.method}")
        if old.chained != new.chained:
            state = "chained" if new.chained else "unchained"
            changes.append(f"join over {label}: now {state}")
        if (old.build.aliases != new.build.aliases
                and old.method == new.method
                and old.method in HASH_BUILD_METHODS):
            changes.append(
                f"join over {label}: build side "
                f"{'+'.join(sorted(old.build.aliases))} -> "
                f"{'+'.join(sorted(new.build.aliases))}"
            )
    for aliases in sorted(set(after_joins) - set(before_joins),
                          key=sorted):
        changes.append(f"new join over {'+'.join(sorted(aliases))}")

    before_leaves = leaf_sources(before)
    after_leaves = leaf_sources(after)
    for aliases, source in sorted(after_leaves.items(),
                                  key=lambda item: sorted(item[0])):
        if aliases not in before_leaves:
            changes.append(
                f"{'+'.join(sorted(aliases))} materialized as {source}"
            )
    return changes


def summarize_plan(node: PhysicalNode) -> PlanSummary:
    summary = PlanSummary()

    def visit(current: PhysicalNode, depth: int) -> None:
        summary.max_depth = max(summary.max_depth, depth)
        if isinstance(current, PhysLeaf):
            summary.leaf_labels += (current.label(),)
            return
        assert isinstance(current, PhysJoin)
        summary.joins += 1
        if current.method == REPARTITION:
            summary.repartition_joins += 1
        elif current.method == SKEW:
            summary.skew_joins += 1
        else:
            summary.broadcast_joins += 1
        if current.chained:
            summary.chained_joins += 1
        if not current.right.is_leaf:
            summary.is_left_deep = False
        visit(current.left, depth + 1)
        visit(current.right, depth + 1)

    visit(node, 0)
    return summary
