"""Baseline plan generators of the evaluation (paper Section 6.1).

* **BESTSTATICJAQL** -- "the existing version of Jaql produces only
  left-deep plans and the join ordering is determined by the order of
  relations in the FROM clause. For each query, we tried all possible
  orders of relations and picked the best one." We enumerate every
  cartesian-free left-deep order, rank them with an oracle cost model (true
  leaf statistics), execute the top candidates on the simulator, and keep
  the fastest. Join methods follow Jaql's own heuristic: broadcast only
  when the build relation's *file size* fits in memory (filters are not
  taken into account, Section 2.2.2).
* **BESTSTATICHIVE** -- the same, executed under the Hive backend.
* **RELOPT** -- the shared-nothing relational optimizer DBMS-X: our join
  enumerator fed *full-table* statistics with exact per-predicate
  selectivities combined under the independence assumption, and UDF
  selectivity defaulted to 1.0 (opaque). This reproduces DBMS-X's two
  documented failure modes: correlation blindness (Q8') and UDF opacity
  (Q9', Figure 3).
* **Oracle statistics** -- ground-truth leaf statistics (full scan with all
  predicates applied), used for ranking static orders and in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from repro.config import DynoConfig
from repro.data.table import Row, Table
from repro.errors import PlanError
from repro.jaql.blocks import BlockLeaf, JoinBlock
from repro.jaql.expr import qualify_row
from repro.optimizer.cardinality import CardinalityModel
from repro.optimizer.cost import JoinCostModel
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plans import (
    BROADCAST,
    REPARTITION,
    PhysJoin,
    PhysLeaf,
    PhysicalNode,
)
from repro.optimizer.search import JoinOptimizer
from repro.core.pilot import signature_stats_columns
from repro.stats.statistics import TableStats, stats_from_table_scan


# ---------------------------------------------------------------------------
# Leaf statistics flavours
# ---------------------------------------------------------------------------


def oracle_leaf_stats(tables: dict[str, Table],
                      block: JoinBlock) -> dict[str, TableStats]:
    """Ground-truth statistics: full scan with all local predicates applied."""
    stats: dict[str, TableStats] = {}
    for leaf in block.base_leaves():
        signature = leaf.signature()
        if signature not in stats:
            stats[signature] = _scan_stats(tables, block, leaf,
                                           leaf.qualify_and_filter)
    return stats


def jaql_file_size_stats(tables: dict[str, Table],
                         block: JoinBlock) -> dict[str, TableStats]:
    """What stock Jaql knows: whole-file sizes, predicates ignored."""
    stats: dict[str, TableStats] = {}
    cache: dict[tuple[str, tuple[str, ...]], TableStats] = {}
    for leaf in block.base_leaves():
        signature = leaf.signature()
        if signature in stats:
            continue
        columns = signature_stats_columns(block, leaf)
        cache_key = (leaf.source_name, tuple(columns))
        cached = cache.get(cache_key)
        if cached is None:
            cached = _scan_stats(tables, block, leaf,
                                 partial(qualify_row, leaf.alias))
            cache[cache_key] = cached
        stats[signature] = cached
    return stats


def relopt_leaf_stats(tables: dict[str, Table],
                      block: JoinBlock) -> dict[str, TableStats]:
    """DBMS-X's view: exact single-predicate selectivities multiplied under
    the independence assumption; UDFs contribute selectivity 1.0."""
    stats: dict[str, TableStats] = {}
    for leaf in block.base_leaves():
        signature = leaf.signature()
        if signature in stats:
            continue
        table = _table_of(tables, leaf)
        alias = leaf.alias
        qualified_rows = [qualify_row(alias, row) for row in table.rows]
        full = stats_from_table_scan(
            zip(qualified_rows,
                map(table.schema.estimated_row_size, table.rows)),
            signature_stats_columns(block, leaf),
        )

        selectivity = 1.0
        for predicate in leaf.predicates:
            if predicate.is_udf:
                continue  # opaque: selectivity 1.0
            if not qualified_rows:
                continue
            passing = sum(
                1 for row in qualified_rows if predicate.evaluate(row)
            )
            selectivity *= passing / len(qualified_rows)
        estimated_rows = full.row_count * selectivity
        estimated_bytes = full.size_bytes * selectivity
        stats[signature] = full.scaled_to(estimated_rows, estimated_bytes)
    return stats


def _scan_stats(tables: dict[str, Table], block: JoinBlock, leaf: BlockLeaf,
                qualify: Callable[[Row], Row | None]) -> TableStats:
    """Exact statistics of the leaf's table, scanned through ``qualify``
    (None drops a row); each row is sized as the table stores it."""
    table = _table_of(tables, leaf)
    size = table.schema.estimated_row_size
    return stats_from_table_scan(
        ((qualified, size(row)) for row in table.rows
         if (qualified := qualify(row)) is not None),
        signature_stats_columns(block, leaf),
    )


def _table_of(tables: dict[str, Table], leaf: BlockLeaf) -> Table:
    try:
        return tables[leaf.source_name]
    except KeyError:
        raise PlanError(
            f"leaf {leaf.describe()} reads unknown table "
            f"{leaf.source_name!r}"
        ) from None


# ---------------------------------------------------------------------------
# Static left-deep plan construction (stock Jaql semantics)
# ---------------------------------------------------------------------------


def enumerate_connected_orders(block: JoinBlock) -> Iterator[tuple[int, ...]]:
    """All cartesian-free left-deep orders, as leaf index tuples."""
    graph = JoinGraph.build(block)
    count = graph.size
    if count == 1:
        yield (0,)
        return

    def extend(order: tuple[int, ...], joined: frozenset[int]) -> Iterator:
        if len(order) == count:
            yield order
            return
        for candidate in range(count):
            if candidate in joined:
                continue
            if not graph.edges_between(joined, frozenset((candidate,))):
                continue
            yield from extend(order + (candidate,),
                              joined | {candidate})

    for first in range(count):
        yield from extend((first,), frozenset((first,)))


def build_left_deep_plan(
    block: JoinBlock,
    order: tuple[int, ...],
    leaf_stats: dict[str, TableStats],
    file_sizes: dict[str, int],
    config: DynoConfig,
) -> PhysicalNode:
    """Left-deep plan in the given order under Jaql's method heuristic.

    The broadcast decision looks only at the build relation's *file size*
    (Section 2.2.2); estimates for interior nodes come from the provided
    leaf statistics so the compiler can size reducers.
    """
    if sorted(order) != list(range(len(block.leaves))):
        raise PlanError(f"order {order} does not cover the block's leaves")
    cardinality = CardinalityModel(block, leaf_stats)
    cost_model = JoinCostModel(config.optimizer, config.cluster)

    def leaf_node(index: int) -> PhysLeaf:
        leaf = block.leaves[index]
        stats = leaf_stats[leaf.signature()]
        return PhysLeaf(
            aliases=leaf.aliases,
            est_rows=stats.row_count,
            est_bytes=stats.size_bytes,
            cost=0.0,
            leaf=leaf,
        )

    current: PhysicalNode = leaf_node(order[0])
    for index in order[1:]:
        right = leaf_node(index)
        right_leaf = block.leaves[index]
        conditions = block.conditions_between(current.aliases,
                                              right.aliases)
        if not conditions:
            raise PlanError(
                f"order {order} requires a cartesian product at leaf "
                f"{right_leaf.describe()}"
            )
        combined = current.aliases | right.aliases
        estimate = cardinality.estimate(combined)
        applied = tuple(
            predicate for predicate in block.non_local_predicates
            if predicate.references() <= combined
            and not predicate.references() <= current.aliases
            and not predicate.references() <= right.aliases
        )
        file_size = file_sizes.get(right_leaf.source_name, 1 << 62)
        method = (
            BROADCAST
            if file_size <= config.cluster.task_memory_bytes
            else REPARTITION
        )
        current = PhysJoin(
            aliases=combined,
            est_rows=estimate.rows,
            est_bytes=estimate.bytes,
            cost=0.0,
            method=method,
            left=current,
            right=right,
            conditions=conditions,
            applied_predicates=applied,
        )
    # Chain marking + cost annotation (Jaql's chain rewrite also checks
    # that the builds fit simultaneously; est_bytes of base leaves are
    # full file sizes here, matching its file-size heuristic).
    return cost_model.apply_chain_rule(current)


@dataclass
class RankedOrder:
    order: tuple[int, ...]
    plan: PhysicalNode
    oracle_cost: float


def rank_orders_by_oracle(
    block: JoinBlock,
    jaql_stats: dict[str, TableStats],
    oracle_stats: dict[str, TableStats],
    file_sizes: dict[str, int],
    config: DynoConfig,
) -> list[RankedOrder]:
    """Rank every connected left-deep order by oracle-estimated cost.

    Plans are *built* with Jaql's knowledge (file sizes decide methods) but
    *ranked* with ground-truth statistics -- a tractable stand-in for the
    paper's exhaustive hand-execution of every FROM order (DESIGN.md §2).
    """
    oracle_cardinality = CardinalityModel(block, oracle_stats)
    cost_model = JoinCostModel(config.optimizer, config.cluster)
    ranked: list[RankedOrder] = []
    for order in enumerate_connected_orders(block):
        plan = build_left_deep_plan(block, order, jaql_stats, file_sizes,
                                    config)
        oracle_plan = _reestimate(plan, oracle_cardinality, block)
        oracle_plan = cost_model.apply_chain_rule(oracle_plan)
        ranked.append(RankedOrder(order, plan, oracle_plan.cost))
    ranked.sort(key=lambda entry: (entry.oracle_cost, entry.order))
    return ranked


def _reestimate(node: PhysicalNode, cardinality: CardinalityModel,
                block: JoinBlock) -> PhysicalNode:
    """Rebuild a plan with estimates from another cardinality model."""
    from dataclasses import replace

    if isinstance(node, PhysLeaf):
        stats = cardinality.leaf_stats(node.leaf)
        return replace(node, est_rows=stats.row_count,
                       est_bytes=stats.size_bytes)
    assert isinstance(node, PhysJoin)
    left = _reestimate(node.left, cardinality, block)
    right = _reestimate(node.right, cardinality, block)
    estimate = cardinality.estimate(node.aliases)
    return replace(node, left=left, right=right,
                   est_rows=estimate.rows, est_bytes=estimate.bytes)


# ---------------------------------------------------------------------------
# RELOPT plan
# ---------------------------------------------------------------------------


#: Conservative broadcast margin for the RELOPT baseline. "If the
#: optimizer's estimate is incorrect and the build table turns out to not
#: fit in memory, the query may not even terminate. As a result, most
#: systems are quite conservative and favour repartition joins" (Section
#: 6.4) -- DBMS-X cannot trust its correlation-blind, UDF-opaque estimates.
RELOPT_SAFETY_FACTOR = 3.0


def relopt_optimizer_config(config: DynoConfig):
    """The optimizer configuration DBMS-X effectively runs with."""
    from dataclasses import replace

    return replace(config.optimizer,
                   broadcast_safety_factor=RELOPT_SAFETY_FACTOR)


def relopt_plan(block: JoinBlock, tables: dict[str, Table],
                config: DynoConfig) -> tuple[PhysicalNode,
                                             dict[str, TableStats]]:
    """The plan DBMS-X would pick, plus the statistics it believed."""
    stats = relopt_leaf_stats(tables, block)
    optimizer = JoinOptimizer(block, stats, relopt_optimizer_config(config),
                              config.cluster)
    return optimizer.optimize().plan, stats
