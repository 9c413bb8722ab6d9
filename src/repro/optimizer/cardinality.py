"""Cardinality and selectivity estimation (textbook formulas).

The paper's optimizer "estimates join result cardinalities using textbook
techniques, however, it operates on very accurate input cardinality
estimates for local sub-queries" (Section 1): the leaf statistics come from
pilot runs or prior execution steps, and everything above the leaves uses
Selinger-style formulas [35]:

* equi-join selectivity ``1 / max(dv(a), dv(b))`` per condition;
* independence across conditions and predicates;
* UDF predicates are *opaque*: selectivity defaults to 1.0 until their
  output is observed (which is exactly what re-optimization fixes for Q8').

Estimates are computed per alias-set, which makes them independent of the
join order used to reach a set -- a requirement for memo-based search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StatisticsError
from repro.jaql.blocks import BlockLeaf, JoinBlock
from repro.jaql.expr import (
    And,
    ColumnRef,
    Comparison,
    Or,
    Predicate,
    UdfPredicate,
)
from repro.stats.statistics import TableStats, composite_name

#: System R style default selectivities when statistics are unusable.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
#: Opaque predicates (UDFs) pass everything until observed otherwise.
UDF_SELECTIVITY = 1.0


@dataclass(frozen=True)
class GroupEstimate:
    """Estimated output of joining one alias-set."""

    rows: float
    bytes: float


class CardinalityModel:
    """Estimates per alias-set over a join block and its leaf statistics."""

    def __init__(self, block: JoinBlock, leaf_stats: dict[str, TableStats]):
        """``leaf_stats`` maps each leaf's :meth:`BlockLeaf.signature` to the
        statistics of the (virtual) relation it produces.
        """
        from repro.stats.statistics import requalify_stats

        self.block = block
        self._stats_by_alias: dict[str, TableStats] = {}
        self._leaf_by_alias: dict[str, BlockLeaf] = {}
        for leaf in block.leaves:
            try:
                stats = leaf_stats[leaf.signature()]
            except KeyError:
                raise StatisticsError(
                    f"missing statistics for leaf {leaf.describe()} "
                    f"(signature {leaf.signature()!r})"
                ) from None
            if leaf.is_base:
                # Shared-signature leaves (self-joins) reuse one statistics
                # entry whose columns carry the collecting leaf's alias.
                stats = requalify_stats(stats, leaf.alias)
            for alias in leaf.aliases:
                self._stats_by_alias[alias] = stats
                self._leaf_by_alias[alias] = leaf
        self._cache: dict[frozenset[str], GroupEstimate] = {}
        #: heavy-hitter / key-DV lookups keyed by the refs' qualified
        #: names -- the memo search derives the same join sides many
        #: times, and the underlying statistics never change mid-search.
        self._heavy_cache: dict[tuple[str, ...],
                                tuple[tuple[tuple, float], ...]] = {}
        self._key_dv_cache: dict[tuple[str, ...], float] = {}

    # -- leaf-level --------------------------------------------------------------

    def leaf_stats(self, leaf: BlockLeaf) -> TableStats:
        return self._stats_by_alias[next(iter(leaf.aliases))]

    def distinct_values(self, ref: ColumnRef) -> float:
        stats = self._stats_by_alias.get(ref.alias)
        if stats is None:
            raise StatisticsError(f"no statistics for alias {ref.alias!r}")
        return stats.distinct_values(ref.qualified)

    def heavy_columns(self, threshold: float) -> frozenset[str]:
        """Qualified column names whose profile reaches ``threshold``.

        One pass over the (few) leaf statistics at optimizer construction;
        lets the search skip all per-context heavy-hitter work for probe
        keys that cannot possibly clear the skew gate -- which is every
        fact-table join key of every TPC-H block at our scales.
        """
        result = set()
        seen: set[int] = set()
        for stats in self._stats_by_alias.values():
            if id(stats) in seen:
                continue
            seen.add(id(stats))
            for name, column in stats.columns.items():
                if any(fraction >= threshold
                       for _, fraction in column.heavy_hitters):
                    result.add(name)
        return frozenset(result)

    def heavy_hitters(
        self, refs: list[ColumnRef]
    ) -> tuple[tuple[tuple, float], ...]:
        """Heavy join-key values of one join side, as ``(key, fraction)``.

        ``refs`` is the side's key in join-condition order; keys come back
        as value tuples in that same order (what the compiler's mappers
        evaluate per row). Multi-column keys need measured composite
        statistics -- their values are stored ordered by sorted column
        name and are permuted back here. Keys containing NULL never join
        and are dropped. Returns () when the side spans several leaves
        per-column or no frequency profile survived.
        """
        if not refs or len({ref.alias for ref in refs}) != 1:
            return ()
        cache_key = tuple(ref.qualified for ref in refs)
        cached = self._heavy_cache.get(cache_key)
        if cached is not None:
            return cached
        result = self._heavy_hitters_uncached(refs)
        self._heavy_cache[cache_key] = result
        return result

    def _heavy_hitters_uncached(
        self, refs: list[ColumnRef]
    ) -> tuple[tuple[tuple, float], ...]:
        stats = self._stats_by_alias.get(refs[0].alias)
        if stats is None:
            return ()
        if len(refs) == 1:
            column = stats.column(refs[0].qualified)
            if column is None:
                return ()
            return tuple(
                ((value,), fraction)
                for value, fraction in column.heavy_hitters
                if value is not None
            )
        composite = stats.column(
            composite_name(ref.qualified for ref in refs)
        )
        if composite is None:
            return ()
        sorted_names = sorted(ref.qualified for ref in refs)
        positions = [sorted_names.index(ref.qualified) for ref in refs]
        result = []
        for value, fraction in composite.heavy_hitters:
            if not isinstance(value, tuple) or len(value) != len(refs):
                continue
            key = tuple(value[position] for position in positions)
            if any(part is None for part in key):
                continue
            result.append((key, fraction))
        return tuple(result)

    def key_distinct_values(self, refs: list[ColumnRef]) -> float:
        """Distinct values of one side's (possibly composite) join key."""
        if not refs:
            return 1.0
        cache_key = tuple(ref.qualified for ref in refs)
        cached = self._key_dv_cache.get(cache_key)
        if cached is not None:
            return cached
        result = self._key_distinct_uncached(refs)
        self._key_dv_cache[cache_key] = result
        return result

    def _key_distinct_uncached(self, refs: list[ColumnRef]) -> float:
        stats = self._stats_by_alias.get(refs[0].alias)
        if stats is None:
            return 1.0
        if len(refs) > 1:
            composite = stats.column(
                composite_name(ref.qualified for ref in refs)
            )
            if composite is not None and composite.distinct_values > 0:
                return min(composite.distinct_values,
                           max(stats.row_count, 1.0))
        product = 1.0
        for ref in refs:
            product *= max(self.distinct_values(ref), 1.0)
        return min(product, max(stats.row_count, 1.0))

    # -- group-level -------------------------------------------------------------

    def estimate(self, aliases: frozenset[str]) -> GroupEstimate:
        """Estimated rows/bytes of the join of ``aliases`` with all
        applicable conditions and non-local predicates applied."""
        cached = self._cache.get(aliases)
        if cached is not None:
            return cached

        leaves: list[BlockLeaf] = []
        seen: set[str] = set()
        for alias in aliases:
            leaf = self._leaf_by_alias.get(alias)
            if leaf is None:
                raise StatisticsError(f"alias {alias!r} not in block")
            if leaf.aliases <= aliases:
                if not (leaf.aliases & seen):
                    leaves.append(leaf)
                    seen.update(leaf.aliases)
            else:
                raise StatisticsError(
                    f"alias set {sorted(aliases)} splits intermediate leaf "
                    f"{leaf.describe()}"
                )

        rows = 1.0
        width = 0.0
        for leaf in leaves:
            stats = self.leaf_stats(leaf)
            rows *= max(stats.row_count, 0.0)
            width += stats.avg_row_size

        if len(leaves) > 1:
            for left_refs, right_refs in self._condition_groups(aliases):
                rows *= self._join_selectivity(left_refs, right_refs)

        for predicate in self.block.non_local_predicates:
            if predicate.references() <= aliases:
                rows *= self.predicate_selectivity(predicate)

        estimate = GroupEstimate(rows, rows * max(width, 1.0))
        self._cache[aliases] = estimate
        return estimate

    def _condition_groups(
        self, aliases: frozenset[str]
    ) -> list[tuple[list[ColumnRef], list[ColumnRef]]]:
        """Join conditions inside ``aliases``, grouped per leaf pair.

        Conditions between the same two leaves form one *composite* key
        (e.g. partsupp x lineitem joins on partkey AND suppkey); estimating
        them independently would underestimate quadratically.
        """
        grouped: dict[tuple[int, int], tuple[list[ColumnRef],
                                             list[ColumnRef]]] = {}
        leaf_ids = {id(leaf): index
                    for index, leaf in enumerate(self.block.leaves)}
        for condition in self.block.conditions:
            if not condition.aliases() <= aliases:
                continue
            left_leaf = self._leaf_by_alias[condition.left.alias]
            right_leaf = self._leaf_by_alias[condition.right.alias]
            if left_leaf is right_leaf:
                continue  # internal to one intermediate leaf: pre-applied
            key = tuple(sorted((leaf_ids[id(left_leaf)],
                                leaf_ids[id(right_leaf)])))
            lists = grouped.setdefault(key, ([], []))
            if leaf_ids[id(left_leaf)] == key[0]:
                lists[0].append(condition.left)
                lists[1].append(condition.right)
            else:
                lists[0].append(condition.right)
                lists[1].append(condition.left)
        return list(grouped.values())

    def _join_selectivity(self, left_refs: list[ColumnRef],
                          right_refs: list[ColumnRef]) -> float:
        """Composite-key equi-join selectivity: ``1 / max(dv_L, dv_R)``.

        The distinct count of a composite key is the product of per-column
        counts, capped by the relation's cardinality (a tuple cannot have
        more distinct values than there are rows) -- the standard Selinger
        refinement for multi-column join predicates.
        """
        def side_dv(refs: list[ColumnRef]) -> float:
            stats = self._stats_by_alias[refs[0].alias]
            if len(refs) > 1:
                # Prefer measured statistics on the composite key (pilot
                # runs collect them for multi-column join conditions).
                composite = stats.column(
                    composite_name(ref.qualified for ref in refs)
                )
                if composite is not None and composite.distinct_values > 0:
                    return min(composite.distinct_values,
                               max(stats.row_count, 1.0))
            product = 1.0
            for ref in refs:
                product *= max(self.distinct_values(ref), 1.0)
            return min(product, max(stats.row_count, 1.0))

        return 1.0 / max(side_dv(left_refs), side_dv(right_refs), 1.0)

    # -- predicate selectivity (for non-local, non-UDF predicates) -----------------

    def predicate_selectivity(self, predicate: Predicate) -> float:
        if isinstance(predicate, UdfPredicate):
            return UDF_SELECTIVITY
        if isinstance(predicate, And):
            product = 1.0
            for part in predicate.parts:
                product *= self.predicate_selectivity(part)
            return product
        if isinstance(predicate, Or):
            miss = 1.0
            for part in predicate.parts:
                miss *= 1.0 - self.predicate_selectivity(part)
            return 1.0 - miss
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        return DEFAULT_RANGE_SELECTIVITY

    def _comparison_selectivity(self, predicate: Comparison) -> float:
        column = predicate.left
        stats = self._stats_by_alias.get(column.alias)
        column_stats = (
            stats.column(column.qualified) if stats is not None else None
        )
        if isinstance(predicate.right, ColumnRef):
            if predicate.op == "=":
                return self._join_selectivity([column], [predicate.right])
            return DEFAULT_RANGE_SELECTIVITY
        if predicate.op == "=":
            if column_stats is not None and column_stats.distinct_values > 0:
                return 1.0 / column_stats.distinct_values
            return DEFAULT_EQ_SELECTIVITY
        if predicate.op == "!=":
            if column_stats is not None and column_stats.distinct_values > 0:
                return 1.0 - 1.0 / column_stats.distinct_values
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        return self._range_selectivity(predicate, column_stats)

    def _range_selectivity(self, predicate: Comparison,
                           column_stats) -> float:
        literal = predicate.right
        if (column_stats is None
                or not isinstance(literal, (int, float))
                or isinstance(literal, bool)):
            return DEFAULT_RANGE_SELECTIVITY
        if column_stats.histogram is not None:
            # Equi-depth histogram (Section 4.3's "additional statistics"):
            # robust to skew where min/max interpolation is not.
            fraction = column_stats.histogram.fraction_below(float(literal))
            if predicate.op in ("<", "<="):
                return max(fraction, 1e-6)
            return max(1.0 - fraction, 1e-6)
        if (not isinstance(column_stats.min_value, (int, float))
                or not isinstance(column_stats.max_value, (int, float))):
            return DEFAULT_RANGE_SELECTIVITY
        low = float(column_stats.min_value)
        high = float(column_stats.max_value)
        if high <= low:
            return DEFAULT_RANGE_SELECTIVITY
        fraction = (float(literal) - low) / (high - low)
        fraction = min(1.0, max(0.0, fraction))
        if predicate.op in ("<", "<="):
            return max(fraction, 1e-6)
        return max(1.0 - fraction, 1e-6)
