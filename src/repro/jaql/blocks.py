"""Join-block extraction (paper Section 3, step 2).

After push-down, a query tree decomposes into:

* one **join block**: an n-way join over *block leaves*, each leaf being a
  scan plus its local predicates, with the remaining (non-local) predicates
  attached to the block; and
* **final stages** above the block -- group-by / order-by / projection --
  which the Jaql compiler executes after the joins and which the cost-based
  optimizer never sees (Section 5.1).

A :class:`BlockLeaf` is the unit of pilot runs and of statistics reuse.
Leaves are general enough to also represent *intermediate results*: when
DYNOPT executes part of a plan, the materialized output becomes a new leaf
covering several original aliases (Section 5.1: "the nodes in the join
block are the results of previous steps"). Rows of intermediates keep their
original alias-qualified field names, so all remaining conditions and
predicates evaluate unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.data.table import Row
from repro.errors import PlanError, UnsupportedQueryError
from repro.jaql.expr import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    Filter,
    GroupBy,
    Join,
    JoinCondition,
    Or,
    OrderBy,
    Predicate,
    Project,
    QuerySpec,
    Scan,
    UdfPredicate,
    conjuncts,
    qualify_row,
)
from repro.jaql.interpreter import order_key

#: Where a leaf's rows come from.
SOURCE_TABLE = "table"
SOURCE_INTERMEDIATE = "intermediate"

#: Placeholder alias used in statistics signatures (Section 4.1): the same
#: table+predicates combination must reuse statistics whatever alias the
#: query bound it to.
SIGNATURE_ALIAS = "$"


def normalize_predicate_alias(predicate: Predicate,
                              alias: str) -> Predicate:
    """Rewrite every :class:`ColumnRef` under ``alias`` to the signature
    placeholder, leaving literals (and refs to other aliases) untouched.

    This replaces the old textual ``signature().replace(f"{alias}.", "$.")``
    normalization, which mangled string literals that happened to contain
    ``<alias>.`` (alias ``l`` vs literal ``'ml.example'``) -- making
    distinct predicates collide or identical ones miss reuse.
    """

    def rewrite(column_ref: ColumnRef) -> ColumnRef:
        if column_ref.alias != alias:
            return column_ref
        return ColumnRef(SIGNATURE_ALIAS, column_ref.column,
                         column_ref.steps)

    if isinstance(predicate, And):
        return And(tuple(normalize_predicate_alias(part, alias)
                         for part in predicate.parts))
    if isinstance(predicate, Or):
        return Or(tuple(normalize_predicate_alias(part, alias)
                        for part in predicate.parts))
    if isinstance(predicate, Comparison):
        right = predicate.right
        if isinstance(right, ColumnRef):
            right = rewrite(right)
        return Comparison(rewrite(predicate.left), predicate.op, right)
    if isinstance(predicate, UdfPredicate):
        return UdfPredicate(predicate.udf,
                            tuple(rewrite(arg) for arg in predicate.args))
    raise PlanError(
        f"cannot normalize predicate of type {type(predicate).__name__}"
    )


@dataclass(frozen=True)
class BlockLeaf:
    """One node of a join block: base scan + local predicates, or an
    intermediate result covering several aliases."""

    aliases: frozenset[str]
    source_kind: str
    #: base table name or intermediate DFS file name.
    source_name: str
    predicates: tuple[Predicate, ...] = ()
    #: for an intermediate leaf that *materializes* another leaf (a pilot
    #: output covering the whole filtered relation), the signature of that
    #: leaf. Cross-query caches use it to treat the substituted leaf and
    #: its origin as the same relation.
    provenance: str | None = None

    def __post_init__(self) -> None:
        if not self.aliases:
            raise PlanError("block leaf must cover at least one alias")
        if self.source_kind not in (SOURCE_TABLE, SOURCE_INTERMEDIATE):
            raise PlanError(f"unknown leaf source kind: {self.source_kind!r}")
        if self.source_kind == SOURCE_INTERMEDIATE and self.predicates:
            raise PlanError("intermediate leaves carry no local predicates")
        if self.source_kind == SOURCE_TABLE and self.provenance is not None:
            raise PlanError("base leaves are their own provenance")

    @property
    def alias(self) -> str:
        """The single alias of a base leaf."""
        if len(self.aliases) != 1:
            raise PlanError(
                f"leaf covers multiple aliases: {sorted(self.aliases)}"
            )
        return next(iter(self.aliases))

    @property
    def is_base(self) -> bool:
        return self.source_kind == SOURCE_TABLE

    # -- statistics identity (Section 4.1, reusability) -----------------------

    def signature(self) -> str:
        """Alias-independent identity of (source, local predicates).

        The alias is replaced by a placeholder so the same table+predicates
        combination reuses statistics across queries.
        """
        if self.source_kind == SOURCE_INTERMEDIATE:
            return f"intermediate:{self.source_name}"
        alias = self.alias
        normalized = sorted(
            normalize_predicate_alias(predicate, alias).signature()
            for predicate in self.predicates
        )
        return f"table:{self.source_name}|" + ";".join(normalized)

    # -- row-level behaviour (the oracle's row path: core.baselines and the
    # tests' references; the engine scans through jaql.compiler.leaf_scan) ---

    def qualify_and_filter(self, row: Row) -> Row | None:
        """Apply this leaf to one raw input row; None when filtered out."""
        if self.source_kind == SOURCE_INTERMEDIATE:
            return row  # already qualified, predicates already applied
        qualified = qualify_row(self.alias, row)
        for predicate in self.predicates:
            if not predicate.evaluate(qualified):
                return None
        return qualified

    @property
    def cpu_seconds_per_row(self) -> float:
        """Simulated predicate/UDF cost per input row."""
        return sum(p.cpu_seconds_per_row for p in self.predicates)

    def describe(self) -> str:
        names = "+".join(sorted(self.aliases))
        if self.source_kind == SOURCE_INTERMEDIATE:
            return f"{names}<-{self.source_name}"
        if self.predicates:
            preds = " AND ".join(p.signature() for p in self.predicates)
            return f"{names}:{self.source_name}[{preds}]"
        return f"{names}:{self.source_name}"


@dataclass(frozen=True)
class JoinBlock:
    """An n-way join over block leaves plus the block's non-local predicates."""

    name: str
    leaves: tuple[BlockLeaf, ...]
    conditions: tuple[JoinCondition, ...]
    non_local_predicates: tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for leaf in self.leaves:
            overlap = seen & leaf.aliases
            if overlap:
                raise PlanError(
                    f"alias covered by two leaves: {sorted(overlap)}"
                )
            seen.update(leaf.aliases)
        for condition in self.conditions:
            missing = condition.aliases() - seen
            if missing:
                raise PlanError(
                    f"join condition references unknown aliases: "
                    f"{sorted(missing)}"
                )
        for predicate in self.non_local_predicates:
            missing = predicate.references() - seen
            if missing:
                raise PlanError(
                    f"non-local predicate references unknown aliases: "
                    f"{sorted(missing)}"
                )

    # -- lookups ----------------------------------------------------------------

    @property
    def aliases(self) -> frozenset[str]:
        merged: set[str] = set()
        for leaf in self.leaves:
            merged.update(leaf.aliases)
        return frozenset(merged)

    def leaf_for(self, alias: str) -> BlockLeaf:
        for leaf in self.leaves:
            if alias in leaf.aliases:
                return leaf
        raise PlanError(f"no leaf covers alias {alias!r}")

    def base_leaves(self) -> tuple[BlockLeaf, ...]:
        return tuple(leaf for leaf in self.leaves if leaf.is_base)

    def conditions_between(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[JoinCondition, ...]:
        """Conditions with one side in ``left`` and the other in ``right``."""
        selected = []
        for condition in self.conditions:
            l_alias = condition.left.alias
            r_alias = condition.right.alias
            if ((l_alias in left and r_alias in right)
                    or (r_alias in left and l_alias in right)):
                selected.append(condition)
        return tuple(selected)

    # -- DYNOPT plan substitution (Section 5.1, updatePlan) ----------------------

    def substitute(self, executed_aliases: frozenset[str],
                   intermediate_name: str,
                   applied_predicates: tuple[Predicate, ...],
                   provenance: str | None = None) -> "JoinBlock":
        """Replace the executed sub-plan by an intermediate leaf.

        Conditions internal to the executed alias set disappear (they were
        evaluated by the executed jobs); ``applied_predicates`` likewise.
        ``provenance`` marks a substitution that merely materializes one
        existing leaf (pilot-output reuse) rather than executing a join.
        """
        covered = [
            leaf for leaf in self.leaves if leaf.aliases <= executed_aliases
        ]
        covered_aliases: set[str] = set()
        for leaf in covered:
            covered_aliases.update(leaf.aliases)
        if frozenset(covered_aliases) != executed_aliases:
            raise PlanError(
                f"executed aliases {sorted(executed_aliases)} do not align "
                f"with block leaves"
            )
        new_leaf = BlockLeaf(
            executed_aliases, SOURCE_INTERMEDIATE, intermediate_name,
            provenance=provenance,
        )
        remaining_leaves = tuple(
            leaf for leaf in self.leaves if leaf not in covered
        ) + (new_leaf,)
        remaining_conditions = tuple(
            condition for condition in self.conditions
            if not condition.aliases() <= executed_aliases
        )
        applied = set(applied_predicates)
        remaining_predicates = tuple(
            predicate for predicate in self.non_local_predicates
            if predicate not in applied
        )
        return replace(
            self,
            leaves=remaining_leaves,
            conditions=remaining_conditions,
            non_local_predicates=remaining_predicates,
        )

    def describe(self) -> str:
        lines = [f"join block {self.name}:"]
        for leaf in self.leaves:
            lines.append(f"  leaf {leaf.describe()}")
        for condition in self.conditions:
            lines.append(f"  cond {condition.describe()}")
        for predicate in self.non_local_predicates:
            lines.append(f"  pred {predicate.signature()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExtractedQuery:
    """A query decomposed into its join block and post-join stages."""

    spec: QuerySpec
    block: JoinBlock
    #: stages applied to the block output, innermost first
    #: (GroupBy / OrderBy / Project expressions).
    stages: tuple[Expr, ...] = field(default_factory=tuple)


def extract_query(spec: QuerySpec) -> ExtractedQuery:
    """Decompose a (pushed-down) query tree into block + stages.

    Raises :class:`UnsupportedQueryError` for group/order operators nested
    below joins -- such queries must be split into multiple QuerySpecs
    executed block by block, as DYNO does (Section 5.1, "Executing the
    whole query").
    """
    stages: list[Expr] = []
    node: Expr = spec.root
    while isinstance(node, (Project, OrderBy, GroupBy)):
        stages.append(node)
        node = node.children()[0]
    stages.reverse()

    leaves: list[BlockLeaf] = []
    conditions: list[JoinCondition] = []
    non_local: list[Predicate] = []
    _collect(node, [], leaves, conditions, non_local)
    block = JoinBlock(
        spec.name,
        tuple(leaves),
        tuple(conditions),
        tuple(non_local),
    )
    return ExtractedQuery(spec, block, tuple(stages))


def apply_client_stage(stage: Expr, rows: list[Row]) -> list[Row]:
    """Evaluate one client-side stage (ORDER BY or the final projection).

    Jaql runs non-parallelizable expressions locally (Section 2.1): the
    engine's post-join tail and a standing query's maintained result go
    through here alike.
    """
    if isinstance(stage, OrderBy):
        rows = sorted(
            rows,
            key=lambda row: tuple(
                order_key(ref.evaluate(row)) for ref in stage.keys
            ),
            reverse=stage.descending,
        )
        return rows if stage.limit is None else rows[: stage.limit]
    if isinstance(stage, Project):
        return [stage.project_row(row) for row in rows]
    raise PlanError(f"not a client-side stage: {type(stage).__name__}")


def _collect(node: Expr, filters_above: list[Predicate],
             leaves: list[BlockLeaf], conditions: list[JoinCondition],
             non_local: list[Predicate]) -> None:
    if isinstance(node, Filter):
        _collect(node.child, filters_above + conjuncts(node.predicate),
                 leaves, conditions, non_local)
        return
    if isinstance(node, Join):
        # Filters above a join that survived push-down are non-local.
        non_local.extend(filters_above)
        conditions.extend(node.conditions)
        _collect(node.left, [], leaves, conditions, non_local)
        _collect(node.right, [], leaves, conditions, non_local)
        return
    if isinstance(node, Scan):
        local: list[Predicate] = []
        for predicate in filters_above:
            if predicate.references() <= {node.alias}:
                local.append(predicate)
            else:
                non_local.append(predicate)
        leaves.append(
            BlockLeaf(
                frozenset((node.alias,)),
                SOURCE_TABLE,
                node.table,
                tuple(local),
            )
        )
        return
    raise UnsupportedQueryError(
        f"operator {type(node).__name__} below the join block; split the "
        f"query into multiple blocks (the paper executes dependent blocks "
        f"separately)"
    )
