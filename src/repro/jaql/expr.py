"""Jaql-style expression AST.

Queries are trees of relational expressions over JSON-like records, mirroring
the subset of Jaql the paper uses: scans, filters (including UDF predicates),
equality joins, group-by, order-by, and a final projection. Records flowing
through a plan are *alias-qualified*: scanning ``restaurant rs`` produces
rows keyed ``rs.id``, ``rs.addr``, ... so that self-joins (Q7/Q8 use
``nation`` twice as ``n1``/``n2``) stay unambiguous.

Predicates know which aliases they reference, which is what the rewrite
engine uses to push *local* predicates below joins (Section 3: "an operation
is local to a table if it only refers to attributes from that table").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

from repro.data.schema import FieldType, Schema
from repro.data.table import Row
# Qualification lives beside ``Row`` so storage and batches qualify without
# importing jaql; re-exported from here, where callers have always found it.
from repro.data.table import qualify_row as qualify_row  # noqa: F401
from repro.errors import PlanError, SchemaError
from repro.jaql.functions import Udf

# ---------------------------------------------------------------------------
# Column references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """A reference ``alias.column[...].nested`` into a qualified row."""

    alias: str
    column: str
    steps: tuple[str | int, ...] = ()

    @cached_property
    def qualified(self) -> str:
        """The flat field name carrying this column in qualified rows.

        An empty alias refers to an *unqualified* field, e.g. an aggregate
        output column of a previous block. Cached: refs are evaluated once
        per row in every join loop, and re-formatting the name dominates
        the lookup itself. (``cached_property`` writes straight into
        ``__dict__``, so it works on this frozen dataclass.)
        """
        if not self.alias:
            return self.column
        return f"{self.alias}.{self.column}"

    def evaluate(self, row: Row) -> Any:
        value = row.get(self.qualified)
        if not self.steps:
            return value
        for step in self.steps:
            if value is None:
                return None
            if isinstance(step, str):
                if not isinstance(value, dict):
                    return None
                value = value.get(step)
            else:
                if not isinstance(value, list) or step >= len(value):
                    return None
                value = value[step]
        return value

    def describe(self) -> str:
        suffix = "".join(
            f".{step}" if isinstance(step, str) else f"[{step}]"
            for step in self.steps
        )
        return f"{self.alias}.{self.column}{suffix}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def ref(alias: str, column: str, *steps: str | int) -> ColumnRef:
    """Convenience constructor: ``ref('rs', 'addr', 0, 'zip')``."""
    return ColumnRef(alias, column, tuple(steps))


def qualify_schema(alias: str, schema: Schema) -> Schema:
    """Schema whose fields are ``alias.column`` for each table column."""
    return Schema(
        tuple((f"{alias}.{name}", ftype) for name, ftype in schema.fields)
    )


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Predicate:
    """Base class of boolean row predicates."""

    def evaluate(self, row: Row) -> bool:
        raise NotImplementedError

    def references(self) -> frozenset[str]:
        """Aliases whose attributes this predicate reads."""
        raise NotImplementedError

    def signature(self) -> str:
        """Stable text identity (drives statistics reuse, Section 4.1)."""
        raise NotImplementedError

    @property
    def is_udf(self) -> bool:
        return False

    @property
    def cpu_seconds_per_row(self) -> float:
        """Simulated evaluation cost charged per row (UDFs override)."""
        return 0.0

    def describe(self) -> str:
        return self.signature()


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column op literal`` or ``column op column``."""

    left: ColumnRef
    op: str
    right: Any  # literal or ColumnRef

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise PlanError(f"unknown comparison operator: {self.op!r}")

    def evaluate(self, row: Row) -> bool:
        left = self.left.evaluate(row)
        right = (self.right.evaluate(row)
                 if isinstance(self.right, ColumnRef) else self.right)
        if left is None or right is None:
            return False
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError:
            return False

    def references(self) -> frozenset[str]:
        aliases = {self.left.alias}
        if isinstance(self.right, ColumnRef):
            aliases.add(self.right.alias)
        return frozenset(aliases)

    def signature(self) -> str:
        right = (self.right.describe()
                 if isinstance(self.right, ColumnRef) else repr(self.right))
        return f"({self.left.describe()} {self.op} {right})"


@dataclass(frozen=True)
class UdfPredicate(Predicate):
    """A boolean user-defined function applied to one or more columns.

    Opaque to selectivity estimation by design: this is precisely the class
    of predicates pilot runs exist to measure (Section 4.1).
    """

    udf: Udf
    args: tuple[ColumnRef, ...]

    def evaluate(self, row: Row) -> bool:
        return bool(self.udf(*(arg.evaluate(row) for arg in self.args)))

    def references(self) -> frozenset[str]:
        return frozenset(arg.alias for arg in self.args)

    def signature(self) -> str:
        inner = ",".join(arg.describe() for arg in self.args)
        return f"{self.udf.signature()}({inner})"

    @property
    def is_udf(self) -> bool:
        return True

    @property
    def cpu_seconds_per_row(self) -> float:
        return self.udf.cost_seconds


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def evaluate(self, row: Row) -> bool:
        return all(part.evaluate(row) for part in self.parts)

    def references(self) -> frozenset[str]:
        return frozenset(
            itertools.chain.from_iterable(p.references() for p in self.parts)
        )

    def signature(self) -> str:
        return "(" + " AND ".join(p.signature() for p in self.parts) + ")"

    @property
    def is_udf(self) -> bool:
        return any(part.is_udf for part in self.parts)

    @property
    def cpu_seconds_per_row(self) -> float:
        return sum(part.cpu_seconds_per_row for part in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def evaluate(self, row: Row) -> bool:
        return any(part.evaluate(row) for part in self.parts)

    def references(self) -> frozenset[str]:
        return frozenset(
            itertools.chain.from_iterable(p.references() for p in self.parts)
        )

    def signature(self) -> str:
        return "(" + " OR ".join(p.signature() for p in self.parts) + ")"

    @property
    def is_udf(self) -> bool:
        return any(part.is_udf for part in self.parts)

    @property
    def cpu_seconds_per_row(self) -> float:
        return sum(part.cpu_seconds_per_row for part in self.parts)


def conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten nested ANDs into a list of conjuncts."""
    if isinstance(predicate, And):
        flat: list[Predicate] = []
        for part in predicate.parts:
            flat.extend(conjuncts(part))
        return flat
    return [predicate]


def conjunction(parts: Sequence[Predicate]) -> Predicate:
    """Inverse of :func:`conjuncts`; single predicates stay unwrapped."""
    if not parts:
        raise PlanError("empty conjunction")
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


# ---------------------------------------------------------------------------
# Join conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinCondition:
    """Equality condition ``left = right`` between two aliases."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.alias == self.right.alias:
            raise PlanError(
                f"join condition within a single alias: {self.describe()}"
            )

    def aliases(self) -> frozenset[str]:
        return frozenset((self.left.alias, self.right.alias))

    def side_for(self, alias_set: frozenset[str]) -> ColumnRef:
        """The ref that lives inside ``alias_set`` (raises if neither)."""
        if self.left.alias in alias_set:
            return self.left
        if self.right.alias in alias_set:
            return self.right
        raise PlanError(
            f"condition {self.describe()} touches none of {sorted(alias_set)}"
        )

    def describe(self) -> str:
        return f"{self.left.describe()} = {self.right.describe()}"


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

AGGREGATE_OPS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate in a GROUP BY: ``op(ref) AS output_name``."""

    op: str
    arg: ColumnRef | None
    output_name: str

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise PlanError(f"unknown aggregate: {self.op!r}")
        if self.op != "count" and self.arg is None:
            raise PlanError(f"aggregate {self.op} requires an argument")

    def initial(self) -> Any:
        if self.op == "count":
            return 0
        if self.op == "sum":
            return 0.0
        if self.op == "avg":
            return (0.0, 0)
        return None

    def step(self, state: Any, row: Row) -> Any:
        if self.op == "count":
            return state + 1
        assert self.arg is not None
        value = self.arg.evaluate(row)
        if value is None:
            return state
        if self.op == "sum":
            return state + value
        if self.op == "avg":
            total, count = state
            return (total + value, count + 1)
        if self.op == "min":
            return value if state is None or value < state else state
        return value if state is None or value > state else state

    def final(self, state: Any) -> Any:
        if self.op == "avg":
            total, count = state
            return total / count if count else None
        return state

    def describe(self) -> str:
        arg = self.arg.describe() if self.arg is not None else "*"
        return f"{self.op}({arg}) AS {self.output_name}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of relational expressions."""

    def children(self) -> tuple["Expr", ...]:
        raise NotImplementedError

    def with_children(self, children: tuple["Expr", ...]) -> "Expr":
        raise NotImplementedError

    def aliases(self) -> frozenset[str]:
        """All table aliases visible in this subtree's output."""
        merged: set[str] = set()
        for child in self.children():
            merged.update(child.aliases())
        return frozenset(merged)

    def schema(self, catalog: "Catalog") -> Schema:
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass(frozen=True)
class Scan(Expr):
    """Scan of a base table under an alias."""

    table: str
    alias: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        if children:
            raise PlanError("scan has no children")
        return self

    def aliases(self) -> frozenset[str]:
        return frozenset((self.alias,))

    def schema(self, catalog: "Catalog") -> Schema:
        return qualify_schema(self.alias, catalog.schema_of(self.table))

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"scan {self.table} AS {self.alias}"


@dataclass(frozen=True)
class Filter(Expr):
    child: Expr
    predicate: Predicate

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        (child,) = children
        return Filter(child, self.predicate)

    def schema(self, catalog: "Catalog") -> Schema:
        return self.child.schema(catalog)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (f"{pad}filter {self.predicate.signature()}\n"
                f"{self.child.describe(indent + 2)}")


@dataclass(frozen=True)
class Join(Expr):
    left: Expr
    right: Expr
    conditions: tuple[JoinCondition, ...]

    def __post_init__(self) -> None:
        if not self.conditions:
            raise PlanError("join requires at least one condition")
        left_aliases = self.left.aliases()
        right_aliases = self.right.aliases()
        for condition in self.conditions:
            touched = condition.aliases()
            if not (touched & left_aliases and touched & right_aliases):
                raise PlanError(
                    f"join condition {condition.describe()} does not span "
                    f"the two join inputs"
                )

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        left, right = children
        return Join(left, right, self.conditions)

    def schema(self, catalog: "Catalog") -> Schema:
        return self.left.schema(catalog).merge(self.right.schema(catalog))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        conds = " AND ".join(c.describe() for c in self.conditions)
        return (f"{pad}join [{conds}]\n"
                f"{self.left.describe(indent + 2)}\n"
                f"{self.right.describe(indent + 2)}")


@dataclass(frozen=True)
class GroupBy(Expr):
    child: Expr
    keys: tuple[ColumnRef, ...]
    aggregates: tuple[Aggregate, ...]

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        (child,) = children
        return GroupBy(child, self.keys, self.aggregates)

    def schema(self, catalog: "Catalog") -> Schema:
        child_schema = self.child.schema(catalog)
        fields: list[tuple[str, FieldType]] = []
        for key in self.keys:
            name = key.qualified
            if key.steps:
                raise PlanError("group-by keys must be top-level columns")
            fields.append((name, child_schema.type_of(name)))
        for aggregate in self.aggregates:
            fields.append((aggregate.output_name, FieldType.atomic("float")))
        return Schema(tuple(fields))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        keys = ", ".join(key.describe() for key in self.keys)
        aggs = ", ".join(agg.describe() for agg in self.aggregates)
        return (f"{pad}group by [{keys}] compute [{aggs}]\n"
                f"{self.child.describe(indent + 2)}")


@dataclass(frozen=True)
class OrderBy(Expr):
    child: Expr
    keys: tuple[ColumnRef, ...]
    descending: bool = False
    limit: int | None = None

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        (child,) = children
        return OrderBy(child, self.keys, self.descending, self.limit)

    def schema(self, catalog: "Catalog") -> Schema:
        return self.child.schema(catalog)

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        keys = ", ".join(key.describe() for key in self.keys)
        direction = "desc" if self.descending else "asc"
        suffix = f" limit {self.limit}" if self.limit is not None else ""
        return (f"{pad}order by [{keys}] {direction}{suffix}\n"
                f"{self.child.describe(indent + 2)}")


@dataclass(frozen=True)
class Project(Expr):
    """Final projection: (source ref or aggregate output name, out name)."""

    child: Expr
    outputs: tuple[tuple[ColumnRef | str, str], ...]

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Expr, ...]) -> Expr:
        (child,) = children
        return Project(child, self.outputs)

    def schema(self, catalog: "Catalog") -> Schema:
        child_schema = self.child.schema(catalog)
        fields: list[tuple[str, FieldType]] = []
        for source, out_name in self.outputs:
            if isinstance(source, ColumnRef):
                if source.steps:
                    fields.append((out_name, FieldType.atomic("string")))
                else:
                    fields.append(
                        (out_name, child_schema.type_of(source.qualified))
                    )
            else:
                fields.append((out_name, child_schema.type_of(source)))
        return Schema(tuple(fields))

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        cols = ", ".join(
            f"{src.describe() if isinstance(src, ColumnRef) else src}"
            f" AS {name}"
            for src, name in self.outputs
        )
        return f"{pad}project [{cols}]\n{self.child.describe(indent + 2)}"

    def project_row(self, row: Row) -> Row:
        out: Row = {}
        for source, name in self.outputs:
            if isinstance(source, ColumnRef):
                out[name] = source.evaluate(row)
            else:
                out[name] = row.get(source)
        return out


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class Catalog:
    """Name -> schema mapping (backed by the DFS-resident base tables)."""

    def __init__(self, schemas: dict[str, Schema] | None = None):
        self._schemas: dict[str, Schema] = dict(schemas or {})

    def register(self, table: str, schema: Schema) -> None:
        self._schemas[table] = schema

    def schema_of(self, table: str) -> Schema:
        try:
            return self._schemas[table]
        except KeyError:
            raise SchemaError(f"unknown table: {table!r}") from None

    def tables(self) -> list[str]:
        return sorted(self._schemas)

    def __contains__(self, table: str) -> bool:
        return table in self._schemas


# ---------------------------------------------------------------------------
# Tree traversal helpers
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterable[Expr]:
    """Pre-order traversal."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def transform_bottom_up(expr: Expr,
                        fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild the tree applying ``fn`` to each node after its children."""
    children = tuple(
        transform_bottom_up(child, fn) for child in expr.children()
    )
    return fn(expr.with_children(children))


@dataclass(frozen=True)
class QuerySpec:
    """A full query: name, root expression, and the alias -> table map."""

    name: str
    root: Expr
    description: str = ""
    alias_tables: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.alias_tables:
            discovered = {
                node.alias: node.table
                for node in walk(self.root)
                if isinstance(node, Scan)
            }
            object.__setattr__(self, "alias_tables", discovered)
