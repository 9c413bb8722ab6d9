"""Schema description for semistructured (JSON-like) tables.

Jaql operates on JSON-like records where nested arrays and structs are
pervasive (paper, Section 1). The schema layer here is deliberately
lightweight: it names the fields of a record, gives each a type descriptor
used for validation and byte-size estimation, and supports nested *paths*
such as ``addr[0].zip`` (the restaurant example, Section 4.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import SchemaError

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: Atomic type tags understood by the schema layer.
ATOMIC_TYPES = ("int", "float", "string", "bool", "date")

#: Approximate on-disk bytes for a serialized value of each atomic type.
#: These drive the simulator's byte accounting (average record size etc.),
#: mirroring how the paper computes ``rec_size_avg = size(Ro)/|Ro|``.
_ATOMIC_SIZES = {"int": 8, "float": 8, "string": 16, "bool": 1, "date": 10}


@dataclass(frozen=True)
class FieldType:
    """Type descriptor: atomic, ``array<elem>``, or ``struct{...}``.

    ``kind`` is one of :data:`ATOMIC_TYPES`, ``"array"`` or ``"struct"``.
    For arrays, ``element`` holds the element type; for structs, ``fields``
    maps member names to their types.
    """

    kind: str
    element: "FieldType | None" = None
    fields: tuple[tuple[str, "FieldType"], ...] = ()

    def __post_init__(self) -> None:
        if self.kind in ATOMIC_TYPES:
            return
        if self.kind == "array":
            if self.element is None:
                raise SchemaError("array type requires an element type")
        elif self.kind == "struct":
            if not self.fields:
                raise SchemaError("struct type requires at least one field")
        else:
            raise SchemaError(f"unknown type kind: {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def atomic(kind: str) -> "FieldType":
        if kind not in ATOMIC_TYPES:
            raise SchemaError(f"not an atomic type: {kind!r}")
        return FieldType(kind)

    @staticmethod
    def array(element: "FieldType") -> "FieldType":
        return FieldType("array", element=element)

    @staticmethod
    def struct(**members: "FieldType") -> "FieldType":
        return FieldType("struct", fields=tuple(members.items()))

    # -- behaviour ----------------------------------------------------------

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` conforms to this type (None allowed)."""
        if value is None:
            return True
        if self.kind == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.kind == "float":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.kind == "string" or self.kind == "date":
            return isinstance(value, str)
        if self.kind == "bool":
            return isinstance(value, bool)
        if self.kind == "array":
            assert self.element is not None
            return isinstance(value, list) and all(
                self.element.validate(item) for item in value
            )
        # struct
        if not isinstance(value, dict):
            return False
        members = dict(self.fields)
        return all(key in members and members[key].validate(item)
                   for key, item in value.items())

    def estimated_size(self, value: Any) -> int:
        """Approximate serialized byte size of ``value`` under this type."""
        if value is None:
            return 1
        if self.kind in _ATOMIC_SIZES:
            if self.kind == "string":
                return max(1, len(value))
            return _ATOMIC_SIZES[self.kind]
        if self.kind == "array":
            element = self.element
            assert element is not None
            total = 2
            for item in value:
                total += element.estimated_size(item)
            return total
        members = dict(self.fields)
        total = 2
        for key, item in value.items():
            member = members.get(key)
            if member is not None:
                total += len(key) + member.estimated_size(item)
        return total

    def describe(self) -> str:
        if self.kind in ATOMIC_TYPES:
            return self.kind
        if self.kind == "array":
            assert self.element is not None
            return f"array<{self.element.describe()}>"
        inner = ", ".join(f"{name}: {t.describe()}" for name, t in self.fields)
        return f"struct{{{inner}}}"


def estimate_value_size(value: Any) -> int:
    """Schema-free estimate of the serialized size of a JSON-like value.

    Used wherever records do not match a declared schema: shuffle traffic,
    tagged join records, and intermediate job outputs.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return max(1, len(value))
    if isinstance(value, (list, tuple)):
        total = 2
        for item in value:
            total += estimate_value_size(item)
        return total
    if isinstance(value, dict):
        total = 2
        for key, item in value.items():
            total += len(str(key)) + 2 + estimate_value_size(item)
        return total
    return 8


def estimate_dict_size(row: dict[str, Any]) -> int:
    """Schema-free size of one record dict; equals ``estimate_value_size``.

    Inlines the scalar dispatch for the four value shapes that dominate
    engine rows (int/float, str, None/bool) and only falls back to the
    recursive estimator for nested values. ``type(True) is bool`` (never
    ``int``), so the branch order cannot misclassify bools.
    """
    total = 2
    evs = estimate_value_size
    for key, item in row.items():
        kind = type(item)
        if kind is int or kind is float:
            total += len(key) + 10
        elif kind is str:
            total += len(key) + 2 + (len(item) or 1)
        elif item is None or kind is bool:
            total += len(key) + 3
        else:
            total += len(key) + 2 + evs(item)
    return total


def estimate_dict_sizes(rows: Iterable[dict[str, Any]]) -> list[int]:
    """Bulk :func:`estimate_dict_size` over a batch of record dicts."""
    size_of = estimate_dict_size
    return [size_of(row) for row in rows]


def column_values_conform(kind: str, values: Iterable[Any]) -> bool:
    """Do all ``values`` of a ``kind`` column size value-exactly?

    The per-column leg of the value-exactness scan (see
    ``DFSFile.sizes_are_value_exact``): for conforming values the schema
    sizer and :func:`estimate_value_size` agree byte for byte. Exact
    ``type`` membership is deliberate -- a bool smuggled into an int
    field sizes 8 by schema but 3 by value and must disqualify the
    column. Only meaningful for kinds admitted by
    ``Schema.sizes_value_exact_scannable``.
    """
    if not isinstance(values, list):
        values = list(values)
    observed = set(map(type, values))
    observed.discard(type(None))
    if kind == "string":
        return observed <= {str}
    if kind == "bool":
        return observed <= {bool}
    if kind == "date":
        # Schema charges a fixed 10-byte payload; value sizing charges
        # the string's length -- equal exactly for the canonical 10-char
        # ``YYYY-MM-DD`` form.
        if not observed <= {str}:
            return False
        return not any(v is not None and len(v) != 10 for v in values)
    return observed <= {int, float}


# Convenience singletons for the common atomics.
INT = FieldType.atomic("int")
FLOAT = FieldType.atomic("float")
STRING = FieldType.atomic("string")
BOOL = FieldType.atomic("bool")
DATE = FieldType.atomic("date")


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)|\[(\d+)\]|(\.)")


@dataclass(frozen=True)
class Path:
    """A navigation path into a record, e.g. ``addr[0].zip``.

    Steps are either field names (str) or array indexes (int). The first
    step is always a field name (the top-level attribute).
    """

    steps: tuple[str | int, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise SchemaError("empty path")
        if not isinstance(self.steps[0], str):
            raise SchemaError("path must start with a field name")

    @staticmethod
    def parse(text: str) -> "Path":
        """Parse ``a[0].b`` style path text into a :class:`Path`."""
        steps: list[str | int] = []
        pos = 0
        expecting_name = True
        while pos < len(text):
            match = _PATH_TOKEN.match(text, pos)
            if match is None:
                raise SchemaError(f"bad path syntax: {text!r} at offset {pos}")
            name, index, dot = match.groups()
            if name is not None:
                if not expecting_name:
                    raise SchemaError(f"unexpected name in path: {text!r}")
                steps.append(name)
                expecting_name = False
            elif index is not None:
                if expecting_name:
                    raise SchemaError(f"unexpected index in path: {text!r}")
                steps.append(int(index))
            else:
                assert dot is not None
                if expecting_name:
                    raise SchemaError(f"unexpected '.' in path: {text!r}")
                expecting_name = True
            pos = match.end()
        if expecting_name or not steps:
            raise SchemaError(f"incomplete path: {text!r}")
        return Path(tuple(steps))

    @property
    def root(self) -> str:
        """The top-level attribute this path starts from."""
        first = self.steps[0]
        assert isinstance(first, str)
        return first

    def evaluate(self, record: dict[str, Any]) -> Any:
        """Navigate ``record``; missing fields / out-of-range yield None."""
        value: Any = record
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
        parts: list[str] = []
        for step in self.steps:
            if isinstance(step, str):
                parts.append(step if not parts else f".{step}")
            else:
                parts.append(f"[{step}]")
        return "".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schema:
    """An ordered set of named, typed top-level fields."""

    fields: tuple[tuple[str, FieldType], ...]
    _index: dict[str, FieldType] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: per-field sizing plan: name -> (base, tag, payload). ``base`` is the
    #: field's framing overhead (len(name) + 2); tag 0 = fixed-size atomic
    #: with payload holding the full non-null size, tag 1 = string, tag 2 =
    #: nested type with payload holding the FieldType. Precomputing this
    #: keeps :meth:`estimated_row_size` -- the single hottest call of DFS
    #: materialization -- to two dict lookups per field.
    _sizers: dict[str, tuple[int, int, Any]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: True when every field kind sizes exactly like the schema-free value
    #: estimator would for *conforming* values: int/float (payload 8),
    #: string (len or 1) and bool (payload 1) all mirror
    #: :func:`estimate_value_size` arithmetic, while date (fixed 10 vs
    #: string length) and nested array/struct types (different framing) do
    #: not. The DFS uses this to decide whether stored per-row sizes can
    #: double as value-exact sizes for batch byte accounting.
    sizes_value_exact_kinds: bool = field(
        init=False, repr=False, compare=False, default=True
    )
    #: Like :attr:`sizes_value_exact_kinds` but additionally admits date
    #: fields, whose fixed 10-byte payload matches value sizing only for
    #: canonical 10-char strings -- i.e. exactness is *data-dependent* and
    #: needs the DFS file's per-column scan to certify.
    sizes_value_exact_scannable: bool = field(
        init=False, repr=False, compare=False, default=True
    )
    #: key-tuple -> per-position sizing plan memo for the bulk sizer; rows
    #: from one producer almost always share a key layout, so the per-field
    #: name lookups collapse to one dict hit per row (bounded; see
    #: :meth:`estimated_row_sizes`).
    _row_plans: dict[tuple[str, ...], list[tuple[int, int, Any]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name, _ in self.fields:
            if name in seen:
                raise SchemaError(f"duplicate field name: {name!r}")
            seen.add(name)
        object.__setattr__(
            self, "_index", {name: ftype for name, ftype in self.fields}
        )
        sizers: dict[str, tuple[int, int, Any]] = {}
        exact_kinds = True
        scannable = True
        for name, ftype in self.fields:
            base = len(name) + 2
            if ftype.kind == "string":
                sizers[name] = (base, 1, None)
            elif ftype.kind in _ATOMIC_SIZES:
                sizers[name] = (base, 0, base + _ATOMIC_SIZES[ftype.kind])
            else:
                sizers[name] = (base, 2, ftype)
            if ftype.kind not in ("int", "float", "string", "bool"):
                exact_kinds = False
                if ftype.kind != "date":
                    scannable = False
        object.__setattr__(self, "_sizers", sizers)
        object.__setattr__(self, "sizes_value_exact_kinds", exact_kinds)
        object.__setattr__(self, "sizes_value_exact_scannable", scannable)

    @staticmethod
    def of(**members: FieldType) -> "Schema":
        return Schema(tuple(members.items()))

    # -- lookups ------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[tuple[str, FieldType]]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def type_of(self, name: str) -> FieldType:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no such field: {name!r}") from None

    # -- derivations --------------------------------------------------------

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to ``names`` (in the given order)."""
        return Schema(tuple((name, self.type_of(name)) for name in names))

    def merge(self, other: "Schema") -> "Schema":
        """Union of two schemas; duplicate names must agree on type."""
        merged = list(self.fields)
        for name, ftype in other.fields:
            if name in self._index:
                if self._index[name] != ftype:
                    raise SchemaError(
                        f"field {name!r} has conflicting types in merge"
                    )
                continue
            merged.append((name, ftype))
        return Schema(tuple(merged))

    # -- row-level behaviour -------------------------------------------------

    def validate_row(self, row: dict[str, Any]) -> None:
        """Raise :class:`SchemaError` when ``row`` does not conform."""
        for name, value in row.items():
            if name not in self._index:
                raise SchemaError(f"unexpected field {name!r} in row")
            if not self._index[name].validate(value):
                raise SchemaError(
                    f"value {value!r} does not match type "
                    f"{self._index[name].describe()} for field {name!r}"
                )

    def estimated_row_size(self, row: dict[str, Any]) -> int:
        """Approximate serialized byte size of ``row`` (drives DFS sizes).

        Fields outside the schema (intermediate results carry plan-specific
        qualified fields) fall back to the schema-free estimator so byte
        accounting stays consistent end to end.
        """
        sizers = self._sizers
        total = 2  # record framing
        for name, value in row.items():
            entry = sizers.get(name)
            if entry is None:
                total += len(name) + 2 + estimate_value_size(value)
            elif value is None:
                total += entry[0] + 1
            else:
                tag = entry[1]
                if tag == 0:
                    total += entry[2]
                elif tag == 1:
                    total += entry[0] + (len(value) or 1)
                else:
                    total += entry[0] + entry[2].estimated_size(value)
        return total

    def estimated_row_sizes(self, rows: Iterable[dict[str, Any]]) -> list[int]:
        """Bulk :meth:`estimated_row_size` (identical arithmetic per row).

        DFS materialization sizes every stored row; doing it batch-at-a-time
        hoists the sizer lookups out of the per-row loop, and the common
        empty-schema case (intermediate job outputs) reduces to the
        schema-free dict sizer, which is the same fallback expression.
        """
        sizers = self._sizers
        if not sizers:
            return estimate_dict_sizes(rows)
        get = sizers.get
        evs = estimate_value_size
        # Rows in one batch overwhelmingly share a key layout; memoizing
        # the per-position plan on the key tuple replaces the per-field
        # name lookup with one dict hit per row. Tag 3 marks fields outside
        # the schema (value-estimator fallback); its None case collapses to
        # the same ``base + 1`` as the typed entries.
        plans = self._row_plans
        plan_of = plans.get
        plan = None
        plan_keys: tuple[str, ...] | None = None
        sizes: list[int] = []
        append = sizes.append
        for row in rows:
            keys = tuple(row)
            if keys != plan_keys:
                plan_keys = keys
                plan = plan_of(keys)
                if plan is None:
                    plan = [
                        get(name) or (len(name) + 2, 3, None)
                        for name in keys
                    ]
                    if len(plans) < 1024:
                        plans[keys] = plan
            total = 2  # record framing
            for entry, value in zip(plan, row.values()):
                if value is None:
                    total += entry[0] + 1
                else:
                    tag = entry[1]
                    if tag == 0:
                        total += entry[2]
                    elif tag == 1:
                        total += entry[0] + (len(value) or 1)
                    elif tag == 3:
                        total += entry[0] + evs(value)
                    else:
                        total += entry[0] + entry[2].estimated_size(value)
            append(total)
        return sizes

    def describe(self) -> str:
        inner = ", ".join(f"{name}: {t.describe()}" for name, t in self.fields)
        return f"schema {{{inner}}}"
