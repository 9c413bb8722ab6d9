"""Table and column statistics (Section 4.3 of the paper).

During pilot runs and online collection DYNO keeps, per table: cardinality
and average tuple size; and per join attribute: min/max values and a KMV
distinct-value synopsis. :class:`RunningStats` is the mutable accumulator a
task updates record by record; :class:`TableStats` is the frozen result the
optimizer consumes, including the paper's extrapolation from a sample
``Rs ⊆ R``:

    |R|_est = size(R) / rec_size_avg            (cardinality)
    DV(R)_est = |R| / |Rs| * DV(Rs)             (distinct values)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.data.table import Row
from repro.errors import StatisticsError
from repro.stats.kmv import KMVSynopsis


def _comparable(value: Any) -> bool:
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


#: Buckets used for the optional equi-depth histograms (paper Section 4.3:
#: "further statistics can be collected, including ... histograms. This
#: would lead to more accurate cost estimations").
HISTOGRAM_BUCKETS = 16

#: Heavy hitters retained per column: the top-K most frequent sampled
#: values with their sample frequency. K=8 keeps the plan payload tiny
#: while covering the head of any Zipf-like distribution worth special
#: casing (rank 9 of Zipf(1.2) is already < 2% of the mass).
HEAVY_HITTER_K = 8


@dataclass(frozen=True)
class Histogram:
    """Equi-depth histogram over a numeric column.

    ``boundaries`` has ``len(counts) + 1`` entries; bucket *i* covers
    ``[boundaries[i], boundaries[i+1]]`` and holds ``counts[i]`` sampled
    values. Selectivity fractions are scale-free, so a histogram built on
    a sample applies unchanged to the extrapolated relation.
    """

    boundaries: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.counts) + 1:
            raise StatisticsError("histogram boundaries/counts mismatch")

    @staticmethod
    def from_counts(value_counts: dict[Any, int],
                    buckets: int = HISTOGRAM_BUCKETS) -> "Histogram | None":
        """Build from exact (value -> count) pairs; None for non-numeric."""
        numeric = [
            (float(value), count) for value, count in value_counts.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        ]
        if len(numeric) < 2 or len(numeric) < len(value_counts):
            return None
        numeric.sort()
        total = sum(count for _, count in numeric)
        per_bucket = max(1, total // buckets)
        boundaries = [numeric[0][0]]
        counts: list[int] = []
        in_bucket = 0
        last_index = len(numeric) - 1
        for index, (value, count) in enumerate(numeric):
            in_bucket += count
            # Never close a bucket on the final value: the unconditional
            # append below owns it. (Closing there duplicated the last
            # boundary and emitted a zero-width, zero-count trailing
            # bucket.)
            if (index < last_index and in_bucket >= per_bucket
                    and len(counts) < buckets - 1):
                boundaries.append(value)
                counts.append(in_bucket)
                in_bucket = 0
        boundaries.append(numeric[-1][0])
        counts.append(in_bucket)
        return Histogram(tuple(boundaries), tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, literal: float) -> float:
        """Estimated fraction of values strictly below ``literal``."""
        total = self.total
        if total == 0:
            return 0.0
        if literal <= self.boundaries[0]:
            return 0.0
        if literal >= self.boundaries[-1]:
            return 1.0
        below = 0.0
        for index, count in enumerate(self.counts):
            low = self.boundaries[index]
            high = self.boundaries[index + 1]
            if literal >= high:
                below += count
                continue
            if literal > low and high > low:
                below += count * (literal - low) / (high - low)
            break
        return min(1.0, below / total)

    def to_lists(self) -> dict[str, list]:
        return {"boundaries": list(self.boundaries),
                "counts": list(self.counts)}

    @staticmethod
    def from_lists(payload: dict[str, list] | None) -> "Histogram | None":
        if not payload:
            return None
        return Histogram(tuple(payload["boundaries"]),
                         tuple(payload["counts"]))

#: Separator for *composite* statistics columns: statistics over the tuple
#: of several attributes, collected when a relation joins a peer on a
#: multi-column key (e.g. lineitem x partsupp on partkey AND suppkey).
COMPOSITE_SEPARATOR = "\x1f"


def composite_name(column_names: Iterable[str]) -> str:
    """Canonical statistics-column name for a composite key."""
    return COMPOSITE_SEPARATOR.join(sorted(column_names))


def composite_parts(name: str) -> list[str]:
    """Inverse of :func:`composite_name`; single columns return [name]."""
    return name.split(COMPOSITE_SEPARATOR)


@dataclass
class ColumnStats:
    """Frozen statistics of one attribute.

    Beyond the paper's min/max/DV triple, the accumulator records the
    sample's frequency profile (``f1``/``f2``: values seen exactly
    once/twice) and a split-overlap ratio, which drive the distinct-value
    extrapolation in :meth:`scaled` (see there). All extra fields default
    to "unknown", in which case extrapolation falls back to the paper's
    linear formula.
    """

    name: str
    distinct_values: float
    min_value: Any = None
    max_value: Any = None
    null_fraction: float = 0.0
    #: values observed exactly once / exactly twice in the sample
    #: (None when per-value counting overflowed its budget).
    f1: float | None = None
    f2: float | None = None
    #: global sample DV divided by the sum of per-split DVs, in (0, 1]:
    #: ~1.0 means splits hold disjoint values (clustered or key-like
    #: columns), small values mean the same values recur in every split.
    split_overlap: float | None = None
    #: non-null observations behind these statistics (sample size).
    sample_count: float | None = None
    #: optional equi-depth histogram over numeric values (Section 4.3's
    #: "additional statistics"); selectivity fractions are scale-free.
    histogram: "Histogram | None" = None
    #: top-K ``(value, fraction)`` pairs over non-null samples, most
    #: frequent first; empty when unknown (count table overflowed).
    #: Fractions are scale-free, so they survive extrapolation unchanged.
    heavy_hitters: tuple = ()

    def scaled(self, factor: float) -> "ColumnStats":
        """Extrapolate distinct values to ``factor = |R| / |Rs|`` x sample.

        The paper scales DV linearly (Section 4.3) and notes that accurate
        extrapolation from samples is future work [9]. Linear scaling is
        exact for unique keys and for values *clustered* by split, but
        wildly overestimates saturated columns (a fact table's foreign key
        has at most as many distinct values as the dimension). We keep the
        linear formula whenever the per-split value sets are (near)
        disjoint -- which is also the unique-key case -- and otherwise use
        the standard sample estimators: Chao (``d + f1^2 / 2 f2``) when
        duplicate structure is visible, else GEE (``sqrt(1/q) f1 + d -
        f1``), both capped by the linear bound. Min/max and the null
        fraction stay as observed.
        """
        d = self.distinct_values
        if d <= 0:
            return ColumnStats(self.name, 0.0, self.min_value,
                               self.max_value, self.null_fraction,
                               self.f1, self.f2, self.split_overlap,
                               self.sample_count, self.histogram,
                               self.heavy_hitters)
        linear = max(1.0, d * factor)
        duplication = (d / self.sample_count
                       if self.sample_count else 1.0)
        if factor <= 1.0:
            # Downscaling (e.g. applying a predicate's selectivity): the
            # conventional proportional reduction.
            estimate = linear
        elif self.split_overlap is None or self.f1 is None:
            estimate = linear  # no profile: the paper's formula
        elif self.split_overlap < 0.9:
            # The same values recur across splits: the column saturates,
            # and the sample behaves like a row-level one -> Chao/GEE.
            estimate = self._sample_estimate(factor, d)
        elif duplication < 0.7:
            # Values are disjoint across splits but repeat *within* one:
            # the column is clustered by split (e.g. a fact table sorted by
            # order key); each new split contributes fresh values, so the
            # paper's linear formula is exact.
            estimate = linear
        else:
            # Nearly all singletons: a sparse domain and a unique key look
            # identical at this sample size. Estimate low (GEE): for
            # broadcast-join safety, underestimating a distinct count only
            # ever *overestimates* join results -- the conservative error.
            estimate = self._sample_estimate(factor, d)
        estimate = min(max(estimate, d), linear)
        return ColumnStats(
            self.name,
            estimate,
            self.min_value,
            self.max_value,
            self.null_fraction,
            self.f1,
            self.f2,
            self.split_overlap,
            self.sample_count,
            self.histogram,
            self.heavy_hitters,
        )

    def _sample_estimate(self, factor: float, d: float) -> float:
        """Chao (1984) when duplicate structure is visible, else GEE."""
        f1 = self.f1 if self.f1 is not None else 0.0
        f2 = self.f2 if self.f2 is not None else 0.0
        if f2 > 0:
            return d + (f1 * f1) / (2.0 * f2)
        return (factor ** 0.5) * f1 + (d - f1)


@dataclass
class TableStats:
    """Frozen statistics of one (virtual) relation.

    ``row_count`` is the estimated cardinality *after* local predicates;
    the optimizer treats the relation as a base table with these statistics
    (Section 5.1: "the statistics given to the optimizer correspond to R'").
    """

    row_count: float
    size_bytes: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    #: True when produced by a complete scan (exact), False for samples.
    exact: bool = False

    @property
    def avg_row_size(self) -> float:
        if self.row_count <= 0:
            return 0.0
        return self.size_bytes / self.row_count

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def distinct_values(self, name: str) -> float:
        """Distinct values of ``name``; defaults to |R| when unknown.

        Assuming key-like columns when statistics are missing is the
        standard conservative choice for join-selectivity formulas.
        """
        stats = self.columns.get(name)
        if stats is None or stats.distinct_values <= 0:
            return max(1.0, self.row_count)
        return min(stats.distinct_values, max(1.0, self.row_count))

    def scaled_to(self, row_count: float, size_bytes: float) -> "TableStats":
        """Extrapolate sample statistics to a full relation (Section 4.3)."""
        if self.row_count <= 0:
            return TableStats(row_count, size_bytes, dict(self.columns))
        factor = row_count / self.row_count
        return TableStats(
            row_count,
            size_bytes,
            {
                name: stats.scaled(factor)
                for name, stats in self.columns.items()
            },
            exact=False,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "row_count": self.row_count,
            "size_bytes": self.size_bytes,
            "exact": self.exact,
            "columns": {
                name: {
                    "distinct_values": stats.distinct_values,
                    "min": stats.min_value,
                    "max": stats.max_value,
                    "null_fraction": stats.null_fraction,
                    "histogram": (stats.histogram.to_lists()
                                  if stats.histogram else None),
                    "heavy_hitters": [
                        [list(value) if isinstance(value, tuple) else value,
                         fraction]
                        for value, fraction in stats.heavy_hitters
                    ],
                }
                for name, stats in self.columns.items()
            },
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "TableStats":
        try:
            columns = {
                name: ColumnStats(
                    name,
                    entry["distinct_values"],
                    entry.get("min"),
                    entry.get("max"),
                    entry.get("null_fraction", 0.0),
                    histogram=Histogram.from_lists(entry.get("histogram")),
                    heavy_hitters=tuple(
                        (tuple(value) if isinstance(value, list) else value,
                         fraction)
                        for value, fraction in entry.get("heavy_hitters", [])
                    ),
                )
                for name, entry in payload.get("columns", {}).items()
            }
            return TableStats(
                payload["row_count"],
                payload["size_bytes"],
                columns,
                exact=payload.get("exact", False),
            )
        except KeyError as exc:
            raise StatisticsError(f"malformed statistics payload: {exc}") from exc


class RunningColumn:
    """Mutable per-column accumulator (min/max/nulls/KMV/frequency profile).

    Besides the paper's KMV synopsis, it keeps a *bounded* per-value count
    table (for the f1/f2 frequency profile driving DV extrapolation) and
    the sum of per-split distinct counts (for the split-overlap ratio).
    When the count table exceeds its budget it is dropped and the KMV
    estimate alone is used, exactly as a production system would bound
    task-side memory.
    """

    #: budget for exact per-value counting inside one task / one merge.
    MAX_EXACT_VALUES = 32768

    def __init__(self, name: str, kmv_size: int = 1024):
        self.name = name
        self.synopsis = KMVSynopsis(kmv_size)
        self.min_value: Any = None
        self.max_value: Any = None
        self.null_count = 0
        self.total_count = 0
        self.value_counts: dict[Any, int] | None = {}
        #: sum of per-split distinct counts (set when partials merge).
        self._split_dv_sum: float | None = None

    def update(self, value: Any) -> None:
        self.total_count += 1
        if value is None:
            self.null_count += 1
            return
        self.synopsis.add(value)
        if self.value_counts is not None:
            key = _count_key(value)
            self.value_counts[key] = self.value_counts.get(key, 0) + 1
            if len(self.value_counts) > self.MAX_EXACT_VALUES:
                self.value_counts = None
        if _comparable(value):
            if self.min_value is None or _less(value, self.min_value):
                self.min_value = value
            if self.max_value is None or _less(self.max_value, value):
                self.max_value = value

    def update_many(self, values: list) -> None:
        """Bulk accumulate; final state identical to per-value update.

        Splits the work into phase loops (nulls, synopsis, count table,
        min/max) so each loop hoists its attribute lookups; the KMV
        synopsis ingests through its own bulk path. Non-null relative
        order is preserved, so the count table's insertion order -- and
        therefore the overflow point at which it is dropped -- matches
        the serial accumulator exactly.
        """
        self.total_count += len(values)
        non_null = [value for value in values if value is not None]
        self.null_count += len(values) - len(non_null)
        if not non_null:
            return
        # Uniformly typed scalar batches (the overwhelmingly common case)
        # take C-speed shortcuts below; anything mixed or nested falls back
        # to the per-value loops. Exact ``type`` membership keeps bools
        # (orderable like ints but not _comparable) on the slow path.
        kinds = set(map(type, non_null))
        scalar = kinds <= {int, float, str}
        if scalar:
            # The synopsis is a pure function of the distinct-hash set, so
            # duplicates are no-ops; deduping first hashes each distinct
            # value once. Equality-merged pairs (2 and 2.0) share a
            # canonical hash by design, and bools -- which equal ints but
            # hash differently -- cannot reach this branch.
            self.synopsis.add_all(dict.fromkeys(non_null))
        else:
            self.synopsis.add_all(non_null)
        counts = self.value_counts
        if counts is not None:
            limit = self.MAX_EXACT_VALUES
            if scalar:
                # Scalars are their own _count_key; bulk-count then fold.
                # Crossing the budget drops the table either way, so
                # checking once per batch instead of once per insert
                # reaches the identical final state.
                batch_counts = Counter(non_null)
                if counts:
                    get = counts.get
                    for key, count in batch_counts.items():
                        counts[key] = get(key, 0) + count
                else:
                    counts.update(batch_counts)
                if len(counts) > limit:
                    self.value_counts = None
            else:
                get = counts.get
                for value in non_null:
                    key = _count_key(value)
                    counts[key] = get(key, 0) + 1
                    if len(counts) > limit:
                        self.value_counts = None
                        break
        min_value = self.min_value
        max_value = self.max_value
        if scalar and (kinds <= {int, float} or kinds == {str}):
            # No numeric/string mixing, so _less degenerates to ``<`` and
            # builtins.min/max (first minimal/maximal element, matching
            # the strict-less update rule) give the identical answer.
            batch_min = min(non_null)
            batch_max = max(non_null)
            if min_value is None or _less(batch_min, min_value):
                min_value = batch_min
            if max_value is None or _less(max_value, batch_max):
                max_value = batch_max
        else:
            for value in non_null:
                if _comparable(value):
                    if min_value is None or _less(value, min_value):
                        min_value = value
                    if max_value is None or _less(max_value, value):
                        max_value = value
        self.min_value = min_value
        self.max_value = max_value

    def distinct_count(self) -> float:
        if self.value_counts is not None:
            return float(len(self.value_counts))
        return self.synopsis.estimate()

    def _split_dv_contribution(self) -> float:
        if self._split_dv_sum is not None:
            return self._split_dv_sum
        return self.distinct_count()

    def merge(self, other: "RunningColumn") -> "RunningColumn":
        if self.name != other.name:
            raise StatisticsError(
                f"cannot merge columns {self.name!r} and {other.name!r}"
            )
        merged = RunningColumn(self.name, self.synopsis.k)
        merged.synopsis = self.synopsis.merge(other.synopsis)
        merged.null_count = self.null_count + other.null_count
        merged.total_count = self.total_count + other.total_count
        if self.value_counts is not None and other.value_counts is not None:
            combined = dict(self.value_counts)
            for key, count in other.value_counts.items():
                combined[key] = combined.get(key, 0) + count
            merged.value_counts = (
                combined if len(combined) <= self.MAX_EXACT_VALUES else None
            )
        else:
            merged.value_counts = None
        merged._split_dv_sum = (self._split_dv_contribution()
                                + other._split_dv_contribution())
        for value in (self.min_value, other.min_value):
            if value is not None and (
                merged.min_value is None or _less(value, merged.min_value)
            ):
                merged.min_value = value
        for value in (self.max_value, other.max_value):
            if value is not None and (
                merged.max_value is None or _less(merged.max_value, value)
            ):
                merged.max_value = value
        return merged

    @staticmethod
    def merge_many(columns: "list[RunningColumn]") -> "RunningColumn":
        """N-way merge; identical to left-folding pairwise :meth:`merge`.

        Every constituent is associative and order-respecting: counts sum;
        the synopsis union keeps the k smallest hashes regardless of fold
        shape; the count table survives n-way exactly when it survives
        every fold step (intermediate sizes grow monotonically) with the
        same insertion order; min/max fold left-to-right with the same
        strict-:func:`_less` rule. Doing it in one pass avoids the
        quadratic intermediate copies of n-1 pairwise merges.
        """
        if not columns:
            raise StatisticsError("merge_many requires at least one column")
        first = columns[0]
        name = first.name
        for column in columns:
            if column.name != name:
                raise StatisticsError(
                    f"cannot merge columns {name!r} and {column.name!r}"
                )
        merged = RunningColumn(name, min(c.synopsis.k for c in columns))
        merged.synopsis = KMVSynopsis.merge_many(
            [column.synopsis for column in columns]
        )
        merged.null_count = sum(column.null_count for column in columns)
        merged.total_count = sum(column.total_count for column in columns)
        if all(column.value_counts is not None for column in columns):
            combined = dict(first.value_counts)  # type: ignore[arg-type]
            get = combined.get
            for column in columns[1:]:
                for key, count in column.value_counts.items():  # type: ignore[union-attr]
                    combined[key] = get(key, 0) + count
            merged.value_counts = (
                combined
                if len(combined) <= RunningColumn.MAX_EXACT_VALUES else None
            )
        else:
            merged.value_counts = None
        merged._split_dv_sum = sum(
            column._split_dv_contribution() for column in columns
        )
        min_value = None
        max_value = None
        for column in columns:
            value = column.min_value
            if value is not None and (
                min_value is None or _less(value, min_value)
            ):
                min_value = value
            value = column.max_value
            if value is not None and (
                max_value is None or _less(max_value, value)
            ):
                max_value = value
        merged.min_value = min_value
        merged.max_value = max_value
        return merged

    def absorb(self, other: "RunningColumn") -> None:
        """Count ``other``'s values in place, as if this accumulator had
        read them after its own (unlike :meth:`merge`, which records a
        split boundary for the overlap ratio)."""
        self.synopsis = self.synopsis.merge(other.synopsis)
        self.null_count += other.null_count
        self.total_count += other.total_count
        counts = self.value_counts
        if counts is not None:
            if other.value_counts is None:
                self.value_counts = None
            else:
                get = counts.get
                for key, count in other.value_counts.items():
                    counts[key] = get(key, 0) + count
                if len(counts) > self.MAX_EXACT_VALUES:
                    self.value_counts = None
        if other.min_value is not None and (
                self.min_value is None
                or _less(other.min_value, self.min_value)):
            self.min_value = other.min_value
        if other.max_value is not None and (
                self.max_value is None
                or _less(self.max_value, other.max_value)):
            self.max_value = other.max_value

    def can_retract(self, other: "RunningColumn") -> bool:
        """True when :meth:`retract` can un-count ``other`` exactly: both
        count tables survive, every value of ``other`` was counted here at
        least as often, and every surviving value is a plain scalar (or a
        tuple of them) the synopsis can be rebuilt from."""
        counts = self.value_counts
        if counts is None or other.value_counts is None:
            return False
        if any(counts.get(key, 0) < count
               for key, count in other.value_counts.items()):
            return False
        return all(_plain(key) for key in counts)

    def retract(self, other: "RunningColumn") -> None:
        """Un-count ``other``'s values in place (rows deleted from what
        this accumulator read); requires :meth:`can_retract`. The count
        table subtracts; min/max and the synopsis are rebuilt from the
        values that survive."""
        counts = self.value_counts
        assert counts is not None and other.value_counts is not None
        for key, count in other.value_counts.items():
            left = counts[key] - count
            if left:
                counts[key] = left
            else:
                del counts[key]
        self.null_count -= other.null_count
        self.total_count -= other.total_count
        self.synopsis = KMVSynopsis(self.synopsis.k)
        self.synopsis.add_all(counts)
        min_value = max_value = None
        for value in counts:
            if _comparable(value):
                if min_value is None or _less(value, min_value):
                    min_value = value
                if max_value is None or _less(max_value, value):
                    max_value = value
        self.min_value = min_value
        self.max_value = max_value

    def freeze(self) -> ColumnStats:
        null_fraction = (
            self.null_count / self.total_count if self.total_count else 0.0
        )
        distinct = self.distinct_count()
        f1: float | None = None
        f2: float | None = None
        if self.value_counts is not None:
            f1 = float(sum(
                1 for count in self.value_counts.values() if count == 1
            ))
            f2 = float(sum(
                1 for count in self.value_counts.values() if count == 2
            ))
        overlap: float | None = None
        contribution = self._split_dv_contribution()
        if contribution > 0:
            overlap = min(1.0, distinct / contribution)
        histogram = (Histogram.from_counts(self.value_counts)
                     if self.value_counts else None)
        return ColumnStats(
            self.name,
            distinct,
            self.min_value,
            self.max_value,
            null_fraction,
            f1,
            f2,
            overlap,
            float(self.total_count - self.null_count),
            histogram,
            self._heavy_hitters(),
        )

    def _heavy_hitters(self) -> tuple:
        """Top-K ``(value, sample fraction)`` pairs, most frequent first.

        Only available while the exact count table survived its budget;
        ties break by first observation, so the result is a pure function
        of the (order-preserving) merged value stream and therefore
        deterministic.
        """
        counts = self.value_counts
        non_null = self.total_count - self.null_count
        if not counts or non_null <= 0:
            return ()
        order = {key: index for index, key in enumerate(counts)}
        top = sorted(counts.items(),
                     key=lambda item: (-item[1], order[item[0]]))
        return tuple(
            (value, count / non_null)
            for value, count in top[:HEAVY_HITTER_K]
            if count > 1
        )


def _count_key(value: Any) -> Any:
    """Hashable stand-in for a JSON-like value in the count table."""
    if isinstance(value, tuple):
        return tuple(_count_key(item) for item in value)
    if isinstance(value, (dict, list)):
        from repro.data.table import _hashable

        return _hashable(value)
    return value


def _plain(key: Any) -> bool:
    """True for a count-table key that is the value itself (a scalar or a
    tuple of scalars), so the value's KMV hash can be taken from it."""
    kind = type(key)
    if kind is tuple:
        return all(item is None or type(item) in (int, float, str)
                   for item in key)
    return kind in (int, float, str)


def _less(left: Any, right: Any) -> bool:
    """Total-order comparison across the mixed types we may observe."""
    if isinstance(left, str) != isinstance(right, str):
        # Mixed numeric/string columns: order numerics before strings.
        return not isinstance(left, str)
    return left < right


class RunningStats:
    """Mutable accumulator over an output stream of rows.

    Column names may be *composite* (see :func:`composite_name`): those
    observe the tuple of the constituent fields, giving the optimizer real
    distinct counts for multi-column join keys.
    """

    def __init__(self, columns: Iterable[str], kmv_size: int = 1024):
        self.row_count = 0
        self.size_bytes = 0
        self.columns = {
            name: RunningColumn(name, kmv_size) for name in columns
        }
        self._parts = {
            name: composite_parts(name) for name in self.columns
            if COMPOSITE_SEPARATOR in name
        }
        self._kmv_size = kmv_size

    def update(self, row: Row, row_bytes: int) -> None:
        self.row_count += 1
        self.size_bytes += row_bytes
        for name, column in self.columns.items():
            parts = self._parts.get(name)
            if parts is None:
                column.update(row.get(name))
                continue
            values = [row.get(part) for part in parts]
            if all(value is None for value in values):
                column.update(None)
            else:
                column.update(tuple(values))

    def update_batch(self, rows: list[Row], row_sizes: list[int]) -> None:
        """Bulk accumulate one task's rows; same result as per-row update.

        Column values are gathered per column first so every
        :class:`RunningColumn` ingests through its bulk path.
        """
        if not rows:
            return
        self.row_count += len(rows)
        self.size_bytes += sum(row_sizes)
        for name, column in self.columns.items():
            parts = self._parts.get(name)
            if parts is None:
                column.update_many([row.get(name) for row in rows])
                continue
            values: list = []
            append = values.append
            for row in rows:
                members = [row.get(part) for part in parts]
                if all(member is None for member in members):
                    append(None)
                else:
                    append(tuple(members))
            column.update_many(values)

    def update_columns(self, provider: Any, row_count: int,
                       row_sizes: list[int]) -> None:
        """Bulk accumulate from a column provider; same result as
        :meth:`update_batch` over the provider's rows.

        ``provider.column(name)`` must return exactly what the row gather
        would -- ``[row.get(name) for row in rows]`` -- which both batch
        classes in :mod:`repro.data.columns` guarantee.
        """
        if not row_count:
            return
        self.row_count += row_count
        self.size_bytes += sum(row_sizes)
        for name, column in self.columns.items():
            parts = self._parts.get(name)
            if parts is None:
                column.update_many(provider.column(name))
                continue
            part_columns = [provider.column(part) for part in parts]
            values: list = []
            append = values.append
            for members in zip(*part_columns):
                if all(member is None for member in members):
                    append(None)
                else:
                    append(members)
            column.update_many(values)

    def merge(self, other: "RunningStats") -> "RunningStats":
        if set(self.columns) != set(other.columns):
            raise StatisticsError("cannot merge stats over different columns")
        merged = RunningStats(self.columns, self._kmv_size)
        merged.row_count = self.row_count + other.row_count
        merged.size_bytes = self.size_bytes + other.size_bytes
        merged.columns = {
            name: column.merge(other.columns[name])
            for name, column in self.columns.items()
        }
        return merged

    def absorb(self, other: "RunningStats") -> None:
        """Count ``other``'s rows in place: the state a scan reaches that
        reads them after this accumulator's rows (appended rows)."""
        self._check_columns(other)
        self.row_count += other.row_count
        self.size_bytes += other.size_bytes
        for name, column in self.columns.items():
            column.absorb(other.columns[name])

    def retract(self, other: "RunningStats") -> bool:
        """Un-count ``other``'s rows in place (deleted rows). Exact through
        the per-column count tables; returns False, leaving this
        accumulator untouched, when a column cannot un-count them."""
        self._check_columns(other)
        if not all(column.can_retract(other.columns[name])
                   for name, column in self.columns.items()):
            return False
        self.row_count -= other.row_count
        self.size_bytes -= other.size_bytes
        for name, column in self.columns.items():
            column.retract(other.columns[name])
        return True

    def _check_columns(self, other: "RunningStats") -> None:
        if set(self.columns) != set(other.columns):
            raise StatisticsError("cannot fold stats over different columns")

    @staticmethod
    def merge_all(partials: "list[RunningStats]") -> "RunningStats":
        """N-way merge of task partials; equals left-folding :meth:`merge`.

        The client-side merge after a job with hundreds of tasks is the
        hot path here: one pass per column instead of n-1 intermediate
        :class:`RunningStats` allocations.
        """
        if not partials:
            raise StatisticsError("merge_all requires at least one partial")
        first = partials[0]
        column_set = set(first.columns)
        for partial in partials[1:]:
            if set(partial.columns) != column_set:
                raise StatisticsError(
                    "cannot merge stats over different columns"
                )
        merged = RunningStats(first.columns, first._kmv_size)
        merged.row_count = sum(partial.row_count for partial in partials)
        merged.size_bytes = sum(partial.size_bytes for partial in partials)
        merged.columns = {
            name: RunningColumn.merge_many(
                [partial.columns[name] for partial in partials]
            )
            for name in first.columns
        }
        return merged

    def freeze(self, exact: bool = True) -> TableStats:
        return TableStats(
            float(self.row_count),
            float(self.size_bytes),
            {name: column.freeze() for name, column in self.columns.items()},
            exact=exact,
        )


def requalify_stats(stats: TableStats, alias: str) -> TableStats:
    """Re-qualify single-alias statistics under a different alias.

    Statistics of a base leaf are keyed ``origAlias.column`` (composite
    columns: each part separately). Two leaves scanning the same table with
    the same predicates share one statistics entry (Section 4.1), so a
    self-join's second alias must re-qualify the shared entry to its own
    prefix before use.
    """
    def rename(name: str) -> str:
        parts = composite_parts(name)
        renamed = []
        for part in parts:
            _, _, column = part.partition(".")
            renamed.append(f"{alias}.{column}" if column else part)
        return COMPOSITE_SEPARATOR.join(renamed)

    columns = {}
    for name, column in stats.columns.items():
        new_name = rename(name)
        columns[new_name] = ColumnStats(
            new_name, column.distinct_values, column.min_value,
            column.max_value, column.null_fraction, column.f1, column.f2,
            column.split_overlap, column.sample_count, column.histogram,
            column.heavy_hitters,
        )
    return TableStats(stats.row_count, stats.size_bytes, columns,
                      exact=stats.exact)


def stats_from_table_scan(scanned: Iterable[tuple[Row, int]],
                          columns: Iterable[str]) -> TableStats:
    """Exact statistics from a full scan of ``(row, size in bytes)`` pairs
    (the baselines' up-front statistics, :mod:`repro.core.baselines`)."""
    running = RunningStats(columns)
    for row, row_bytes in scanned:
        running.update(row, row_bytes)
    return running.freeze(exact=True)
