"""Order statistics shared by the harness, the tracer and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly above the percentile."""
    return count - max(1, math.ceil(fraction * count))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def geomean_of_class_medians(by_class: dict[str, list[float]]) -> float:
    """Geometric mean of per-class medians, so a gain on a cheap class
    is not drowned by an expensive one."""
    return geomean(statistics.median(samples)
                   for samples in by_class.values())


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
