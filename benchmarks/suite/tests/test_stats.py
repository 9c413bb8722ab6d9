import math

import pytest

from benchmarks.suite import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.90) == 90
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile([7.0], 0.90) == 7.0
    assert stats.percentile([3, 1, 2], 0.0) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_samples_beyond_counts_the_tail():
    assert stats.samples_beyond(102, 0.90) == 10
    assert stats.samples_beyond(1200, 0.90) == 120
    assert stats.samples_beyond(5, 0.90) == 0


def test_geomean_of_class_medians_weighs_classes_equally():
    by_class = {"cheap": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                "dear": [100.0]}
    assert math.isclose(stats.geomean_of_class_medians(by_class), 10.0)
    # Halving the cheap class moves the geomean as much as halving the
    # dear one would; an arithmetic mean would barely notice.
    by_class["cheap"] = [0.5] * 6
    assert math.isclose(stats.geomean_of_class_medians(by_class),
                        math.sqrt(50.0))
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = stats.quartiles(values)
    assert median == 12.0
    assert math.isclose(stats.spread(values), (q3 - q1) / 12.0)
    assert stats.spread([5.0]) == 0.0
