"""Metrics registry: counters and observation summaries.

Complements :mod:`repro.obs.tracer`: the tracer answers "what happened,
in what order"; the registry answers "how much, in total". Two primitive
kinds keep it dependency-free and cheap:

* **counters** -- monotonically increasing tallies
  (``jobs.executed``, ``dynopt.replans``);
* **observations** -- per-sample statistics (count / total / min / max /
  mean) over a named value stream (``qerror.rows``,
  ``driver.batch_wall_s``). The q-error observations are the paper's
  estimated-vs-actual audit in aggregate form.

``summary()`` renders everything as one plain dict, ``save()`` writes it
as JSON (the CLI's ``--metrics PATH``).

Like the tracer, the registry has a disabled twin: :data:`NULL_METRICS`
advertises ``enabled = False`` and turns every method into a no-op, so
instrumentation is free when nobody asked for numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["MetricsRegistry", "NULL_METRICS", "q_error"]


def q_error(estimated: float, actual: float) -> float:
    """The standard cardinality-estimation quality metric.

    ``max(est/act, act/est)`` with both sides clamped to >= 1 row, so a
    perfect estimate scores 1.0 and the measure is symmetric in over- and
    under-estimation.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated / actual, actual / estimated)


class MetricsRegistry:
    """Named counters and observation streams."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        #: name -> [count, total, min, max]
        self._observations: dict[str, list[float]] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        entry = self._observations.get(name)
        if entry is None:
            self._observations[name] = [1.0, value, value, value]
        else:
            entry[0] += 1.0
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def observation(self, name: str) -> dict | None:
        entry = self._observations.get(name)
        if entry is None:
            return None
        count, total, low, high = entry
        return {
            "count": int(count),
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count,
        }

    def summary(self) -> dict:
        """Everything recorded so far, as one JSON-serializable dict."""
        counters = dict(sorted(self._counters.items()))
        names = sorted(self._observations)
        return {
            "counters": counters,
            "observations": {
                name: self.observation(name) for name in names
            },
        }

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"
        )


class _NullMetrics(MetricsRegistry):
    """The disabled registry: recording is a constant no-op."""

    enabled = False

    def __init__(self) -> None:
        pass

    def inc(self, name: str, value: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0.0

    def observation(self, name: str) -> dict | None:
        return None

    def summary(self) -> dict:
        return {"counters": {}, "observations": {}}

    def save(self, path) -> None:  # pragma: no cover - never wired up
        raise ValueError("cannot save the disabled metrics registry")


#: The default registry everywhere: metrics off, zero overhead.
NULL_METRICS: MetricsRegistry = _NullMetrics()
