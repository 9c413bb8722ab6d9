"""Observability: tracing and metrics for the query lifecycle.

See :mod:`repro.obs.tracer` and :mod:`repro.obs.metrics`, and
``docs/observability.md`` for the event schema and CLI flags.
"""

from repro.obs.metrics import MetricsRegistry, q_error
from repro.obs.tracer import (
    JsonLinesSink,
    MemorySink,
    NULL_TRACER,
    Span,
    Tracer,
)

__all__ = [
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "q_error",
]
