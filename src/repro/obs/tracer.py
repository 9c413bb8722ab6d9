"""Structured tracing for the query lifecycle.

DYNO's thesis is that the optimizer should watch itself run; this module
is how the *reproduction* watches itself run. A :class:`Tracer` emits
typed records -- spans (a named interval with attributes) and point
events -- to one or more sinks: JSON-lines on disk for offline analysis,
an in-memory list for tests, the metrics registry
(:class:`repro.obs.metrics.MetricsRegistry` folds records into counters
and observations), or nothing at all.

Every record is one flat JSON object::

    {"ts": 0.0123, "seq": 7, "kind": "span_start"|"span_end"|"event",
     "name": "optimize", "span": 3, "attrs": {...}}

* ``ts``     -- driver wall-clock seconds since the tracer was created
                (``time.perf_counter`` based, monotonic);
* ``seq``    -- global emission order, dense and deterministic per run;
* ``kind``   -- ``span_start`` / ``span_end`` bracket an interval
                (``span_end`` additionally carries ``dur_s``); ``event``
                is a point occurrence;
* ``span``   -- the span id tying a start to its end (absent on events);
* ``attrs``  -- free-form JSON-serializable attributes. Attributes set
                during the span (e.g. the cost found by an optimization)
                appear on the ``span_end`` record.

Disabled tracing costs nothing measurable: the module-level
:data:`NULL_TRACER` advertises ``enabled = False`` so instrumented call
sites can guard attribute construction, and its ``span``/``event``
methods are allocation-free no-ops, keeping PR 1's perf baselines intact.
"""

from __future__ import annotations

import json
import time
from typing import IO

__all__ = [
    "JsonLinesSink",
    "MemorySink",
    "NULL_TRACER",
    "Span",
    "Tracer",
]


class MemorySink:
    """Collects records in a list -- the test sink."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonLinesSink:
    """Appends one JSON object per line to a file."""

    def __init__(self, path) -> None:
        self.path = path
        self._handle: IO[str] = open(path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        self._handle.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )

    def close(self) -> None:
        self._handle.flush()
        self._handle.close()


class Span:
    """One named interval; usable as a context manager.

    Attributes added with :meth:`set` after the span opened are carried
    on the closing ``span_end`` record -- how an ``optimize`` span ends
    up annotated with the cost it found.
    """

    __slots__ = ("_tracer", "name", "span_id", "attrs", "_started")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_span_id()
        self._started = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._started = self._tracer._now()
        self._tracer._emit("span_start", self.name, self.attrs,
                           span=self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._emit(
            "span_end", self.name, self.attrs, span=self.span_id,
            dur_s=self._tracer._now() - self._started,
        )


class Tracer:
    """Emits each trace record to every one of its sinks."""

    enabled = True

    def __init__(self, *sinks) -> None:
        self.sinks = sinks
        self._seq = 0
        self._span_ids = 0
        self._epoch = time.perf_counter()

    # -- recording ------------------------------------------------------

    def span(self, name: str, /, **attrs) -> Span:
        """Open a span; use as ``with tracer.span("optimize") as sp:``.

        ``name`` is positional-only so ``name=...`` can be a span attr.
        """
        return Span(self, name, attrs)

    def event(self, name: str, /, **attrs) -> None:
        """Emit a point event (``name`` positional-only, as for spans)."""
        self._emit("event", name, attrs)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # -- internals ------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _next_span_id(self) -> int:
        self._span_ids += 1
        return self._span_ids

    def _emit(self, kind: str, name: str, attrs: dict,
              span: int | None = None, dur_s: float | None = None) -> None:
        record: dict = {"ts": round(self._now(), 6), "kind": kind,
                        "name": name, "attrs": dict(attrs)}
        if span is not None:
            record["span"] = span
        if dur_s is not None:
            record["dur_s"] = round(dur_s, 6)
        record["seq"] = self._seq
        self._seq += 1
        for sink in self.sinks:
            sink.write(record)


class _NullSpan:
    """Shared do-nothing span returned by the disabled tracer."""

    __slots__ = ()
    name = ""
    span_id = 0
    attrs: dict = {}

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullTracer(Tracer):
    """The disabled tracer: every operation is a constant no-op."""

    enabled = False

    def __init__(self) -> None:  # no sinks, no clock
        pass

    def span(self, name: str, /, **attrs) -> Span:  # type: ignore[override]
        return _NULL_SPAN  # type: ignore[return-value]

    def event(self, name: str, /, **attrs) -> None:
        pass

    def close(self) -> None:
        pass


#: The default tracer everywhere: tracing off, zero overhead.
NULL_TRACER: Tracer = _NullTracer()
