"""Coordination service: single-process ZooKeeper stand-in.

The paper uses ZooKeeper in two places (Sections 4.2 and 5.4):

* pilot runs keep a *global output counter* per leaf expression; map tasks
  increment it as they emit records and the job is interrupted once the
  counter crosses ``k``;
* online statistics collection has every finished task publish the URL of
  its partial-statistics file under a job-scoped node, which the Jaql client
  reads and merges once the job completes.

This module reproduces both patterns with the same API shape (counters and
ephemeral znode-like entries) so the rest of the code reads like the system
described in the paper.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any

from repro.errors import CoordinationError


class SharedCounter:
    """A named monotonically-updated counter (pilot-run k-counter).

    Increments are atomic, like the ZooKeeper counter the paper's map
    tasks share per leaf expression.
    """

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def increment(self, delta: int = 1) -> int:
        if delta < 0:
            raise CoordinationError("counter increments must be non-negative")
        with self._lock:
            self.value += delta
            return self.value


class CoordinationService:
    """Counters plus a hierarchical key/value registry of published entries.

    Thread-safe: counter creation and entry publication are guarded by a
    lock, mirroring ZooKeeper's own linearizable writes, so callers on
    several threads may share one service.
    """

    def __init__(self) -> None:
        self._counters: dict[str, SharedCounter] = {}
        self._registry: dict[str, dict[str, Any]] = defaultdict(dict)
        self._lock = threading.Lock()

    # -- counters -------------------------------------------------------------

    def counter(self, name: str) -> SharedCounter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = SharedCounter(name)
            return self._counters[name]

    def reset_counter(self, name: str) -> None:
        with self._lock:
            self._counters.pop(name, None)

    # -- registry (znode-like publication) -------------------------------------

    def publish(self, scope: str, key: str, value: Any) -> None:
        """Publish an entry under ``scope`` (e.g. partial-stats 'URL')."""
        with self._lock:
            entries = self._registry[scope]
            if key in entries:
                raise CoordinationError(
                    f"entry {key!r} already published under {scope!r}"
                )
            entries[key] = value

    def entries(self, scope: str) -> dict[str, Any]:
        """All entries published under ``scope`` (copy)."""
        with self._lock:
            return dict(self._registry.get(scope, {}))

    def clear_scope(self, scope: str) -> None:
        with self._lock:
            self._registry.pop(scope, None)
