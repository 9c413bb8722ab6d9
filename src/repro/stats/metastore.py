"""Statistics metastore keyed by expression signature.

Section 4.1 ("Reusability of statistics"): statistics are associated with
the *signature* of the leaf expression that produced them, so recurring
queries -- or the same relation+predicates appearing in different queries --
skip redundant pilot runs. The paper stores statistics in a file; we do the
same (JSON), with an in-memory dict as the hot path.

A caller may share one store between services or threads, so all
accessors take a lock and ``save()`` serializes a snapshot -- a
concurrent ``put()`` used to blow up the save with "dict changed size
during iteration". Listeners registered
with :meth:`subscribe` observe every ``put`` *and* every ``invalidate``
(the service's plan and result caches use this to drop entries whose
contributing leaf statistics changed; an invalidation passes ``None`` as
the stats argument).

Changing data (repro.incremental) adds two notions on top of the
signature->stats map:

* **table epochs** -- a per-table counter bumped every time the table's
  DFS contents are (re)registered. Epochs are deliberately *not* part of
  any statistics payload: they exist because statistics are lossy (two
  different data states can freeze to identical synopses), so caches that
  must never serve stale rows -- the result cache -- fold the epoch into
  their keys. Epochs are in-memory only; a fresh session re-pilots anyway.
* **delta application** -- :meth:`apply_table_delta` is the CDC layer's
  single entry point for "table T changed by this batch". Append-only
  batches merge row/byte counts into the bare-scan signature (synopses
  kept but demoted to ``exact=False``) and invalidate every predicated
  signature; batches containing deletes or updates invalidate *all* of the
  table's signatures, because RunningStats/KMV synopses cannot un-count a
  removed row -- the next query re-pilots instead of reusing them.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import StatisticsError
from repro.stats.statistics import TableStats


def table_signature_prefix(table: str) -> str:
    """Prefix shared by every base-leaf signature over ``table``."""
    return f"table:{table}|"


def bare_table_signature(table: str) -> str:
    """Signature of an unpredicated scan of ``table``."""
    return table_signature_prefix(table)


class StatisticsMetastore:
    """Signature-keyed store of :class:`TableStats` with file persistence.

    Thread-safe: all accessors hold an internal lock, so callers on
    several threads can ``put``/``get``/``save`` without corrupting the
    store.
    """

    def __init__(self) -> None:
        self._entries: dict[str, TableStats] = {}
        self._lock = threading.RLock()
        self._listeners: list[Callable[[str, TableStats | None], None]] = []
        self._epochs: dict[str, int] = {}

    # -- dict-like access -------------------------------------------------------

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._entries))

    def get(self, signature: str) -> TableStats | None:
        with self._lock:
            return self._entries.get(signature)

    def put(self, signature: str, stats: TableStats) -> None:
        if not signature:
            raise StatisticsError("empty statistics signature")
        with self._lock:
            self._entries[signature] = stats
            listeners = tuple(self._listeners)
        # Notify outside the lock so a listener may re-enter the store.
        for listener in listeners:
            listener(signature, stats)

    def invalidate(self, signature: str) -> None:
        """Drop one entry and notify listeners (stats argument ``None``).

        Notification matters: caches subscribed to the store key their
        entries off contributing signatures, and an invalidation is as
        much a "this leaf's statistics state changed" event as a ``put``
        -- dropping an entry silently used to leave dependent cache
        entries keyed under statistics the store no longer vouches for.
        """
        with self._lock:
            removed = self._entries.pop(signature, None) is not None
            listeners = tuple(self._listeners) if removed else ()
        for listener in listeners:
            listener(signature, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def subscribe(
        self, listener: Callable[[str, TableStats | None], None]
    ) -> None:
        """Register a callback invoked after every ``put(signature,
        stats)`` and every effective ``invalidate(signature)`` (which
        passes ``None`` for the stats)."""
        with self._lock:
            self._listeners.append(listener)

    # -- changing data (repro.incremental) ---------------------------------------

    def table_epoch(self, table: str) -> int:
        """Current data epoch of ``table`` (0 = never registered)."""
        with self._lock:
            return self._epochs.get(table, 0)

    def bump_table_epoch(self, table: str) -> int:
        """Record that ``table``'s DFS contents were (re)written."""
        with self._lock:
            epoch = self._epochs.get(table, 0) + 1
            self._epochs[table] = epoch
            return epoch

    def signatures_for_table(self, table: str) -> list[str]:
        """Every stored base-leaf signature over ``table``, sorted."""
        prefix = table_signature_prefix(table)
        with self._lock:
            return sorted(signature for signature in self._entries
                          if signature.startswith(prefix))

    def apply_table_delta(self, table: str, delta_rows: float,
                          delta_bytes: float,
                          append_only: bool) -> dict[str, str]:
        """Fold one CDC change batch over ``table`` into the store.

        Returns ``{signature: action}`` where action is ``"merged"`` or
        ``"invalidated"``. The rules (see the module docstring):

        * deletes or updates present -> every signature over the table is
          invalidated; synopses cannot un-count, so reusing them would be
          silently wrong and the next query must re-pilot;
        * append-only -> the bare-scan signature gets a conservative
          merge (exact row/byte sums; per-column synopses kept but the
          entry is demoted to ``exact=False`` because distinct counts and
          histograms now under-report the appended rows), while every
          *predicated* signature is invalidated -- the delta's pass rate
          under those predicates is unknown without a pilot.

        Either way the table's epoch is bumped and listeners observe one
        event per touched signature, driving plan- and result-cache
        eviction exactly as ordinary statistics collection does.
        """
        actions: dict[str, str] = {}
        bare = bare_table_signature(table)
        self.bump_table_epoch(table)
        for signature in self.signatures_for_table(table):
            if append_only and signature == bare:
                old = self.get(signature)
                if old is None:  # raced away; nothing to merge
                    continue
                merged = TableStats(
                    row_count=old.row_count + max(delta_rows, 0.0),
                    size_bytes=old.size_bytes + max(delta_bytes, 0.0),
                    columns=dict(old.columns),
                    exact=False,
                )
                self.put(signature, merged)
                actions[signature] = "merged"
            else:
                self.invalidate(signature)
                actions[signature] = "invalidated"
        return actions

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write atomically: a failure mid-write (disk full, crash, bad
        entry) must not clobber the previous metastore file."""
        with self._lock:
            snapshot = dict(self._entries)
        payload = {
            signature: stats.to_dict()
            for signature, stats in snapshot.items()
        }
        target = Path(path)
        staging = target.with_name(target.name + ".tmp")
        try:
            staging.write_text(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(staging, target)
        except BaseException:
            staging.unlink(missing_ok=True)
            raise

    @staticmethod
    def load(path: str | Path) -> "StatisticsMetastore":
        store = StatisticsMetastore()
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StatisticsError(f"cannot load metastore: {exc}") from exc
        if not isinstance(payload, dict):
            raise StatisticsError("metastore file must hold a JSON object")
        for signature, entry in payload.items():
            store.put(signature, TableStats.from_dict(entry))
        return store
