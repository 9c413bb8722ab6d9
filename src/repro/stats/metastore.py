"""Statistics metastore keyed by expression signature.

Section 4.1 ("Reusability of statistics"): statistics are associated with
the *signature* of the leaf expression that produced them, so recurring
queries -- or the same relation+predicates appearing in different queries --
skip redundant pilot runs. The paper stores statistics in a file; we do the
same (JSON), with an in-memory dict as the hot path.

The store keeps only what outlives a query: base-leaf statistics, under
``table:`` signatures. Three writers put them here -- pilot runs
(:class:`repro.core.pilot.PilotRunner`), the CDC delta fold
(:meth:`StatisticsMetastore.apply_table_delta`) and loading a saved file
(``Dyno.load_statistics``). Statistics a caller supplies up front, and
those collected on a job's output to re-optimize the rest of its block
(Section 5.4), live in that block's own statistics dict
(:meth:`repro.core.dynopt.DynoptExecutor.leaf_statistics`) and die with it.

Listeners registered with :meth:`subscribe` observe every ``put`` *and*
every ``invalidate`` (the service's plan and result caches use this to
drop entries whose contributing leaf statistics changed; an invalidation
passes ``None`` as the stats argument).

Changing data (repro.incremental) adds two notions on top of the
signature->stats map:

* **table epochs** -- a per-table counter bumped every time the table's
  DFS contents are (re)registered. Epochs are deliberately *not* part of
  any statistics payload: they exist because statistics are lossy (two
  different data states can freeze to identical synopses), so caches that
  must never serve stale rows -- the result cache -- fold the epoch into
  their keys. Epochs are in-memory only; a fresh session re-pilots anyway.
* **the change-batch fold** -- :meth:`apply_table_delta` is the CDC
  layer's single entry point for "table T changed by this batch". A pilot
  stores, beside its entry, the leaf it ran and its statistics columns
  (a :class:`LeafSource`); with it the fold reads each delta file through
  that leaf, publishes the result under the delta file's own signature
  and folds it into the entry exactly -- inserted rows add (counts,
  synopses, count tables, min/max), deleted rows subtract from the exact
  per-column count tables -- so neither the changed table nor the delta
  file is piloted again. The mergeable state (a :class:`RunningStats`
  per signature) exists only for tables a batch has touched: the first
  batch builds it with one scan of the new version. An entry the fold
  cannot keep exact (no source, or a count table that overflowed its
  budget before a delete) is invalidated and re-piloted; none is ever
  demoted to a guess.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from repro.errors import StatisticsError
from repro.stats.statistics import RunningStats, TableStats

if TYPE_CHECKING:
    from repro.jaql.blocks import BlockLeaf


def table_signature_prefix(table: str) -> str:
    """Prefix shared by every base-leaf signature over ``table``."""
    return f"table:{table}|"


def bare_table_signature(table: str) -> str:
    """Signature of an unpredicated scan of ``table``."""
    return table_signature_prefix(table)


class LeafSource(NamedTuple):
    """How a pilot measured an entry: the leaf it ran (scan + local
    predicates) and the statistics columns it collected."""

    leaf: "BlockLeaf"
    columns: tuple[str, ...]


#: ``scan(source, file)``: a :class:`RunningStats` of DFS file ``file`` read
#: through ``source``'s leaf over ``source``'s columns (the CDC layer's
#: pilot kernel, :func:`repro.incremental.cdc.apply_change_batch`).
LeafScan = Callable[[LeafSource, str], RunningStats]


class StatisticsMetastore:
    """Signature-keyed store of :class:`TableStats` with file persistence."""

    def __init__(self) -> None:
        self._entries: dict[str, TableStats] = {}
        self._listeners: list[Callable[[str, TableStats | None], None]] = []
        self._epochs: dict[str, int] = {}
        self._sources: dict[str, LeafSource] = {}
        #: signature -> (table epoch it is in step with, mergeable state).
        self._running: dict[str, tuple[int, RunningStats]] = {}

    # -- dict-like access -------------------------------------------------------

    def __contains__(self, signature: str) -> bool:
        return signature in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def get(self, signature: str) -> TableStats | None:
        return self._entries.get(signature)

    def put(self, signature: str, stats: TableStats,
            source: LeafSource | None = None) -> None:
        """Store ``stats``; ``source`` (pilot runs) says how to fold later
        change batches into them, and without one the entry is
        invalidated by the next batch over its table."""
        if not signature:
            raise StatisticsError("empty statistics signature")
        self._entries[signature] = stats
        self._running.pop(signature, None)
        if source is None:
            self._sources.pop(signature, None)
        else:
            self._sources[signature] = source
        for listener in self._listeners:
            listener(signature, stats)

    def invalidate(self, signature: str) -> None:
        """Drop one entry and notify listeners (stats argument ``None``).

        Notification matters: caches subscribed to the store key their
        entries off contributing signatures, and an invalidation is as
        much a "this leaf's statistics state changed" event as a ``put``
        -- dropping an entry silently used to leave dependent cache
        entries keyed under statistics the store no longer vouches for.
        """
        self._sources.pop(signature, None)
        self._running.pop(signature, None)
        if self._entries.pop(signature, None) is None:
            return
        for listener in self._listeners:
            listener(signature, None)

    def clear(self) -> None:
        self._entries.clear()
        self._sources.clear()
        self._running.clear()

    def subscribe(
        self, listener: Callable[[str, TableStats | None], None]
    ) -> None:
        """Register a callback invoked after every ``put(signature,
        stats)`` and every effective ``invalidate(signature)`` (which
        passes ``None`` for the stats)."""
        self._listeners.append(listener)

    # -- changing data (repro.incremental) ---------------------------------------

    def table_epoch(self, table: str) -> int:
        """Current data epoch of ``table`` (0 = never registered)."""
        return self._epochs.get(table, 0)

    def bump_table_epoch(self, table: str) -> int:
        """Record that ``table``'s DFS contents were (re)written."""
        epoch = self._epochs.get(table, 0) + 1
        self._epochs[table] = epoch
        return epoch

    def signatures_for_table(self, table: str) -> list[str]:
        """Every stored base-leaf signature over ``table``, sorted."""
        prefix = table_signature_prefix(table)
        return sorted(signature for signature in self._entries
                      if signature.startswith(prefix))

    def apply_table_delta(self, table: str, scan: LeafScan,
                          insert_delta: str | None = None,
                          delete_delta: str | None = None,
                          ) -> dict[str, str]:
        """Fold one CDC change batch over ``table`` into the store.

        Call it once the new version of ``table`` and the batch's delta
        files (``insert_delta``: rows gained, ``delete_delta``: rows lost)
        are registered. Returns ``{signature: action}`` with action
        ``"folded"`` or ``"invalidated"``, one rule for every signature
        over the table (see the module docstring): with a
        :class:`LeafSource`, each delta file is read through ``scan``, its
        exact statistics are published under the delta file's signature
        and folded into the entry -- deleted rows first, so an update
        never overflows a count table it fits in -- and without one, or
        when the deleted rows cannot be un-counted, the entry is
        invalidated and the next query re-pilots it.

        The table's epoch is bumped and listeners observe one event per
        touched signature, driving plan- and result-cache eviction exactly
        as ordinary statistics collection does.
        """
        actions: dict[str, str] = {}
        # The caller's register_table bumped the epoch once; mergeable
        # state is in step when nothing else re-registered the table.
        in_step = self.table_epoch(table) - 1
        epoch = self.bump_table_epoch(table)
        prefix = table_signature_prefix(table)
        for signature in self.signatures_for_table(table):
            source = self._sources.get(signature)
            if source is None:
                self.invalidate(signature)
                actions[signature] = "invalidated"
                continue
            predicates = signature[len(prefix):]
            deltas: dict[str, RunningStats] = {}
            for name in (insert_delta, delete_delta):
                if name is not None:
                    deltas[name] = scan(source, name)
                    self.put(table_signature_prefix(name) + predicates,
                             deltas[name].freeze(exact=True))
            held = self._running.get(signature)
            if held is None or held[0] != in_step:
                running = scan(source, table)  # the new version, once
            else:
                running = held[1]
                if delete_delta is not None and \
                        not running.retract(deltas[delete_delta]):
                    self.invalidate(signature)
                    actions[signature] = "invalidated"
                    continue
                if insert_delta is not None:
                    running.absorb(deltas[insert_delta])
            self.put(signature, running.freeze(exact=True), source)
            self._running[signature] = (epoch, running)
            actions[signature] = "folded"
        return actions

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write atomically: a failure mid-write (disk full, crash, bad
        entry) must not clobber the previous metastore file."""
        payload = {
            signature: stats.to_dict()
            for signature, stats in self._entries.items()
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
