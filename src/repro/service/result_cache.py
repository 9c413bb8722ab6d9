"""Cross-query result-set cache keyed by (structural identity, statistics
fingerprint).

The plan cache (PR 4) reuses *plans* when a block's canonical key and
statistics recur; under sustained multi-tenant traffic the same identity
argument extends one level up: when a whole query's structure AND every
contributing base leaf's statistics recur, the *result rows* recur too
-- results in this system are plan-invariant (the differential oracle of
earlier PRs), data is immutable between statistics updates, and
statistics updates are the data-change signal (the CDC roadmap item keys
off the same path). A hit therefore skips pilots, optimizer, and
execution entirely and returns the cached rows, copied on read so
callers can mutate their copy freely.

The identity has two parts:

* **structural key** -- per original (unprefixed) stage: the canonical
  block key (name-independent: leaves as statistics signatures, join
  conditions, non-local predicates) plus the one-line renderings of the
  post-join stages (group-by/order-by/project headers, which the block
  key does not cover -- two queries sharing a join block but differing in
  projection must not collide) plus the stage's output-table name;
* **statistics fingerprint** -- a hash of every contributing base leaf's
  current :class:`TableStats` *and* the data epoch of every contributing
  base table. Statistics alone are not a safe data-change signal: they
  are lossy synopses, and two different table contents can freeze to
  byte-identical statistics (or a caller can swap a table's rows without
  re-running pilots at all). The metastore's per-table epoch -- bumped by
  every ``Dyno.register_table`` -- closes that hole: any re-registration
  changes the key, so cached rows computed over the previous contents can
  never be returned. Unknown statistics (a cold query) mean "no key": the
  query executes and is cached afterwards, when its own pilots have
  published them.

Storage, eviction and invalidation are the plan cache's, literally: both
hold a :class:`~repro.service.lru.LRU`, both subscribe its
``invalidate`` to the metastore, so a statistics update for any
contributing base-leaf signature evicts every dependent entry of either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.data.table import Row
from repro.service.lru import LRU
from repro.service.plan_cache import canonical_block_key

__all__ = ["RequestIdentity", "ResultCache", "request_identity"]


@dataclass(frozen=True)
class RequestIdentity:
    """Admission-time identity of one request, fingerprinted at run time.

    ``structural`` is fixed at admission; the statistics fingerprint is
    resolved by :meth:`key` against the *current* metastore, because a
    cold query's statistics only exist after its own pilots ran.
    """

    #: canonical rendering of every stage (block key + post-join stages).
    structural: str
    #: base-leaf statistics signatures the result depends on.
    contributing: frozenset[str]

    def tables(self) -> list[str]:
        """Base tables named by the contributing signatures, sorted."""
        names = set()
        for signature in self.contributing:
            if signature.startswith("table:"):
                names.add(signature[len("table:"):].split("|", 1)[0])
        return sorted(names)

    def key(self, metastore) -> str | None:
        """Full cache key under current statistics, or None when any
        contributing leaf is still unstated (nothing to fingerprint)."""
        stats_payload = {}
        for signature in sorted(self.contributing):
            stats = metastore.get(signature)
            if stats is None:
                return None
            stats_payload[signature] = stats.to_dict()
        epochs = {table: metastore.table_epoch(table)
                  for table in self.tables()}
        text = json.dumps(
            {"structural": self.structural, "stats": stats_payload,
             "epochs": epochs},
            sort_keys=True,
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def request_identity(dyno, stages) -> RequestIdentity | None:
    """Build a request's identity from its ORIGINAL (unprefixed) stages.

    Computed pre-isolation so repeated submissions -- from any tenant,
    under any per-query prefix -- share one identity. Leaves scanning an
    earlier stage's output table are structurally covered by that stage
    and carry no metastore statistics of their own, so they are excluded
    from the contributing set. May raise DynoError for malformed stages
    (the caller's admission error path covers it).
    """
    if not stages:
        return None
    structural_parts: list[str] = []
    contributing: set[str] = set()
    prior_outputs: set[str] = set()
    for spec, output in stages:
        extracted = dyno.prepare(spec)
        block = extracted.block
        stage_heads = [
            stage.describe().splitlines()[0].strip()
            for stage in extracted.stages
        ]
        structural_parts.append(
            "block[" + canonical_block_key(block) + "]"
            "|stages[" + ";".join(stage_heads) + "]"
            "|out:" + (output or "")
        )
        for leaf in block.base_leaves():
            if leaf.source_name in prior_outputs:
                continue
            contributing.add(leaf.signature())
        if output is not None:
            prior_outputs.add(output)
    return RequestIdentity(
        structural="||".join(structural_parts),
        contributing=frozenset(contributing),
    )


class ResultCache:
    """Key -> result-rows store.

    Entries live in a :class:`~repro.service.lru.LRU` (LRU eviction and
    invalidation are documented there). What is the result cache's own:
    rows are copied on store AND on read -- cached rows are shared state,
    and post-join stages / clients mutate row dicts freely.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self._lru: LRU[tuple[Row, ...]] = LRU(max_entries)

    def __len__(self) -> int:
        return len(self._lru)

    def lookup(self, key: str) -> list[Row] | None:
        rows = self._lru.get(key)
        if rows is None:
            return None
        return [dict(row) for row in rows]

    def store(self, key: str, rows: list[Row],
              contributing: frozenset[str]) -> None:
        self._lru.put(key, tuple(dict(row) for row in rows), contributing)

    def on_stats_update(self, signature: str, stats) -> None:
        """Metastore listener (see :meth:`LRU.invalidate`): a
        cached result never outlives the statistics state it was keyed
        under, exactly as for cached plans."""
        self._lru.invalidate(signature, stats)

    def summary(self) -> dict[str, int]:
        return self._lru.summary()
