"""Seeded input generation: the query pool, request streams, change cycle.

Everything here is a pure function of its arguments -- the engine under
test never sees the seed, only the generated SQL strings, request order
and change batches. ``digest`` fingerprints any of them, which is how the
self-tests hold "same seed, same inputs; another seed, other inputs".
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.data.tpch import SEGMENTS
from repro.incremental import ChangeBatch, ChangeGenerator
from repro.workloads.changing import KEY_COLUMNS

#: distinct SQL strings per template; four templates make the pool.
POOL_PER_TEMPLATE = 96
TENANTS = 3

Q3_SHAPE = """
    SELECT l.l_orderkey AS orderkey, o.o_orderdate AS orderdate,
           sum(l.l_extendedprice) AS revenue
    FROM customer c, orders o, lineitem l
    WHERE c.c_mktsegment = '{segment}'
    AND c.c_custkey = o.o_custkey
    AND l.l_orderkey = o.o_orderkey
    AND o.o_orderdate <= '{date}'
    AND l.l_shipdate >= '{date}'
    GROUP BY l.l_orderkey, o.o_orderdate
    ORDER BY revenue DESC LIMIT 10
"""

Q10_SHAPE = """
    SELECT c.c_custkey AS custkey, c.c_name AS cname,
           n.n_name AS nname, sum(l.l_extendedprice) AS revenue
    FROM customer c, orders o, lineitem l, nation n
    WHERE c.c_custkey = o.o_custkey
    AND l.l_orderkey = o.o_orderkey
    AND o.o_orderdate >= '{start}' AND o.o_orderdate <= '{end}'
    AND l.l_returnflag = 'R'
    AND c.c_nationkey = n.n_nationkey
    GROUP BY c.c_custkey, c.c_name, n.n_name
    ORDER BY revenue DESC LIMIT 20
"""

ENGAGEMENT_SHAPE = """
    SELECT u.country AS country, p.category AS category,
           count(*) AS views, sum(pv.dwell_ms) AS dwell
    FROM pageviews pv, users u, pages p
    WHERE pv.userid = u.userid
    AND pv.url = p.url
    AND is_human(pv.client.ua)
    AND pv.dwell_ms >= {threshold}
    GROUP BY u.country, p.category
    ORDER BY dwell DESC
"""

PREMIUM_SHAPE = """
    SELECT u.userid AS userid, count(*) AS views
    FROM pageviews pv, users u
    WHERE pv.userid = u.userid
    AND pv.client.browser = '{browser}'
    AND pv.dwell_ms >= {threshold}
    GROUP BY u.userid
"""

BROWSERS = ("chrome", "edge", "safari", "firefox")


@dataclass(frozen=True)
class PoolQuery:
    """One distinct query of the serving pool."""

    name: str
    #: latency class: requests of one template share a cost profile.
    template: str
    sql: str


def _day(month_index: int, first_year: int, day: int) -> str:
    """ISO date ``month_index`` months after January of ``first_year``."""
    return (f"{first_year + month_index // 12:04d}-"
            f"{month_index % 12 + 1:02d}-{day:02d}")


def _literal_grids():
    """(template, SQL shape, every literal set it may draw) per template.

    Each grid is twice the 96 sets drawn from it and narrow enough that
    queries of one template cost about the same: with wide grids the
    literals the seed hands the few hottest ranks decide the run's
    throughput.
    """
    return (
        ("q3", Q3_SHAPE,
         [{"segment": segment, "date": _day(month, 1994, 15)}
          for segment in SEGMENTS for month in range(36)]),
        ("q10", Q10_SHAPE,
         [{"start": _day(start, 1992, 1),
           "end": _day(start + length - 1, 1992, 28)}
          for start in range(60) for length in (5, 6, 7)]),
        ("engagement", ENGAGEMENT_SHAPE,
         [{"threshold": threshold}
          for threshold in range(500, 10_100, 50)]),
        ("premium", PREMIUM_SHAPE,
         [{"browser": browser, "threshold": threshold}
          for browser in BROWSERS
          for threshold in range(1000, 13_000, 250)]),
    )


def query_pool(seed: int) -> list[PoolQuery]:
    """384 distinct SQL strings in popularity order, templates interleaved.

    Each template draws 96 literal sets without replacement, so strings
    never repeat and two seeds share only a part of the pool. Position in
    the list is popularity rank, and rank ``r`` belongs to template
    ``r % 4``: every template gets the same share of the Zipf mass
    whatever the seed. (Left to chance, the seed would decide which
    template owns the 15% of traffic that rank 0 receives, and throughput
    would swing by a fifth between seeds.)
    """
    rng = random.Random(seed * 7919 + 1)
    by_template = [
        [PoolQuery(f"{template}.{i:02d}", template, shape.format(**literals))
         for i, literals in enumerate(rng.sample(grid, POOL_PER_TEMPLATE))]
        for template, shape, grid in _literal_grids()
    ]
    return [queries[i] for i in range(POOL_PER_TEMPLATE)
            for queries in by_template]


def request_stream(pool_size: int, count: int, seed: int) -> list[int]:
    """``count`` pool indices (= popularity ranks), Zipf(1.0) by count.

    Rank ``r`` appears ``count / ((r + 1) * H)`` times, rounded by largest
    remainder, and the seed shuffles the order. Drawing each request
    independently instead would let the seed decide how many distinct
    queries a run sees -- each first sight costs a pilot run and an
    optimizer search -- and the run's throughput with it.
    """
    weights = [1.0 / (rank + 1) for rank in range(pool_size)]
    total = sum(weights)
    exact = [count * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(pool_size),
                          key=lambda rank: (counts[rank] - exact[rank],
                                            rank))
    for rank in by_remainder[:count - sum(counts)]:
        counts[rank] += 1
    stream = [rank for rank, times in enumerate(counts)
              for _ in range(times)]
    random.Random(seed * 7919 + 2).shuffle(stream)
    return stream


def tenant_of(position: int) -> tuple[str, int]:
    """(tenant, priority) of the request at ``position`` in the stream."""
    tenant = position % TENANTS
    return f"tenant-{tenant}", tenant + 1


#: one change cycle: (class name, table, change rate, (ins, upd, del) mix).
#: Every cycle ends where it began, so the workload is stationary: the
#: users step changes whole insert/update/delete triples (see
#: ``_step_rate``) and the closing step deletes what the appends added.
CYCLE = (
    ("append_1pct", "pageviews", 0.01, (1.0, 0.0, 0.0)),
    ("append_10pct", "pageviews", 0.10, (1.0, 0.0, 0.0)),
    ("users_5pct", "users", 0.05, (1.0, 1.0, 1.0)),
    ("append_1pct_b", "pageviews", 0.01, (1.0, 0.0, 0.0)),
    ("append_50pct", "pageviews", 0.50, (1.0, 0.0, 0.0)),
    ("delete_back", "pageviews", None, (0.0, 0.0, 1.0)),
)


def _step_rate(step: str, rate: float | None, current: int,
               start: int) -> float:
    """The change rate that keeps ``step`` cardinality-neutral."""
    if step == "delete_back":
        return (current - start) / current
    if step == "users_5pct":
        # ChangeGenerator rounds each share of the mix on its own; a
        # multiple of three keeps inserts equal to deletes.
        return 3 * max(1, round(current * rate / 3)) / current
    return rate


def change_batches(tables, cycles: int,
                   seed: int) -> list[tuple[str, ChangeBatch]]:
    """``cycles`` x 6 pre-generated ``(class, batch)`` pairs.

    One :class:`ChangeGenerator` per changed table, each tracking its own
    copy of the evolving table, so batches apply cleanly in list order.
    """
    generators = {
        table: ChangeGenerator(tables[table], KEY_COLUMNS[table],
                               seed=seed)
        for table in ("pageviews", "users")
    }
    start_rows = len(tables["pageviews"].rows)
    batches: list[tuple[str, ChangeBatch]] = []
    for _ in range(cycles):
        for step, table, rate, mix in CYCLE:
            generator = generators[table]
            rate = _step_rate(step, rate, len(generator.current.rows),
                              start_rows)
            batches.append((step, generator.next_batch(rate, mix)))
    return batches


def digest(value) -> str:
    """Stable fingerprint of generated inputs or result rows."""
    text = json.dumps(value, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(value):
    if isinstance(value, ChangeBatch):
        return [value.table, value.sequence, value.inserts,
                value.deletes, value.updates]
    if isinstance(value, PoolQuery):
        return [value.name, value.sql]
    raise TypeError(f"cannot fingerprint {type(value).__name__}")
