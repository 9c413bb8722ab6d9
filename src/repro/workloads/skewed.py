"""Seeded skewed-join workloads: hot keys over a Zipfian tail.

Real click streams are not uniform: a handful of power users (or bot
accounts) dominate the fact table, which wrecks repartition joins -- the
reducers owning the hot keys straggle while the rest idle. This module
generates exactly that shape, deterministically:

* ``clicks`` -- the fact table; ``user_id`` draws from a small set of
  explicit *hot* keys (``hot_fraction`` of all rows) layered over a
  Zipf(``zipf_s``) long tail across the remaining users;
* ``users`` -- the build-side dimension, sized so it does **not** fit the
  broadcast or spill budgets (a plain hash build is infeasible and the
  optimizer must choose between repartition and the skew join);
* ``pages`` -- a small, genuinely broadcastable dimension for mixed plans.

Sampling is reproducible across platforms: one ``random.Random(seed)``
stream plus a precomputed Zipf CDF walked with ``bisect`` -- no float
accumulation order differences, no numpy dependency.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from repro.data.schema import INT, STRING, Schema
from repro.data.table import Row, Table
from repro.jaql.functions import UdfRegistry
from repro.jaql.parser import SqlParser
from repro.workloads.queries import Workload

CLICK_SCHEMA = Schema.of(
    click_id=INT, user_id=INT, url=STRING, dwell_ms=INT,
)
USER_SCHEMA = Schema.of(
    user_id=INT, country=STRING, segment=STRING, score=INT,
)
PAGE_SCHEMA = Schema.of(
    url=STRING, category=STRING, weight=INT,
)

COUNTRIES = ["US", "DE", "JP", "BR", "IN", "FR", "GB", "CA"]
SEGMENTS = ["free", "trial", "pro", "enterprise"]
CATEGORIES = ["news", "sports", "video", "shop", "docs"]

#: Defaults tuned so that, at scale 1.0 under the default optimizer
#: config, the ``users`` build side overflows the broadcast memory gate
#: while its heavy-key slice stays tiny -- the regime the skew join
#: exists for.
DEFAULT_USER_COUNT = 6000
DEFAULT_CLICK_COUNT = 16000
DEFAULT_PAGE_COUNT = 40
DEFAULT_HOT_KEYS = 2
DEFAULT_HOT_FRACTION = 0.35
DEFAULT_ZIPF_S = 1.2
DEFAULT_SEED = 7


def zipf_cdf(count: int, s: float) -> list[float]:
    """Cumulative distribution of a Zipf(s) law over ranks ``1..count``."""
    if count <= 0:
        return []
    weights = [1.0 / (rank ** s) for rank in range(1, count + 1)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard against float shortfall at the top
    return cdf


def generate_skewed(scale: float = 1.0, seed: int = DEFAULT_SEED,
                    user_count: int | None = None,
                    click_count: int | None = None,
                    page_count: int | None = None,
                    hot_keys: int = DEFAULT_HOT_KEYS,
                    hot_fraction: float = DEFAULT_HOT_FRACTION,
                    zipf_s: float = DEFAULT_ZIPF_S) -> dict[str, Table]:
    """Deterministic hot-key dataset: clicks x users x pages.

    ``hot_fraction`` of the clicks hit the first ``hot_keys`` user ids
    uniformly; the rest follow a Zipf(``zipf_s``) law over the remaining
    ids (shuffled, so hot keys are not simply the smallest values).
    """
    users_n = user_count if user_count is not None \
        else max(hot_keys + 1, int(DEFAULT_USER_COUNT * scale))
    clicks_n = click_count if click_count is not None \
        else max(1, int(DEFAULT_CLICK_COUNT * scale))
    pages_n = page_count if page_count is not None \
        else max(1, int(DEFAULT_PAGE_COUNT * min(scale, 1.0)))
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1]: {hot_fraction}")
    if hot_keys > users_n:
        raise ValueError(
            f"hot_keys={hot_keys} exceeds user_count={users_n}")
    rng = random.Random(seed)

    users: list[Row] = [
        {
            "user_id": key,
            "country": rng.choice(COUNTRIES),
            "segment": rng.choice(SEGMENTS),
            "score": rng.randint(0, 100),
        }
        for key in range(1, users_n + 1)
    ]
    pages: list[Row] = [
        {
            "url": f"/p/{key}",
            "category": rng.choice(CATEGORIES),
            "weight": rng.randint(1, 100),
        }
        for key in range(1, pages_n + 1)
    ]

    # Hot keys come from anywhere in the id space; the tail ranks are a
    # seeded permutation of the rest so rank-1 of the Zipf law is not
    # always user 1.
    ids = list(range(1, users_n + 1))
    rng.shuffle(ids)
    hot_ids = ids[:hot_keys]
    tail_ids = ids[hot_keys:]
    cdf = zipf_cdf(len(tail_ids), zipf_s)

    clicks: list[Row] = []
    for key in range(1, clicks_n + 1):
        if hot_ids and rng.random() < hot_fraction:
            user_id = hot_ids[rng.randrange(len(hot_ids))]
        elif tail_ids:
            user_id = tail_ids[bisect_left(cdf, rng.random())]
        else:
            user_id = hot_ids[rng.randrange(len(hot_ids))]
        clicks.append({
            "click_id": key,
            "user_id": user_id,
            "url": f"/p/{rng.randint(1, pages_n)}",
            "dwell_ms": rng.randint(10, 60_000),
        })

    return {
        "clicks": Table("clicks", CLICK_SCHEMA, clicks),
        "users": Table("users", USER_SCHEMA, users),
        "pages": Table("pages", PAGE_SCHEMA, pages),
    }


def skewed_join() -> Workload:
    """Clicks x users: the canonical hot-key join.

    The probe side (clicks) is dominated by a few user ids; the build
    side (users) is too large for any hash build. Under the default
    config the optimizer's only alternatives are the repartition join
    and the skew join.
    """
    udfs = UdfRegistry()
    sql = """
        SELECT u.country AS country, count(*) AS clicks,
               sum(c.dwell_ms) AS dwell
        FROM clicks c, users u
        WHERE c.user_id = u.user_id
        GROUP BY u.country
        ORDER BY dwell DESC
    """
    spec = SqlParser(udfs).parse(sql, "SkewJoin")
    return Workload(
        "SkewJoin", [(spec, None)], udfs,
        description="hot-key clicks x oversized users dimension "
                    "(Zipfian tail; exercises the skew join)",
        tables=("clicks", "users"),
    )


def skewed_funnel() -> Workload:
    """Clicks x users x pages: a mixed plan.

    ``pages`` is tiny (broadcast), ``users`` is oversized and hot-keyed
    (skew join), and the clicks-side predicate keeps the pilot runs'
    selectivity machinery in the loop.
    """
    udfs = UdfRegistry()
    sql = """
        SELECT p.category AS category, u.segment AS segment,
               count(*) AS clicks
        FROM clicks c, users u, pages p
        WHERE c.user_id = u.user_id
        AND c.url = p.url
        AND c.dwell_ms >= 500
        GROUP BY p.category, u.segment
        ORDER BY clicks DESC
    """
    spec = SqlParser(udfs).parse(sql, "SkewFunnel")
    return Workload(
        "SkewFunnel", [(spec, None)], udfs,
        description="3-way funnel mixing a broadcastable dimension with "
                    "the oversized hot-key users dimension",
        tables=("clicks", "users", "pages"),
    )


SKEWED_WORKLOADS = {
    "SkewJoin": skewed_join,
    "SkewFunnel": skewed_funnel,
}
