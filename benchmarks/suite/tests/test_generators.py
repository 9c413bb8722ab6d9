from repro.workloads.changing import changing_tables

from benchmarks.suite import generators
from benchmarks.suite.generators import digest


def test_pool_is_distinct_and_seeded():
    pool = generators.query_pool(2014)
    assert len(pool) == 4 * generators.POOL_PER_TEMPLATE
    assert len({query.sql for query in pool}) == len(pool)
    assert len({query.name for query in pool}) == len(pool)
    assert digest(pool) == digest(generators.query_pool(2014))
    assert digest(pool) != digest(generators.query_pool(2015))


def test_request_stream_is_seeded_and_skewed():
    stream = generators.request_stream(384, 1200, 2014)
    assert stream == generators.request_stream(384, 1200, 2014)
    assert stream != generators.request_stream(384, 1200, 2015)
    assert all(0 <= index < 384 for index in stream)
    counts = sorted((stream.count(index) for index in set(stream)),
                    reverse=True)
    # Zipf(1.0): the head repeats a lot, the tail is seen once or never.
    assert counts[0] > 100 and counts[-1] == 1 and len(counts) < 384


def test_tenants_rotate_with_rising_priority():
    assert [generators.tenant_of(i) for i in range(4)] == [
        ("tenant-0", 1), ("tenant-1", 2), ("tenant-2", 3), ("tenant-0", 1)]


def test_change_batches_are_seeded_and_stationary():
    tables = changing_tables(0.02, seed=5)
    batches = generators.change_batches(tables, 3, 5)
    again = generators.change_batches(changing_tables(0.02, seed=5), 3, 5)
    other = generators.change_batches(tables, 3, 6)
    assert digest(batches) == digest(again)
    assert digest(batches) != digest(other)
    assert [step for step, _ in batches[:6]] == [
        step for step, *_ in generators.CYCLE]

    rows = {"pageviews": len(tables["pageviews"].rows),
            "users": len(tables["users"].rows)}
    start = dict(rows)
    for position, (_, batch) in enumerate(batches, start=1):
        rows[batch.table] += len(batch.inserts) - len(batch.deletes)
        if position % len(generators.CYCLE) == 0:
            assert rows["users"] == start["users"]
            assert abs(rows["pageviews"] - start["pageviews"]) \
                <= 0.02 * start["pageviews"]
