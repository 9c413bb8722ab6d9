import threading

from benchmarks.suite.tracing import (
    TARGETS,
    Span,
    Target,
    Tracer,
    layer_totals,
    resolve,
    root_time,
    self_times,
    time_under,
)


def span(span_id, name, start, end, parent=None, thread=0):
    return Span(span_id, name, start, end, parent, 0, thread)


def test_self_time_subtracts_children():
    spans = [span(0, "outer", 0.0, 10.0),
             span(1, "inner", 2.0, 5.0, parent=0),
             span(2, "inner", 6.0, 7.0, parent=0),
             span(3, "leaf", 2.5, 3.0, parent=1)]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.5, 2: 1.0, 3: 0.5}
    totals = layer_totals(spans)
    assert totals["inner"].calls == 2
    assert totals["inner"].busy_s == 4.0
    assert totals["inner"].self_s == 3.5
    assert root_time(spans) == 10.0


def test_self_time_counts_overlapping_children_once():
    # Two driver threads under one drain overlap for 2 s: the drain's
    # own time is what neither covers, never negative.
    spans = [span(0, "sched.drain", 0.0, 10.0),
             span(1, "work", 1.0, 6.0, parent=0, thread=1),
             span(2, "work", 4.0, 9.0, parent=0, thread=2),
             span(3, "work", 9.5, 12.0, parent=0, thread=1)]
    assert self_times(spans)[0] == 10.0 - 8.0 - 0.5


def test_time_under_follows_ancestors():
    spans = [span(0, "pilot.run", 0.0, 4.0),
             span(1, "runtime.execute_batch", 1.0, 3.0, parent=0),
             span(2, "runtime.execute_batch", 5.0, 9.0),
             span(3, "dynopt.execute_block", 10.0, 20.0),
             span(4, "pilot.run", 11.0, 15.0, parent=3),
             span(5, "runtime.execute_batch", 12.0, 13.5, parent=4)]
    assert time_under(spans, "runtime.execute_batch", "pilot.run") == 3.5


class Front:
    """Stand-in for the service: a drain that runs work on a thread."""

    def drain(self):
        worker = threading.Thread(target=self.work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return self.work()

    def work(self):
        return 1


FRONT_TARGETS = (
    Target(f"{__name__}:Front", "drain", "sched.drain"),
    Target(f"{__name__}:Front", "work", "work"),
)


def test_worker_thread_span_takes_the_open_drain_as_parent():
    tracer = Tracer()
    tracer.install(FRONT_TARGETS)
    try:
        front = Front()
        front.work()
        front.drain()
    finally:
        tracer.remove()
    by_name = {}
    for recorded in tracer.spans:
        by_name.setdefault(recorded.name, []).append(recorded)
    drain, = by_name["sched.drain"]
    alone, on_worker, on_caller = sorted(by_name["work"],
                                         key=lambda item: item.start)
    assert alone.parent is None and drain.parent is None
    assert on_worker.parent == drain.id
    assert on_worker.thread != drain.thread
    assert on_caller.parent == drain.id
    assert on_caller.thread == drain.thread


def test_harvest_reads_return_values_only_inside_ops():
    seen = []
    tracer = Tracer()
    traced = tracer.wrap(lambda value: value * 2, "double",
                         lambda _, result: seen.append(result))
    assert traced(1) == 2
    tracer.op = 7
    assert traced(2) == 4
    assert seen == [4]
    assert [recorded.op for recorded in tracer.spans] == [-1, 7]


def test_wrappers_are_fully_removed():
    originals = [(resolve(target.owner), target.attr,
                  vars(resolve(target.owner))[target.attr])
                 for target in TARGETS]
    tracer = Tracer()
    tracer.install()
    assert all(vars(owner)[attr] is not original
               for owner, attr, original in originals)
    tracer.remove()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)
