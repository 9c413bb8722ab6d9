"""Multi-tenant queued admission for :class:`~repro.service.service.QueryService`.

The service used to be a one-shot batch runner: ``run_batch`` admitted a
list all at once and the only fairness was FIFO. This module turns it
into a front door: callers ``submit()`` requests -- each tagged with a
``tenant`` and ``priority`` -- into a long-lived queue, and ``drain()``
dispatches the queued work through a **deficit weighted round robin**
(DWRR) scheduler before handing it to the service's existing admission
pipeline (pilot claims, memory gate, driver pool).

Fairness policy
---------------

Tenants are visited round-robin in order of first appearance in the
queue. On each visit a tenant's *deficit* grows by the priority of its
head-of-queue request (clamped to >= 1), and it
dispatches one query per unit of deficit until the deficit or its queue
runs out. A tenant whose queue empties forfeits its remaining deficit,
so idle tenants cannot hoard credit and burst later. Consequences:

* **starvation-free** -- every tenant with queued work dispatches at
  least one query per round, whatever the other tenants' priorities;
* **weighted** -- over a long backlog, tenants receive admission slots
  proportional to their priorities;
* **deterministic** -- the dispatch order is a pure function of the
  submitted (ticket, tenant, priority) sequence; thread timing never
  changes it. Within one tenant, requests dispatch strictly FIFO.

Dispatch order decides *admission* order -- and with it pilot-claim
ownership and memory-gate ticket order -- but never results: plans and
caches are answer-invariant, so a drain is byte-identical to running the
same queries serially in any order.

``run_batch`` remains as a thin submit-all-then-drain wrapper; since a
drain can be scoped to an explicit ticket list, concurrent ``run_batch``
callers sharing the one scheduler never steal each other's outcomes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["QueryScheduler", "dispatch_order"]


def dispatch_order(
    entries: list[tuple[int, str, int]],
    deficits: dict[str, float] | None = None,
) -> list[int]:
    """Pure DWRR ordering of queued requests.

    ``entries`` is the queue snapshot in submission order as
    ``(ticket, tenant, priority)`` triples; the return value is every
    ticket exactly once, in dispatch order. ``deficits`` (mutated in
    place when given) carries per-tenant credit across calls; tenants
    drained to empty are reset to zero.
    """
    if deficits is None:
        deficits = {}
    queues: dict[str, list[tuple[int, int]]] = {}
    ring: list[str] = []  # tenants in first-appearance order
    for ticket, tenant, priority in entries:
        if tenant not in queues:
            queues[tenant] = []
            ring.append(tenant)
        queues[tenant].append((ticket, max(priority, 1)))
    order: list[int] = []
    while len(order) < len(entries):
        for tenant in ring:
            queue = queues[tenant]
            if not queue:
                continue
            deficits[tenant] = deficits.get(tenant, 0.0) + queue[0][1]
            while queue and deficits[tenant] >= 1.0:
                ticket, _ = queue.pop(0)
                order.append(ticket)
                deficits[tenant] -= 1.0
            if not queue:
                deficits[tenant] = 0.0
    return order


@dataclass
class _Pending:
    """One submitted-but-not-yet-drained request."""

    request: object
    submitted_at: float


class QueryScheduler:
    """Long-lived submission queue + DWRR dispatcher over one service.

    Thread-safe: many producers may ``submit()`` while consumers
    ``drain()``; a queued request is dispatched by exactly one drain
    (entries are popped from the queue atomically under the scheduler
    lock before dispatch ordering).
    """

    def __init__(self, service):
        self._service = service
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_ticket = 0
        self._deficits: dict[str, float] = {}

    @property
    def _tracer(self) -> Tracer:
        return self._service.tracer

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._service.metrics

    def submit(self, request) -> int:
        """Enqueue one request; returns its submission ticket.

        Tickets are globally monotonic in submission order and scope a
        later ``drain`` to exactly this caller's requests.
        """
        with self._lock:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._pending[ticket] = _Pending(request, time.perf_counter())
            depth = len(self._pending)
        if self._metrics.enabled:
            self._metrics.observe("service.queue_depth", depth)
        if self._tracer.enabled:
            self._tracer.event(
                "service.submit",
                request=request.name,
                tenant=request.tenant,
                priority=request.priority,
                ticket=ticket,
                depth=depth,
            )
        return ticket

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def drain(self, tickets: list[int] | None = None):
        """Dispatch queued requests to completion; outcomes in
        submission order.

        With ``tickets`` the drain is scoped to those submissions (ones
        already drained elsewhere are skipped) and each outcome's
        ``index`` is the ticket's position in the list -- so
        ``run_batch`` keeps its 0..n-1 indices. Without, everything
        currently queued is drained and ``index`` is the global ticket.
        """
        # The guard must fire before the queue is touched: a refused
        # drain leaves the submissions queued, not half-admitted.
        self._service._check_fault_guard()
        with self._lock:
            if tickets is None:
                scoped = sorted(self._pending)
            else:
                scoped = [t for t in tickets if t in self._pending]
            taken = {t: self._pending.pop(t) for t in scoped}
            order = dispatch_order(
                [(t, taken[t].request.tenant, taken[t].request.priority)
                 for t in scoped],
                self._deficits,
            )
            depth = len(self._pending)
        if not order:
            return []
        if self._metrics.enabled:
            self._metrics.observe("service.queue_depth", depth)
        if self._tracer.enabled:
            self._tracer.event(
                "service.drain",
                queued=len(order),
                tenants=len({taken[t].request.tenant for t in order}),
                remaining_depth=depth,
            )
        if tickets is None:
            index_of = {ticket: ticket for ticket in scoped}
        else:
            index_of = {ticket: position
                        for position, ticket in enumerate(tickets)}
        admissions = self._service._admit(
            [taken[ticket].request for ticket in order],
            indices=[index_of[ticket] for ticket in order],
        )
        for admission, ticket in zip(admissions, order):
            admission.submitted_at = taken[ticket].submitted_at
        outcomes = self._service._execute_admissions(admissions)
        return sorted(outcomes, key=lambda outcome: outcome.index)

    def run_sustained(self, requests, qps: float | None = None):
        """Paced open-loop load: submit at ``qps`` while a background
        drainer executes; returns outcomes in submission order.

        This is the CLI/bench entry point for sustained traffic -- the
        queue genuinely builds depth whenever the submission rate beats
        the service, which is what exercises the fair dispatcher.
        ``qps=None`` submits as fast as possible.
        """
        outcomes = []
        collected = threading.Lock()
        done_submitting = threading.Event()

        def drainer() -> None:
            while True:
                drained = self.drain()
                if drained:
                    with collected:
                        outcomes.extend(drained)
                elif done_submitting.is_set():
                    if self.queue_depth() == 0:
                        return
                else:
                    time.sleep(0.0005)

        thread = threading.Thread(target=drainer,
                                  name="scheduler-drainer")
        thread.start()
        interval = 1.0 / qps if qps and qps > 0 else 0.0
        try:
            for request in requests:
                self.submit(request)
                if interval:
                    time.sleep(interval)
        finally:
            done_submitting.set()
            thread.join()
        return sorted(outcomes, key=lambda outcome: outcome.index)
