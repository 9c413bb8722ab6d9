"""Multi-tenant queued admission for :class:`~repro.service.service.QueryService`.

Callers ``submit()`` requests -- each tagged with a ``tenant`` and
``priority`` -- into a long-lived queue, and ``drain()`` dispatches the
queued work through a **deficit weighted round robin** (DWRR) scheduler
before handing it, in that order, to the service's admission and
execution pass on the calling thread.

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
  submitted (ticket, tenant, priority) sequence. Within one tenant,
  requests dispatch strictly FIFO.

Dispatch order decides execution order -- and with it which copy of a
query runs the pilots the others reuse -- but never results: plans and
caches are answer-invariant, so a drain is byte-identical to running the
same queries serially in any order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    """Long-lived submission queue + DWRR dispatcher over one service,
    driven by the service's one thread."""

    def __init__(self, service):
        self._service = service
        self._pending: dict[int, _Pending] = {}
        self._next_ticket = 0
        self._deficits: dict[str, float] = {}

    @property
    def _tracer(self) -> Tracer:
        return self._service.tracer

    def submit(self, request) -> int:
        """Enqueue one request; returns its submission ticket.

        Tickets are monotonic in submission order and scope a later
        ``drain`` to exactly this caller's requests.
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        self._pending[ticket] = _Pending(request, time.perf_counter())
        depth = len(self._pending)
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
        return len(self._pending)

    def drain(self, tickets: list[int] | None = None):
        """Dispatch queued requests to completion; outcomes in
        submission order.

        With ``tickets`` the drain is scoped to those submissions (ones
        already drained are skipped) and each outcome's ``index`` is the
        ticket's position in the list. Without, everything currently
        queued is drained and ``index`` is the global ticket.
        """
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
        if not order:
            return []
        depth = len(self._pending)
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
        admissions = self._service._admit([
            (index_of[ticket], taken[ticket].request,
             taken[ticket].submitted_at)
            for ticket in order
        ])
        outcomes = self._service._execute_admissions(admissions)
        return sorted(outcomes, key=lambda outcome: outcome.index)

    def run_sustained(self, requests, qps: float | None = None):
        """Paced open-loop load on the calling thread; returns outcomes in
        submission order.

        Request ``i`` arrives at ``start + i / qps`` (``qps=None``: all at
        once). The pump submits every request whose arrival has passed,
        drains the queue, and sleeps only while the queue is empty. Wait
        and latency count from each request's scheduled arrival, not from
        when the pump got round to submitting it, so a drain that falls
        behind shows up as queue wait instead of being hidden
        (coordinated omission).
        """
        requests = list(requests)
        interval = 1.0 / qps if qps else 0.0
        start = time.perf_counter()
        outcomes = []
        submitted = 0
        while submitted < len(requests) or self._pending:
            now = time.perf_counter()
            while (submitted < len(requests)
                   and start + submitted * interval <= now):
                ticket = self.submit(requests[submitted])
                self._pending[ticket].submitted_at = \
                    start + submitted * interval
                submitted += 1
            if self._pending:
                outcomes.extend(self.drain())
            else:
                time.sleep(start + submitted * interval - now)
        return sorted(outcomes, key=lambda outcome: outcome.index)
