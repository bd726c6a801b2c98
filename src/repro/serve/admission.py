"""The gateway's admission-control queue: bounded, weighted-fair, loss-free.

Mutating requests (submissions, cancellations, snapshots) do not touch
the engine when they arrive — they are *offered* to an
:class:`AdmissionQueue` and applied together at the next tick boundary.
The queue enforces the serving layer's ordering/robustness invariants
(property-tested in ``tests/serve/``):

* **FIFO per tenant and per client**: each tenant's requests drain in
  arrival order, so one client's submissions and cancellations can never
  be reordered against each other.  A single-tenant queue degenerates to
  one global FIFO — bit-identical to the pre-tenant queue.
* **Weighted-fair across tenants**: drains interleave tenants by
  **deficit round-robin** (DRR).  Each tenant accrues a per-round
  quantum proportional to its weight and spends one unit per drained
  request; any tenant with positive weight is served at least once per
  full rotation (quanta are normalized so the smallest is 1.0), so no
  tenant starves under any weight vector the queue accepts (every
  quantum finite and below :data:`MAX_QUANTUM`).
* **No loss, no duplication**: every offered request is drained exactly
  once or rejected exactly once at offer time — a :class:`Ticket` tracks
  each request until its :class:`~repro.serve.requests.Response` arrives.
* **Deterministic backpressure**: the only offer-time rejection is queue
  depth, a pure function of the arrival sequence — replaying the same
  trace rejects the same requests.  (Live-campaign budgets and tenant
  quotas are the gateway's drain-time admission checks, equally
  deterministic.)

Scheduling state (subqueues, rotation order, deficits) serializes into
checkpoint bundles via :meth:`AdmissionQueue.scheduler_state`, so a
resumed gateway continues the *same* round — mid-drain snapshots stay
bit-identical.  Wall-clock (:attr:`Ticket.offered_at`) never enters any
serialized form.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Mapping

from repro.serve.requests import DEFAULT_TENANT, Response

__all__ = ["AdmissionQueue", "QueueStats", "Ticket"]

#: Every drain quantum must stay below this.  A deficit is at most one
#: quantum plus a leftover under 1.0, and ``deficit - 1.0`` is exact only
#: below 2**53.
MAX_QUANTUM = 2.0**52


class Ticket:
    """One in-flight request's response handle.

    Created when a request is offered to the gateway; resolved exactly
    once with the request's :class:`~repro.serve.requests.Response` —
    either immediately (reads, offer-time rejections) or at the tick
    boundary its drain batch is applied at.  Synchronous callers read
    :attr:`response` after driving the gateway; the asyncio facade
    bridges :meth:`add_done_callback` onto a future.
    """

    __slots__ = (
        "seq", "client", "tenant", "offered_at", "request",
        "_response", "_callbacks",
    )

    def __init__(
        self,
        seq: int,
        client: str,
        request,
        offered_at: float,
        tenant: str = DEFAULT_TENANT,
    ):
        self.seq = seq
        self.client = client
        self.tenant = tenant
        self.request = request
        #: ``time.perf_counter()`` at offer time — latency accounting
        #: only; asserted never to reach a serialized form
        #: (tests/serve/test_wallclock_isolation.py).
        self.offered_at = offered_at
        self._response: Response | None = None
        self._callbacks: list = []

    @property
    def done(self) -> bool:
        """True once the response has arrived."""
        return self._response is not None

    @property
    def response(self) -> Response:
        """The response; raises if the request is still in flight."""
        if self._response is None:
            raise RuntimeError(
                f"request #{self.seq} from {self.client!r} is still queued "
                "(drive the gateway to a tick boundary first)"
            )
        return self._response

    def resolve(self, response: Response) -> None:
        """Deliver the response (exactly once) and fire the callbacks."""
        if self._response is not None:
            raise RuntimeError(f"request #{self.seq} was already resolved")
        self._response = response
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback) -> None:
        """Call ``callback(ticket)`` on resolution (now, if already done)."""
        if self._response is not None:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = self._response.status if self._response else "queued"
        return f"Ticket(#{self.seq}, {self.client!r}, {state})"


@dataclasses.dataclass(frozen=True)
class QueueStats:
    """Lifetime counters of one :class:`AdmissionQueue`.

    Attributes
    ----------
    offered:
        Requests ever offered.
    accepted:
        Offers that entered the queue.
    rejected_full:
        Offers bounced at the depth bound (backpressure).
    drained:
        Requests handed out by :meth:`AdmissionQueue.drain`.
    max_depth_seen:
        Peak queue depth observed.
    """

    offered: int
    accepted: int
    rejected_full: int
    drained: int
    max_depth_seen: int


class AdmissionQueue:
    """Bounded per-tenant FIFOs drained weighted-fair (deficit round-robin).

    Parameters
    ----------
    max_depth:
        Total depth bound across all tenants; offers beyond it are
        rejected (deterministic backpressure).  ``None`` disables the
        bound.
    weights:
        Tenant name -> positive drain weight.  A tenant with weight 2
        drains twice as many requests per round as a tenant with weight
        1.  Tenants not listed get ``default_weight``.
    default_weight:
        Weight of tenants absent from ``weights`` (including the default
        tenant); must be positive.
    """

    def __init__(
        self,
        max_depth: int | None = 256,
        *,
        weights: Mapping[str, float] | None = None,
        default_weight: float = 1.0,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        if not 0 < default_weight < math.inf:
            raise ValueError(
                f"default_weight must be finite and > 0, got {default_weight}"
            )
        self.max_depth = max_depth
        self.weights: dict[str, float] = (
            {str(t): float(w) for t, w in weights.items()} if weights else {}
        )
        for tenant, weight in self.weights.items():
            if not 0 < weight < math.inf:
                raise ValueError(
                    f"tenant {tenant!r} weight must be finite and > 0, "
                    f"got {weight}"
                )
        self.default_weight = float(default_weight)
        # Quanta are weights normalized so the smallest possible quantum
        # is 1.0: every non-empty tenant is then served at least once per
        # full rotation, which is both the no-starvation bound and what
        # keeps pop()'s rotation loop O(active tenants).
        # Kept as the divisor (not a precomputed reciprocal): IEEE
        # division gives exactly 1.0 for the floor weight itself, where
        # ``w * (1.0 / w)`` can round to 0.999..., silently breaking the
        # every-quantum->=-1.0 invariant and starving that tenant for a
        # rotation.
        self._quantum_floor = min([*self.weights.values(), self.default_weight])
        # pop() spends a deficit one unit at a time, and from 2**53 on
        # ``deficit - 1.0`` rounds back to ``deficit``: a quantum past
        # MAX_QUANTUM (or infinite) would let its tenant drain forever.
        for tenant, weight in [*self.weights.items(), (None, self.default_weight)]:
            if not weight / self._quantum_floor < MAX_QUANTUM:
                name = "default" if tenant is None else f"tenant {tenant!r}"
                raise ValueError(
                    f"{name} weight {weight} over the smallest weight "
                    f"{self._quantum_floor} gives a drain quantum at or "
                    f"above 2**52, where deficit steps stop being exact"
                )
        # Per-tenant FIFO subqueues; deques for O(1) popleft.  A tenant
        # is present iff it has queued tickets, and then appears exactly
        # once in the DRR rotation.
        self._subqueues: dict[str, deque[Ticket]] = {}
        self._rotation: deque[str] = deque()
        self._deficits: dict[str, float] = {}
        # Whether the tenant at the rotation head already received this
        # round's quantum top-up (pop() hands out one ticket at a time,
        # so round state must survive between calls).
        self._head_topped = False
        self._size = 0
        self._next_seq = 0
        self._offered = 0
        self._rejected_full = 0
        self._drained = 0
        self._max_depth_seen = 0

    def __len__(self) -> int:
        return self._size

    @property
    def depth(self) -> int:
        """Requests currently queued (all tenants)."""
        return self._size

    def depth_of(self, tenant: str) -> int:
        """Requests currently queued for one tenant."""
        sub = self._subqueues.get(tenant)
        return len(sub) if sub is not None else 0

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenants with queued requests, in current rotation order."""
        return tuple(self._rotation)

    def weight_of(self, tenant: str) -> float:
        """The tenant's configured (or default) drain weight."""
        return self.weights.get(tenant, self.default_weight)

    def quantum_of(self, tenant: str) -> float:
        """The tenant's per-rotation drain quantum (weight / smallest weight).

        The smallest weight counts ``default_weight`` too — an unlisted
        tenant must also clear one serve per rotation — so every quantum
        is >= 1.0.  A tenant drains at most ``floor(quantum) + 1``
        requests per rotation (deficit carryover is < 1), which makes
        ``sum(floor(quantum_u) + 1)`` over non-empty tenants the
        rotation-length — and no-starvation — bound the property tests
        assert.
        """
        return self.weight_of(tenant) / self._quantum_floor

    def _quantum(self, tenant: str) -> float:
        return self.quantum_of(tenant)

    @property
    def stats(self) -> QueueStats:
        """Current counters as an immutable snapshot."""
        return QueueStats(
            offered=self._offered,
            accepted=self._offered - self._rejected_full,
            rejected_full=self._rejected_full,
            drained=self._drained,
            max_depth_seen=self._max_depth_seen,
        )

    def make_ticket(
        self,
        client: str,
        request,
        offered_at: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> Ticket:
        """Mint a ticket with the next arrival sequence, without queueing.

        Reads share the gateway's arrival numbering (one total order over
        all requests) but are answered immediately, so they get a ticket
        here and never enter the queue.
        """
        ticket = Ticket(self._next_seq, client, request, offered_at, tenant)
        self._next_seq += 1
        return ticket

    def offer(
        self,
        client: str,
        request,
        offered_at: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> tuple[Ticket, bool]:
        """Enqueue one request; returns ``(ticket, accepted)``.

        ``accepted=False`` means the depth bound bounced the offer: the
        ticket is *not* queued and the caller must resolve it with a
        backpressure rejection immediately (the queue does not know the
        engine tick, so it never builds responses itself).
        """
        ticket = self.make_ticket(client, request, offered_at, tenant)
        self._offered += 1
        if self.max_depth is not None and self._size >= self.max_depth:
            self._rejected_full += 1
            return ticket, False
        sub = self._subqueues.get(tenant)
        if sub is None:
            sub = self._subqueues[tenant] = deque()
            # A newly-active tenant joins the rotation tail with zero
            # deficit: it is topped up when its turn comes, never
            # mid-round (which would let re-arrival jump the queue).
            self._rotation.append(tenant)
        sub.append(ticket)
        self._size += 1
        self._max_depth_seen = max(self._max_depth_seen, self._size)
        return ticket, True

    def pop(self) -> Ticket | None:
        """Take the next request in DRR order (``None`` when empty).

        The gateway drains one ticket at a time so a mid-batch
        :class:`~repro.serve.requests.Snapshot` still finds the batch's
        unprocessed tail in the queue — the checkpoint then carries it,
        scheduler round state included.  With one tenant this is exactly
        the old global-FIFO pop.
        """
        if self._size == 0:
            return None
        self._drained += 1
        self._size -= 1
        while True:
            tenant = self._rotation[0]
            if not self._head_topped:
                self._deficits[tenant] = (
                    self._deficits.get(tenant, 0.0) + self._quantum(tenant)
                )
                self._head_topped = True
            if self._deficits[tenant] >= 1.0:
                sub = self._subqueues[tenant]
                ticket = sub.popleft()
                self._deficits[tenant] -= 1.0
                if not sub:
                    # DRR: a tenant that empties its queue forfeits its
                    # leftover deficit and leaves the rotation.
                    del self._subqueues[tenant]
                    self._deficits.pop(tenant, None)
                    self._rotation.popleft()
                    self._head_topped = False
                return ticket
            # Quantum spent: next tenant's turn this round.
            self._rotation.rotate(-1)
            self._head_topped = False

    def snapshot(self) -> tuple[Ticket, ...]:
        """The queued tickets in arrival (seq) order, without removing them.

        What :meth:`Gateway.save <repro.serve.gateway.Gateway.save>`
        serializes so a checkpoint loses no in-flight request; the DRR
        round state travels separately via :meth:`scheduler_state`.
        """
        tickets = [t for sub in self._subqueues.values() for t in sub]
        tickets.sort(key=lambda t: t.seq)
        return tuple(tickets)

    def drain(self) -> list[Ticket]:
        """Pop every queued request, in DRR (single tenant: FIFO) order."""
        batch: list[Ticket] = []
        while (ticket := self.pop()) is not None:
            batch.append(ticket)
        return batch

    def scheduler_state(self) -> dict:
        """The DRR round state as a JSON-ready dict (checkpoint extras)."""
        return {
            "rotation": list(self._rotation),
            "deficits": {t: float(d) for t, d in self._deficits.items()},
            "head_topped": self._head_topped,
        }

    def restore(
        self,
        next_seq: int,
        tickets: list[Ticket],
        scheduler: Mapping | None = None,
    ) -> None:
        """Reload queued tickets and the arrival counter (checkpoint resume).

        ``tickets`` must be in arrival order with their original sequence
        numbers; each rejoins its tenant's subqueue.  ``scheduler``
        restores the DRR round state (:meth:`scheduler_state`); without
        it (pre-tenant bundles) rotation order falls back to first
        arrival with fresh deficits — exact for single-tenant bundles,
        which is all the pre-tenant format could contain.
        """
        self._subqueues = {}
        self._rotation = deque()
        self._deficits = {}
        self._head_topped = False
        self._size = 0
        for ticket in tickets:
            sub = self._subqueues.get(ticket.tenant)
            if sub is None:
                sub = self._subqueues[ticket.tenant] = deque()
                self._rotation.append(ticket.tenant)
            sub.append(ticket)
            self._size += 1
        if scheduler is not None:
            rotation = [str(t) for t in scheduler.get("rotation", [])]
            if sorted(rotation) != sorted(self._subqueues):
                raise ValueError(
                    "checkpoint scheduler state names tenants "
                    f"{sorted(rotation)} but the queued tickets belong to "
                    f"{sorted(self._subqueues)}"
                )
            self._rotation = deque(rotation)
            self._deficits = {
                str(t): float(d)
                for t, d in scheduler.get("deficits", {}).items()
            }
            self._head_topped = bool(scheduler.get("head_topped", False))
        self._next_seq = int(next_seq)
        self._max_depth_seen = max(self._max_depth_seen, self._size)

    @property
    def next_seq(self) -> int:
        """The sequence number the next offer will receive."""
        return self._next_seq

    def __repr__(self) -> str:
        bound = self.max_depth if self.max_depth is not None else "unbounded"
        return (
            f"AdmissionQueue(depth={self._size}/{bound}, "
            f"{len(self._subqueues)} tenants)"
        )
