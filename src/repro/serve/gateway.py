"""The serving gateway: an async request frontier over one engine session.

:class:`Gateway` turns any :class:`~repro.engine.clock.EngineBase` — the
pooled :class:`~repro.engine.engine.MarketplaceEngine` or the
:class:`~repro.engine.sharding.ShardedEngine` at any shard count — into a
long-lived service that many concurrent client sessions talk to while the
deterministic tick loop keeps running underneath:

* **Mutating requests coalesce at tick boundaries.**  Submissions,
  cancellations, and snapshots queue in arrival order and are applied by
  a tick-boundary hook
  (:meth:`~repro.engine.clock.EngineCore.add_tick_boundary_hook`) riding
  the engine's ordinary mid-flight ``submit()``/``cancel()`` paths.
  Queueing consumes no randomness, so a served run's per-campaign
  outcomes are **bit-identical** to the same submissions issued directly
  against the engine — the serving determinism contract
  (``docs/serving.md``), asserted across shard counts and
  checkpoint/resume boundaries.
* **Admission control backpressures instead of dropping.**  A bounded
  request queue rejects offers beyond its depth, and a live-campaign
  budget rejects submissions once ``live + pending`` reaches it — both
  deterministic functions of the arrival sequence, never of wall-clock.
* **Frontiers isolate tenant groups.**  ``frontiers=N`` splits admission
  into N queues, each with its own depth bound, drain budget, and
  weighted-fair scheduler.  A tenant's requests (an untagged client's, by
  client id) always route to the same frontier by a stable CRC-32, so
  its FIFO order holds while one group's backlog cannot backpressure
  another's.  Frontiers drain in index order into the one engine
  session, ledger, and telemetry stream: the engine re-sorts same-tick
  submissions at admission, so an uncontended replay is bit-identical
  at any frontier count.
* **Reads never wait for the clock.**  Quotes are answered from the
  policy cache via a side-effect-free
  :meth:`~repro.engine.cache.PolicyCache.peek`, and telemetry queries
  from the collector — immediately, between ticks.
* **Serving sessions are durable.**  :meth:`Gateway.save` checkpoints
  the engine session *plus* every frontier's queue and drain-in-progress
  tally, the telemetry, and the replay cursor into one bundle (manifest
  extras); :meth:`Gateway.resume` reopens it mid-serve, bit-identical to
  never having stopped.

Two ways to drive it: the synchronous :meth:`step`/:meth:`replay` pair
(deterministic traces, tests, golden runs) and the asyncio facade
(:meth:`request` + :meth:`serve`) for genuinely concurrent clients —
the :class:`~repro.serve.loadgen.LoadGenerator`'s closed-loop mode, the
``repro engine loadtest`` CLI.

Observability is opt-in wiring (``event_log=`` / ``tracer=`` /
``metrics=``): a wired gateway records every request/response,
admission batch, cancellation, and tick summary into the durable
:class:`~repro.obs.eventlog.EventLog` (flushed at tick boundaries,
synced before checkpoints, so bundle + log together survive ``kill
-9`` — :mod:`repro.obs.recovery`), threads deterministic trace ids from
each request through its drain batch to the tick that applied it, and
counts requests/latency into a metrics registry.  None of it perturbs
the served run: recording happens outside the engine's draws and
wall-clock never enters the deterministic telemetry.
"""

from __future__ import annotations

import asyncio
import pathlib
import time

import numpy as np

from repro.core.batch.deadline import solve_deadline_single as solve_deadline
from repro.core.budget.static_lp import solve_budget_hull
from repro.engine.campaign import BUDGET, CampaignOutcome, horizon_overrun
from repro.engine.checkpoint import (
    CheckpointError,
    load_extras,
    restore_engine,
    save_checkpoint,
)
from repro.engine.clock import EngineBase, EngineCore, PhaseTimings, TickReport
from repro.engine.outcomes import outcome_from_record, outcome_record
from repro.engine.sharding import shard_of
from repro.obs.tracing import trace_id_for_seq
from repro.scenario.driver import apply_cancellation
from repro.serve.admission import AdmissionQueue, Ticket
from repro.serve.requests import (
    DEFAULT_TENANT,
    Cancel,
    Quote,
    QueryTelemetry,
    RequestTrace,
    Response,
    Snapshot,
    SubmitCampaign,
    is_mutating,
    request_from_dict,
    request_kind,
    request_to_dict,
)
from repro.serve.telemetry import DrainReport, GatewayTelemetry
from repro.serve.tenants import TenantLedger, TenantQuota

__all__ = ["Gateway"]

#: Key a one-frontier gateway's state lives under in a bundle's extras.
_EXTRAS_KEY = "serve_gateway"

#: Key a multi-frontier gateway's state lives under: the same fields,
#: with the per-frontier ones listed under ``"members"``.
_FLEET_EXTRAS_KEY = "serve_fleet"

#: Extras format version (both keys); bumped on any incompatible change.
_EXTRAS_VERSION = 1


def _kind(request) -> str:
    """The request's type tag (response ``kind`` field)."""
    return request_kind(request)


def _gateway_state(extras: dict | None) -> dict | None:
    """The gateway state in a bundle's extras, whichever layout wrote it."""
    extras = extras or {}
    return extras.get(_EXTRAS_KEY) or extras.get(_FLEET_EXTRAS_KEY)


class _Frontier:
    """One admission frontier: a bounded fair queue plus its drain tally.

    The tally and the outcomes of the cancellations it applied accumulate
    across a tick's drains and are taken when the tick is recorded.
    """

    __slots__ = ("queue", "drain", "cancelled")

    def __init__(self, max_queue: int | None, weights: dict[str, float] | None):
        self.queue = AdmissionQueue(max_depth=max_queue, weights=weights)
        self.drain = DrainReport()
        self.cancelled: list[CampaignOutcome] = []

    def take(self) -> tuple[DrainReport, list[CampaignOutcome]]:
        """Swap out the accumulated drain state for one recorded tick."""
        drain, self.drain = self.drain, DrainReport()
        cancelled, self.cancelled = self.cancelled, []
        return drain, cancelled


class Gateway:
    """One engine session served to many concurrent client sessions.

    Parameters
    ----------
    engine:
        Any engine front-end.  The gateway owns its serving session:
        call :meth:`start` (not ``engine.start``) and drive ticks through
        :meth:`step`/:meth:`serve`.
    frontiers:
        Admission frontiers (queue + fair scheduler), ``>= 1``.  Tenants
        partition across them by stable hash (:meth:`frontier_of`);
        ``max_queue`` and ``max_drain`` bound each frontier separately.
    max_live:
        Live-campaign budget: submissions are rejected (backpressure)
        while ``live + pending`` campaigns would exceed it.  ``None``
        disables the budget.  Engine-wide, whatever the frontier count.
    max_queue:
        Mutating-request queue depth per frontier; offers beyond it are
        rejected at offer time.  ``None`` disables the bound.
    max_drain:
        Per-boundary drain budget per frontier: at most this many queued
        requests are applied at each tick boundary (``None`` = drain
        everything, the historical behaviour).  Bounding the drain is
        what makes the weighted-fair scheduler observable — with an
        unbounded drain every queued request lands at the next boundary
        regardless of tenant.  Revival drains (waking an idle clock) stay
        unbounded so a queued submission can always restart the session.
    tenant_weights:
        Tenant name -> drain weight for the deficit-round-robin
        scheduler (unlisted tenants weigh 1.0).  ``None`` keeps every
        tenant at equal weight.
    tenant_quotas:
        Tenant name -> :class:`~repro.serve.tenants.TenantQuota`, checked
        against the gateway's one :attr:`ledger` (a quota bounds the
        tenant, not the tenant per frontier).  Exhausted quotas answer
        typed backpressure rejections whose payload names the tenant and
        quota.
    telemetry:
        The serving collector; fresh by default (restored on resume).
    event_log:
        Optional :class:`~repro.obs.eventlog.EventLog`.  When given,
        every request/response, admission batch, cancellation, and tick
        summary is appended (off the tick path, flushed at tick
        boundaries) and :meth:`save` syncs the log before recording its
        high-water sequence in the bundle — the durable half of the
        kill--9 recovery contract.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  Requests get
        deterministic trace ids derived from their arrival sequence; the
        per-tick span lists the trace ids its drain batch applied.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for
        request/response counters, queue-depth gauge, request-latency
        histograms, and the engine's per-tick-phase timers.
    """

    def __init__(
        self,
        engine: EngineBase,
        *,
        frontiers: int = 1,
        max_live: int | None = None,
        max_queue: int | None = 256,
        max_drain: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        tenant_quotas: dict[str, TenantQuota] | None = None,
        telemetry: GatewayTelemetry | None = None,
        event_log=None,
        tracer=None,
        metrics=None,
    ):
        if frontiers < 1:
            raise ValueError(f"frontiers must be >= 1, got {frontiers}")
        if max_live is not None and max_live < 1:
            raise ValueError(f"max_live must be >= 1 or None, got {max_live}")
        if max_drain is not None and max_drain < 1:
            raise ValueError(f"max_drain must be >= 1 or None, got {max_drain}")
        self.engine = engine
        self.max_live = max_live
        self.max_drain = max_drain
        self._frontiers = tuple(
            _Frontier(max_queue, tenant_weights) for _ in range(frontiers)
        )
        self.ledger = TenantLedger(tenant_quotas)
        self.telemetry = telemetry if telemetry is not None else GatewayTelemetry()
        self.event_log = event_log
        self.tracer = tracer
        self.metrics = metrics
        # Hot-path instrument handles, cached per label value: request
        # and response recording runs once per request, so the registry's
        # get-or-create lookup (name check + label key + lock) is paid
        # once per distinct label instead of once per call.
        self._request_counters: dict[str, object] = {}
        self._response_counters: dict[str, object] = {}
        self._latency_histogram = (
            metrics.histogram(
                "serve_request_latency_seconds",
                "Offer-to-response wall-clock seconds",
            )
            if metrics is not None
            else None
        )
        #: ``last_seq`` recorded in the bundle this gateway resumed from
        #: (``None`` on a fresh start or a pre-event-log bundle); events
        #: beyond it are the request tail recovery replays.
        self.resumed_event_seq: int | None = None
        # Open request spans by ticket (tracer wiring only; arrival seqs
        # are per frontier, so they are not unique across the gateway).
        self._open_spans: dict = {}
        # Arrival seqs the current tick's drain applied (tick-span attrs).
        self._drained_seqs: list[int] = []
        # Admission-log entries already mirrored into the event log.
        self._admission_seen = 0
        self._started = False
        self._replay_trace: RequestTrace | None = None
        self._replay_cursor = 0
        self._stopping = False
        self._wakeup = asyncio.Event()

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def start(
        self, seed: int = 0, rate_multipliers=None
    ) -> EngineCore:
        """Open the served session and register the tick-boundary drain.

        ``rate_multipliers`` installs per-interval arrival-rate factors
        (how a scenario's compiled modulation rides a served run).
        """
        if self._started:
            raise RuntimeError("the gateway has already started its session")
        core = self.engine.start(seed=seed)
        if rate_multipliers is not None:
            core.set_rate_multipliers(np.asarray(rate_multipliers, dtype=float))
        core.add_tick_boundary_hook(self._drain_hook)
        self.telemetry.engine.sync_baselines(core)
        if self.metrics is not None:
            core.enable_phase_timings(PhaseTimings(metrics=self.metrics))
        if self.event_log is not None:
            payload = {"action": "start", "seed": seed}
            if len(self._frontiers) > 1:
                payload["gateways"] = len(self._frontiers)
            self.event_log.log("run", core.clock, payload)
        self._started = True
        return core

    @property
    def started(self) -> bool:
        """True once :meth:`start` (or :meth:`resume`) opened the session."""
        return self._started

    @property
    def core(self) -> EngineCore | None:
        """The engine's active session, or ``None`` outside one."""
        return self.engine.core

    def _active_core(self) -> EngineCore:
        if not self._started:
            raise RuntimeError("call start(seed) before serving requests")
        core = self.engine.core
        if core is None:
            raise RuntimeError("the gateway's engine session has been closed")
        return core

    @property
    def clock(self) -> int:
        """The engine-clock interval the session stands at."""
        return self._active_core().clock

    @property
    def horizon_exhausted(self) -> bool:
        """True once the clock crossed the stream horizon (no revival)."""
        return self._active_core().clock >= self.engine.stream.num_intervals

    @property
    def queues(self) -> tuple[AdmissionQueue, ...]:
        """Every frontier's admission queue, in drain order."""
        return tuple(frontier.queue for frontier in self._frontiers)

    @property
    def queue(self) -> AdmissionQueue:
        """The admission queue of a one-frontier gateway (see :attr:`queues`)."""
        if len(self._frontiers) > 1:
            raise AttributeError(
                f"this gateway has {len(self._frontiers)} frontier queues; "
                "use .queues or .queue_depth"
            )
        return self._frontiers[0].queue

    @property
    def queue_depth(self) -> int:
        """Mutating requests queued across every frontier."""
        return sum(frontier.queue.depth for frontier in self._frontiers)

    def frontier_of(self, tenant: str = DEFAULT_TENANT, client: str = "local") -> int:
        """The index of the frontier that owns a tenant's requests.

        Stable: a tenant always lands on the same frontier, so its
        requests keep FIFO order through one fair scheduler.  Untagged
        (default-tenant) traffic partitions by client id for the same
        reason.  A one-frontier gateway hashes nothing.
        """
        count = len(self._frontiers)
        if count == 1:
            return 0
        return shard_of(tenant if tenant != DEFAULT_TENANT else client, count)

    @property
    def done(self) -> bool:
        """True when nothing could change: engine drained, queues empty."""
        if not self._started:
            return False
        core = self.engine.core
        if core is None:
            return True
        return core.done and self.queue_depth == 0

    def close(self) -> None:
        """End the session; unanswered queued requests are rejected."""
        if self.engine.core is not None:
            clock = self.engine.core.clock
            self._flush("gateway closed before the next tick boundary")
            if self.event_log is not None and self._started:
                self.event_log.log("run", clock, {"action": "close"})
        self.engine.close()
        if self.event_log is not None:
            self.event_log.flush()

    # ------------------------------------------------------------------
    # The request frontier (synchronous surface)
    # ------------------------------------------------------------------
    def offer(
        self, request, client: str = "local", tenant: str = DEFAULT_TENANT
    ) -> Ticket:
        """Hand one request to the gateway; returns its response ticket.

        Reads (:class:`Quote`, :class:`QueryTelemetry`) resolve before
        this returns.  Mutating requests resolve at the next tick
        boundary — drive the gateway (:meth:`step`, :meth:`serve`, or
        :meth:`replay`) and read ``ticket.response``.  ``tenant`` selects
        the frontier (:meth:`frontier_of`), its fair-scheduler subqueue,
        and the quota the submission is checked against.  Ticket
        sequence numbers count per frontier.
        """
        core = self._active_core()
        now = time.perf_counter()
        queue = self._frontiers[self.frontier_of(tenant, client)].queue
        if not is_mutating(request):
            ticket = queue.make_ticket(client, request, now, tenant)
            self._record_request(ticket, core)
            self._resolve(ticket, self._answer_read(request, core))
            return ticket
        ticket, accepted = queue.offer(client, request, now, tenant)
        self._record_request(ticket, core)
        if not accepted:
            self._resolve(
                ticket,
                Response(
                    kind=_kind(request),
                    status="rejected",
                    tick=core.clock,
                    detail=(
                        f"request queue full ({queue.max_depth} deep): "
                        "backpressure, retry after a tick"
                    ),
                ),
            )
        else:
            self._wakeup.set()
        return ticket

    def _resolve(self, ticket: Ticket, response: Response) -> None:
        """Deliver a response, tallying counters and latency."""
        ticket.resolve(response)
        self.telemetry.count_response(
            response.status, is_read=not is_mutating(ticket.request)
        )
        elapsed = time.perf_counter() - ticket.offered_at
        self.telemetry.latency.observe(elapsed)
        if ticket.tenant != DEFAULT_TENANT:
            self.telemetry.latency_for(ticket.tenant).observe(elapsed)
        self._record_response(ticket, response)

    # ------------------------------------------------------------------
    # Observability recording (no-ops unless the sinks are wired)
    # ------------------------------------------------------------------
    def _record_request(self, ticket: Ticket, core: EngineCore) -> None:
        """Log/trace/count one offered request (reads included).

        The request event is the recovery-critical row: it carries the
        clock the request arrived at and its full serialized form, which
        is exactly a :class:`~repro.serve.requests.RequestTrace` entry —
        recovery rebuilds the post-checkpoint request tail from these.
        """
        if self.event_log is not None:
            payload = {
                "seq": ticket.seq,
                "request": request_to_dict(ticket.request),
            }
            if ticket.tenant != DEFAULT_TENANT:
                # Same convention as RequestTrace.to_dict: the tenant key
                # appears only when tagged, keeping single-tenant event
                # logs byte-identical to pre-tenant ones.
                payload["tenant"] = ticket.tenant
            self.event_log.log(
                "request",
                core.clock,
                payload,
                client=ticket.client,
                trace_id=trace_id_for_seq(ticket.seq),
            )
        if self.tracer is not None:
            self._open_spans[ticket] = self.tracer.start_span(
                "request",
                trace_id_for_seq(ticket.seq),
                attrs={"kind": _kind(ticket.request), "client": ticket.client},
            )
        if self.metrics is not None:
            kind = _kind(ticket.request)
            counter = self._request_counters.get(kind)
            if counter is None:
                counter = self.metrics.counter(
                    "serve_requests_total",
                    "Requests offered to the gateway",
                    labels={"kind": kind},
                )
                self._request_counters[kind] = counter
            counter.inc()

    def _record_response(self, ticket: Ticket, response: Response) -> None:
        """Log/trace/count one delivered response."""
        if self.event_log is not None:
            self.event_log.log(
                "response",
                response.tick,
                {"seq": ticket.seq, "kind": response.kind,
                 "status": response.status},
                client=ticket.client,
                trace_id=trace_id_for_seq(ticket.seq),
            )
        if self.tracer is not None:
            span = self._open_spans.pop(ticket, None)
            if span is not None:
                self.tracer.finish_span(span, {"status": response.status})
        if self.metrics is not None:
            counter = self._response_counters.get(response.status)
            if counter is None:
                counter = self.metrics.counter(
                    "serve_responses_total",
                    "Responses delivered by the gateway",
                    labels={"status": response.status},
                )
                self._response_counters[response.status] = counter
            counter.inc()
            self._latency_histogram.observe(
                time.perf_counter() - ticket.offered_at
            )

    # ------------------------------------------------------------------
    # Reads: answered immediately, never blocking the tick loop
    # ------------------------------------------------------------------
    def _answer_read(self, request, core: EngineCore) -> Response:
        if isinstance(request, Quote):
            return self._quote(request, core)
        if isinstance(request, QueryTelemetry):
            payload = {
                "clock": core.clock,
                "live": core.num_live,
                "pending": core.num_pending,
                "queue_depth": self.queue_depth,
                "responses": dict(self.telemetry.responses),
                "ticks_recorded": self.telemetry.num_ticks,
            }
            if request.last > 0:
                payload["window"] = self.telemetry.window(request.last)
            return Response(
                kind="query-telemetry", status="ok", tick=core.clock,
                payload=payload,
            )
        raise TypeError(  # pragma: no cover - offer() routes by is_mutating
            f"not a read request: {type(request).__name__}"
        )

    def _quote(self, request: Quote, core: EngineCore) -> Response:
        """Price a campaign shape from the cache without touching it.

        The peek counts no cache lookup and refreshes no LRU position,
        so quoting cannot perturb the underlying run's admission
        telemetry; ``solve_on_miss`` solves *outside* the cache (nothing
        stored) for the same reason.  The signature comes from the
        planner's per-shape memo
        (:meth:`~repro.engine.planning.CampaignPlanner.cache_signature`),
        so quoting a popular shape builds no planning problem.  A shape
        that would outrun the stream, or a budget that cannot pay for its
        tasks, is rejected as its submission would be.
        """
        planner = self.engine.planner
        spec = request.spec
        problem = horizon_overrun(spec, self.engine.stream.num_intervals)
        if problem is None:
            problem = planner.budget_shortfall(spec)
        if problem is not None:
            return Response(
                kind="quote", status="rejected", tick=core.clock, detail=problem
            )
        payload: dict = {"kind": spec.kind, "cached": False, "solved": False,
                         "price": None}
        signature = planner.cache_signature(spec)
        if spec.kind == BUDGET:
            allocation = planner.cache.peek(signature)
            if allocation is not None:
                payload["cached"] = True
            elif request.solve_on_miss:
                budget_request = planner.budget_request(spec)
                allocation = solve_budget_hull(
                    budget_request.num_tasks,
                    budget_request.budget,
                    budget_request.acceptance,
                    budget_request.price_grid,
                )
                payload["solved"] = True
            if allocation is not None:
                payload["price"] = float(
                    allocation.as_semi_static().price_at(0)
                )
        else:
            policy = planner.cache.peek(signature)
            if policy is not None:
                payload["cached"] = True
            elif request.solve_on_miss:
                policy = solve_deadline(planner.planning_problem(spec))
                payload["solved"] = True
            if policy is not None:
                payload["price"] = float(policy.price(spec.num_tasks, 0))
        return Response(
            kind="quote", status="ok", tick=core.clock, payload=payload
        )

    # ------------------------------------------------------------------
    # The tick-boundary drain (mutating requests coalesce here)
    # ------------------------------------------------------------------
    def _drain_hook(self, core: EngineCore) -> None:
        """The :meth:`EngineCore.tick` boundary hook: apply the queues."""
        self._do_drain(core, budget=self.max_drain)

    def _do_drain(self, core: EngineCore, budget: int | None = None) -> None:
        """Apply queued mutations frontier by frontier, in fair-scheduler order.

        Each frontier applies requests until its tally for the tick
        reaches ``budget`` (``None`` = all — revival drains pass no
        budget so a queued submission can always wake an idle clock, and
        leave every queue empty for the hook drain that follows).  The
        tally accumulates in place on the frontier, so a mid-batch
        :class:`Snapshot` checkpoints a consistent partial drain: the
        resumed gateway finishes the batch within the same budget and the
        recorded tick comes out identical to the uninterrupted run's.
        """
        for frontier in self._frontiers:
            pd = frontier.drain
            queue = frontier.queue
            pd.queue_depth = max(pd.queue_depth, queue.depth)
            while budget is None or pd.drained < budget:
                ticket = queue.pop()
                if ticket is None:
                    break
                pd.drained += 1
                pd.tally(ticket.tenant, "drained")
                self._drained_seqs.append(ticket.seq)
                request = ticket.request
                if isinstance(request, SubmitCampaign):
                    self._apply_submit(ticket, core, pd)
                elif isinstance(request, Cancel):
                    self._apply_cancel(ticket, core, frontier)
                elif isinstance(request, Snapshot):
                    self._apply_snapshot(ticket, core, pd)
                else:  # pragma: no cover - is_mutating() gates the queue
                    raise TypeError(
                        f"unexpected queued request {type(request).__name__}"
                    )

    def _apply_submit(
        self, ticket: Ticket, core: EngineCore, pd: DrainReport
    ) -> None:
        spec = ticket.request.spec
        if self.max_live is not None:
            # core.num_pending counts submissions applied earlier in this
            # same drain batch, so occupancy cannot overshoot within one
            # boundary; ">=" leaves exactly max_live slots admittable
            # (both are pinned by regression tests in test_gateway.py).
            occupied = core.num_live + core.num_pending
            if occupied >= self.max_live:
                pd.rejected += 1
                pd.tally(ticket.tenant, "rejected")
                self._resolve(
                    ticket,
                    Response(
                        kind="submit-campaign", status="rejected",
                        tick=core.clock,
                        detail=(
                            f"live-campaign budget exhausted ({occupied} "
                            f"live+pending >= {self.max_live}): backpressure, "
                            "retry after retirements"
                        ),
                    ),
                )
                return
        block = self.ledger.blocked(ticket.tenant)
        if block is not None:
            quota_name, why = block
            pd.rejected += 1
            pd.tally(ticket.tenant, "rejected")
            self._resolve(
                ticket,
                Response(
                    kind="submit-campaign", status="rejected",
                    tick=core.clock,
                    detail=(
                        f"tenant {ticket.tenant!r} {why}: backpressure, "
                        "retry after a tick"
                    ),
                    payload={"tenant": ticket.tenant, "quota": quota_name},
                ),
            )
            return
        try:
            self.engine.submit([spec])
        except ValueError as exc:
            pd.rejected += 1
            pd.tally(ticket.tenant, "rejected")
            self._resolve(
                ticket,
                Response(
                    kind="submit-campaign", status="rejected",
                    tick=core.clock, detail=str(exc),
                ),
            )
            return
        pd.admitted += 1
        pd.tally(ticket.tenant, "admitted")
        self.ledger.admitted(ticket.tenant, spec.campaign_id)
        self._resolve(
            ticket,
            Response(
                kind="submit-campaign", status="ok", tick=core.clock,
                payload={
                    "campaign_id": spec.campaign_id,
                    "submit_interval": spec.submit_interval,
                },
            ),
        )

    def _apply_cancel(
        self, ticket: Ticket, core: EngineCore, frontier: _Frontier
    ) -> None:
        campaign_id = ticket.request.campaign_id
        try:
            status, outcome = apply_cancellation(self.engine, campaign_id)
        except ValueError as exc:
            self._resolve(
                ticket,
                Response(
                    kind="cancel", status="error", tick=core.clock,
                    detail=str(exc),
                ),
            )
            return
        frontier.drain.cancels += 1
        frontier.drain.tally(ticket.tenant, "cancels")
        if status in ("cancelled", "dropped"):
            # The campaign left the engine: give its owner the budget
            # slot back (no-op for campaigns not admitted via a tenant).
            self.ledger.release(campaign_id)
        if self.event_log is not None:
            self.event_log.log(
                "cancel",
                core.clock,
                {"result": status},
                campaign_id=campaign_id,
                client=ticket.client,
                trace_id=trace_id_for_seq(ticket.seq),
            )
        payload: dict = {"campaign_id": campaign_id, "result": status}
        if outcome is not None:
            frontier.cancelled.append(outcome)
            payload.update(
                completed=outcome.completed,
                remaining=outcome.remaining,
                total_cost=outcome.total_cost,
            )
        self._resolve(
            ticket,
            Response(kind="cancel", status="ok", tick=core.clock, payload=payload),
        )

    def _apply_snapshot(
        self, ticket: Ticket, core: EngineCore, pd: DrainReport
    ) -> None:
        # Tallied before saving so the bundle accounts for the snapshot
        # itself — its drain entry and its own "ok" response — exactly as
        # the uninterrupted run will have recorded them; a resumed
        # gateway then continues from identical counters.  A failed save
        # (bundle errors, or an unwritable path) rolls both back.  The
        # ticket is resolved directly (not through _resolve) to avoid
        # re-counting.
        pd.snapshots += 1
        self.telemetry.count_response("ok", is_read=False)
        try:
            path = self.save(ticket.request.path)
        except (CheckpointError, OSError) as exc:
            pd.snapshots -= 1
            self.telemetry.responses["ok"] -= 1
            self.telemetry.count_response("error", is_read=False)
            response = Response(
                kind="snapshot", status="error", tick=core.clock,
                detail=str(exc),
            )
        else:
            response = Response(
                kind="snapshot", status="ok", tick=core.clock,
                payload={"path": str(path)},
            )
        ticket.resolve(response)
        self.telemetry.latency.observe(time.perf_counter() - ticket.offered_at)
        self._record_response(ticket, response)

    def _flush(self, reason: str) -> None:
        """Reject every still-queued request (shutdown path: none lost)."""
        core = self.engine.core
        tick = core.clock if core is not None else -1
        for frontier in self._frontiers:
            while (ticket := frontier.queue.pop()) is not None:
                self._resolve(
                    ticket,
                    Response(
                        kind=_kind(ticket.request), status="rejected",
                        tick=tick, detail=reason,
                    ),
                )

    # ------------------------------------------------------------------
    # Driving the clock
    # ------------------------------------------------------------------
    def step(self) -> TickReport | None:
        """Advance one tick (draining the queues at its boundary).

        When the engine is idle-done, queued mutations are drained first
        — a submission can revive the clock.  Returns ``None`` when no
        tick could run (still idle after the drain); otherwise the
        engine's :class:`~repro.engine.clock.TickReport`, with the tick
        recorded into :attr:`telemetry`.
        """
        core = self._active_core()
        if core.done:
            self._do_drain(core)
            if core.done:
                return None
        tick_span = (
            self.tracer.start_span("tick", f"tick-{core.clock}")
            if self.tracer is not None
            else None
        )
        report = core.tick()
        self._finish_tick(core, report, tick_span)
        return report

    def _finish_tick(self, core: EngineCore, report: TickReport, tick_span=None) -> None:
        """Record one completed tick: telemetry, ledger, observability.

        Every frontier's drain tally is merged (in frontier order) into
        one report, so the tick is recorded once however many frontiers
        drained at its boundary.
        """
        drain, cancelled = self._frontiers[0].take()
        for frontier in self._frontiers[1:]:
            more, more_cancelled = frontier.take()
            drain.absorb(more)
            cancelled.extend(more_cancelled)
        drained_seqs, self._drained_seqs = self._drained_seqs, []
        self.ledger.settle(
            report.interval, (o.spec.campaign_id for o in report.retired)
        )
        self.ledger.end_tick(report.interval)
        self.telemetry.record_tick(core, report, drain, cancelled)
        if tick_span is not None:
            self.tracer.finish_span(
                tick_span,
                {
                    "interval": report.interval,
                    "idle": report.idle,
                    "batch": [trace_id_for_seq(s) for s in drained_seqs],
                },
            )
        if self.event_log is not None:
            self._log_tick(core, report, drain)
            # Flushing here keeps the writer's batches aligned with tick
            # boundaries instead of arbitrary buffer fill levels.
            self.event_log.flush()
        if self.metrics is not None:
            self._record_tick_metrics(core, drain)

    def _record_tick_metrics(self, core: EngineCore, drain: DrainReport) -> None:
        """Refresh the registry at a tick boundary (gauges + tenant counters).

        Observation-only: the registry is never serialized into telemetry,
        checkpoints, or the event log, so an instrumented run's
        deterministic artifacts stay byte-identical to a dark run's.
        """
        self.metrics.gauge(
            "serve_queue_depth", "Mutating requests queued"
        ).set(self.queue_depth)
        self.metrics.gauge(
            "engine_live_campaigns", "Campaigns currently live"
        ).set(core.num_live)
        self.metrics.gauge(
            "engine_pending_campaigns",
            "Submitted campaigns awaiting admission",
        ).set(core.num_pending)
        self.metrics.gauge(
            "engine_clock_interval", "Engine-clock interval"
        ).set(core.clock)
        if self.event_log is not None:
            self.metrics.gauge(
                "eventlog_buffered_events",
                "Events appended but not yet committed",
            ).set(self.event_log.buffered)
        for tenant, row in drain.tenants.items():
            labels = {"tenant": tenant}
            for field, amount in row.items():
                if amount:
                    self.metrics.counter(
                        f"serve_tenant_{field}_total",
                        f"Per-tenant {field} requests at drain time",
                        labels,
                    ).inc(amount)

    def _log_tick(self, core: EngineCore, report: TickReport, drain: DrainReport) -> None:
        """Append this tick's admission batches and summary row."""
        new = core.admissions_since(self._admission_seen)
        self._admission_seen += len(new)
        for interval, campaign_ids in new:
            self.event_log.log(
                "admission", interval, {"campaign_ids": list(campaign_ids)}
            )
        self.event_log.log(
            "tick",
            report.interval,
            {
                "admitted": report.admitted,
                "arrived": report.arrived,
                "considered": report.considered,
                "accepted": report.accepted,
                "retired": len(report.retired),
                "num_live": report.num_live,
                "idle": report.idle,
                "queue_depth": drain.queue_depth,
                "drained": drain.drained,
            },
        )

    def replay(self, trace: RequestTrace, on_tick=None) -> list[Ticket]:
        """Deliver a trace at its recorded ticks; run the session through it.

        The deterministic serving mode: requests are offered to the
        gateway right before their arrival tick's boundary, so the same
        trace always produces the same admission batches — and therefore
        per-campaign outcomes and telemetry bit-identical across shard
        counts and checkpoint/resume boundaries.  When the
        engine goes idle with trace left, requests up to and including
        the next submission are delivered early to wake the clock
        (queueing consumes no randomness; the submission still admits at
        its own submit interval).  Returns every delivered request's
        ticket.

        ``on_tick(gateway)``, when given, runs after every recorded tick;
        returning ``False`` stops the replay early — the trace cursor is
        kept so :meth:`save` can checkpoint the interrupted replay (the
        CLI's ``--checkpoint-every``/``--stop-after`` path) and
        :meth:`resume_replay` can finish it.
        """
        self._replay_trace = trace
        self._replay_cursor = 0
        return self._replay_loop(on_tick)

    @property
    def replay_remaining(self) -> int | None:
        """Trace requests not yet delivered (``None`` outside a replay)."""
        if self._replay_trace is None:
            return None
        return len(self._replay_trace.requests) - self._replay_cursor

    def resume_replay(self, on_tick=None) -> list[Ticket]:
        """Continue a trace replay restored by :meth:`resume`.

        Returns tickets for the requests delivered *after* the resume
        (earlier responses were already tallied before the snapshot).
        """
        if self._replay_trace is None:
            raise RuntimeError(
                "no replay to resume: the bundle carried no trace cursor"
            )
        return self._replay_loop(on_tick)

    def _replay_loop(self, on_tick=None) -> list[Ticket]:
        core = self._active_core()
        tickets: list[Ticket] = []

        def deliver(stop: int) -> None:
            while self._replay_cursor < stop:
                timed = self._replay_trace.requests[self._replay_cursor]
                self._replay_cursor += 1
                tickets.append(
                    self.offer(
                        timed.request, client=timed.client, tenant=timed.tenant
                    )
                )

        while True:
            trace = self._replay_trace
            assert trace is not None
            requests = trace.requests
            i = self._replay_cursor
            while i < len(requests) and requests[i].tick <= core.clock:
                i += 1
            deliver(i)
            if core.done and self.queue_depth == 0:
                if self._replay_cursor >= len(requests):
                    break
                # Engine idle mid-trace: deliver up to and including the
                # next submission to wake the clock (reads answer now;
                # early cancels can only hit already-retired targets,
                # which the tolerant semantics make order-independent).
                j = self._replay_cursor
                while j < len(requests) and not isinstance(
                    requests[j].request, SubmitCampaign
                ):
                    j += 1
                deliver(min(j + 1, len(requests)))
                continue
            report = self.step()
            if report is not None and on_tick is not None:
                if on_tick(self) is False:
                    # Early stop: keep the trace cursor for save()/resume.
                    return tickets
        self._replay_trace = None
        self._replay_cursor = 0
        return tickets

    # ------------------------------------------------------------------
    # The asyncio facade (concurrent client sessions)
    # ------------------------------------------------------------------
    async def request(
        self, request, client: str = "anon", tenant: str = DEFAULT_TENANT
    ) -> Response:
        """Send one request and await its response.

        Reads return immediately; mutating requests wait for the tick
        boundary their batch is applied at.  Requires a running
        :meth:`serve` loop (or someone else stepping the gateway).
        """
        ticket = self.offer(request, client=client, tenant=tenant)
        if ticket.done:
            return ticket.response
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        ticket.add_done_callback(
            lambda t: None if future.done() else future.set_result(t.response)
        )
        return await future

    async def serve(
        self, *, max_ticks: int | None = None, stop_when_idle: bool = False
    ) -> int:
        """Run the tick loop, yielding to client coroutines between ticks.

        Ticks as long as the engine has work; when idle before the
        horizon it parks on an event until new requests arrive (or
        :meth:`stop` is called).  Returns the number of ticks run.  On
        exit, still-queued requests are rejected — every request always
        gets exactly one response.

        Parameters
        ----------
        max_ticks:
            Stop after this many ticks (``None`` = no limit).
        stop_when_idle:
            Return instead of parking when the engine drains (closed
            traffic: stop once every client went quiet).
        """
        self._stopping = False
        ticks = 0
        while not self._stopping:
            if max_ticks is not None and ticks >= max_ticks:
                break
            report = self.step()
            if report is not None:
                ticks += 1
                # Yield between ticks so clients can enqueue and observe.
                await asyncio.sleep(0)
                continue
            if self.horizon_exhausted or stop_when_idle:
                break
            self._wakeup.clear()
            await self._wakeup.wait()
        self._flush("gateway stopped before the next tick boundary")
        return ticks

    def stop(self) -> None:
        """Ask a running :meth:`serve` loop to exit at the next boundary."""
        self._stopping = True
        self._wakeup.set()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    @staticmethod
    def _frontier_state(frontier: _Frontier) -> dict:
        """One frontier's serialized queue + drain-in-progress state.

        The per-frontier part of a bundle's extras: :meth:`save` inlines
        it for a one-frontier gateway and lists one per frontier under
        ``"members"`` otherwise.  Additive tenant keys follow the trace
        convention: present only when they carry non-default information,
        so single-tenant bundles stay byte-identical to pre-tenant ones.
        """
        queue = frontier.queue
        entries = []
        for t in queue.snapshot():
            entry = {
                "seq": t.seq,
                "client": t.client,
                "request": request_to_dict(t.request),
            }
            if t.tenant != DEFAULT_TENANT:
                entry["tenant"] = t.tenant
            entries.append(entry)
        drain = frontier.drain
        pending_drain = {
            "queue_depth": drain.queue_depth,
            "drained": drain.drained,
            "admitted": drain.admitted,
            "rejected": drain.rejected,
            "cancels": drain.cancels,
            "snapshots": drain.snapshots,
        }
        if drain.tenants:
            pending_drain["tenants"] = {
                tenant: dict(row) for tenant, row in drain.tenants.items()
            }
        state = {
            "next_seq": queue.next_seq,
            "queue": entries,
            "pending_drain": pending_drain,
            # Full records, spec embedded: in streaming mode the engine
            # holds no outcome list to look these up in at resume time.
            "pending_cancelled": [
                outcome_record(o, with_spec=True) for o in frontier.cancelled
            ],
        }
        # The DRR round state matters only when several tenants are
        # queued (single-tenant restore is exact without it).
        if len(queue.tenants) > 1 or queue.weights:
            state["scheduler"] = queue.scheduler_state()
        return state

    def _restore_frontier(self, frontier: _Frontier, state: dict, now: float) -> None:
        """Reload :meth:`_frontier_state` into one frontier (resume path)."""
        frontier.queue.restore(
            state["next_seq"],
            [
                Ticket(
                    int(entry["seq"]),
                    entry["client"],
                    request_from_dict(entry["request"]),
                    now,
                    entry.get("tenant", DEFAULT_TENANT),
                )
                for entry in state["queue"]
            ],
            scheduler=state.get("scheduler"),
        )
        pending_drain = dict(state["pending_drain"])
        tenants = pending_drain.pop("tenants", {})
        frontier.drain = DrainReport(
            **pending_drain,
            tenants={t: dict(row) for t, row in tenants.items()},
        )
        core = self.engine.core
        # Current bundles store full outcome records; bundles written
        # before the streaming core stored bare ids resolved against the
        # engine's materialized outcome list.
        outcomes = (
            {o.spec.campaign_id: o for o in core.outcomes}
            if core is not None
            else {}
        )
        frontier.cancelled = [
            outcome_from_record(entry)
            if isinstance(entry, dict)
            else outcomes[entry]
            for entry in state["pending_cancelled"]
        ]

    def _config_state(self) -> dict:
        """The admission configuration as serialized in bundle extras."""
        queue = self._frontiers[0].queue
        config = {
            "max_live": self.max_live,
            "max_queue": queue.max_depth,
        }
        # Additive keys, present only when configured (.get on resume).
        if self.max_drain is not None:
            config["max_drain"] = self.max_drain
        if queue.weights:
            config["tenant_weights"] = dict(queue.weights)
        if self.ledger.quotas:
            config["tenant_quotas"] = {
                tenant: quota.to_dict()
                for tenant, quota in self.ledger.quotas.items()
            }
        return config

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Snapshot the served session to a bundle (engine + gateway state).

        The bundle is a regular engine checkpoint whose extras carry every
        frontier's unanswered queue and drain-in-progress tally, the
        tenant ledger, the serving telemetry, the admission
        configuration, and — when called inside :meth:`replay` — the
        trace and its cursor.  A one-frontier gateway writes them under
        ``"serve_gateway"``; more frontiers write the ``"serve_fleet"``
        layout, one ``"members"`` entry per frontier.  Legal at any tick
        boundary, including mid-drain (a queued :class:`Snapshot`).
        """
        if not self._started:
            raise CheckpointError(
                "the gateway has not started; nothing to snapshot"
            )
        # Sync the event log *before* recording its high-water mark: once
        # the manifest (written last, renamed into place) names last_seq,
        # every event up to it is already durable — recovery can treat
        # "bundle + events beyond last_seq" as the complete run history.
        event_log_state = None
        if self.event_log is not None:
            event_log_state = {"last_seq": self.event_log.sync()}
        state = {"version": _EXTRAS_VERSION, "event_log": event_log_state}
        ledger_state = self.ledger.to_dict()
        if len(self._frontiers) == 1:
            key = _EXTRAS_KEY
            state["config"] = self._config_state()
            state.update(self._frontier_state(self._frontiers[0]))
        else:
            key = _FLEET_EXTRAS_KEY
            state["config"] = {
                "num_gateways": len(self._frontiers),
                **self._config_state(),
            }
            state["members"] = [
                self._frontier_state(frontier) for frontier in self._frontiers
            ]
            state["tenants"] = ledger_state
        state["telemetry"] = self.telemetry.to_dict()
        state["replay"] = (
            None
            if self._replay_trace is None
            else {
                "trace": self._replay_trace.to_dict(),
                "cursor": self._replay_cursor,
            }
        )
        if key == _EXTRAS_KEY and any(
            value for value in ledger_state.values() if isinstance(value, dict)
        ):
            state["tenants"] = ledger_state
        bundle = save_checkpoint(self.engine, path, extras={key: state})
        if self.event_log is not None:
            self.event_log.log(
                "checkpoint",
                self._active_core().clock,
                {"path": str(bundle), "last_seq": event_log_state["last_seq"]},
            )
            self.event_log.flush()
        return bundle

    @classmethod
    def resume(
        cls,
        path: str | pathlib.Path,
        *,
        event_log=None,
        tracer=None,
        metrics=None,
    ) -> "Gateway":
        """Reopen a served session from a bundle written by :meth:`save`.

        Restores the engine session, re-registers the tick-boundary
        drain, reloads every frontier's unanswered queue (the restored
        requests will be answered at the next boundary — none were lost),
        and rewinds nothing: driving the resumed gateway to exhaustion
        produces telemetry bit-identical to never having stopped.  The
        frontier count comes from the bundle.  A bundle saved
        mid-:meth:`replay` carries its trace; continue with
        :meth:`resume_replay`.
        """
        engine = restore_engine(path)
        state = _gateway_state(load_extras(path))
        if state is None:
            raise CheckpointError(
                f"bundle at {path} carries no serving-gateway state "
                "(was it written by Gateway.save?)"
            )
        if state.get("version") != _EXTRAS_VERSION:
            raise CheckpointError(
                f"serve-gateway state version {state.get('version')!r} is not "
                f"supported (this build reads version {_EXTRAS_VERSION})"
            )
        # A one-frontier state carries its frontier fields inline.
        members = state.get("members", [state])
        config = state["config"]
        quotas = config.get("tenant_quotas")
        gateway = cls(
            engine,
            frontiers=len(members),
            max_live=config["max_live"],
            max_queue=config["max_queue"],
            max_drain=config.get("max_drain"),
            tenant_weights=config.get("tenant_weights"),
            tenant_quotas=(
                {t: TenantQuota.from_dict(q) for t, q in quotas.items()}
                if quotas
                else None
            ),
            telemetry=GatewayTelemetry.from_dict(state["telemetry"]),
            event_log=event_log,
            tracer=tracer,
            metrics=metrics,
        )
        gateway.ledger.restore(state.get("tenants"))
        core = engine.core
        assert core is not None  # restore_engine always opens a session
        core.add_tick_boundary_hook(gateway._drain_hook)
        # Pre-checkpoint admissions were logged before the snapshot;
        # mirror only what happens from here on.
        gateway._admission_seen = core.num_admission_batches
        # "event_log" is an additive extras field (.get: bundles written
        # before it existed read as None).
        log_state = state.get("event_log")
        if log_state is not None:
            gateway.resumed_event_seq = log_state["last_seq"]
        if metrics is not None:
            core.enable_phase_timings(PhaseTimings(metrics=metrics))
        if event_log is not None:
            event_log.log(
                "run", core.clock,
                {"action": "resume", "bundle": str(path)},
            )
        gateway._started = True
        now = time.perf_counter()
        for frontier, member in zip(gateway._frontiers, members):
            gateway._restore_frontier(frontier, member, now)
        if state["replay"] is not None:
            gateway._replay_trace = RequestTrace.from_dict(
                state["replay"]["trace"]
            )
            gateway._replay_cursor = int(state["replay"]["cursor"])
        return gateway

    def __repr__(self) -> str:
        state = "started" if self._started else "idle"
        frontiers = (
            f"{len(self._frontiers)} frontiers, "
            if len(self._frontiers) > 1
            else ""
        )
        return (
            f"Gateway({type(self.engine).__name__}, {state}, {frontiers}"
            f"queue depth {self.queue_depth}, "
            f"{self.telemetry.total_requests} responses)"
        )
