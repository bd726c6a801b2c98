"""The serving gateway: an async request frontier over one engine session.

:class:`Gateway` turns a :class:`~repro.engine.engine.MarketplaceEngine`
— under either arrival model — into a
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
  (``docs/serving.md``), asserted under both arrival models and across
  checkpoint/resume boundaries.
* **Admission control backpressures instead of dropping.**  A bounded
  request queue rejects offers beyond its depth, and a live-campaign
  budget rejects submissions once ``live + pending`` reaches it — both
  deterministic functions of the arrival sequence, never of wall-clock.
* **Reads never wait for the clock.**  Quotes are answered from the
  policy cache via a side-effect-free
  :meth:`~repro.engine.cache.PolicyCache.peek`, and telemetry queries
  from the collector — immediately, between ticks.
* **Serving sessions are durable.**  :meth:`Gateway.save` checkpoints
  the engine session *plus* the request queue and its drain-in-progress
  tally, the telemetry, and the replay cursor into one bundle (manifest
  extras); :meth:`Gateway.resume` reopens it mid-serve, bit-identical to
  never having stopped.

Two ways to drive it: the synchronous :meth:`step`/:meth:`replay` pair
(deterministic traces, tests, golden runs) and the asyncio facade
(:meth:`request` + :meth:`serve`) for genuinely concurrent clients —
the :class:`~repro.serve.loadgen.LoadGenerator`'s closed-loop mode, the
``repro engine loadtest`` CLI.

Observability is opt-in wiring (``event_log=`` / ``metrics=``): a wired
gateway records every request/response, admission batch, cancellation,
and tick summary into the durable :class:`~repro.obs.eventlog.EventLog`
(flushed at tick boundaries, synced before checkpoints, so bundle + log
together survive ``kill -9`` — :mod:`repro.obs.recovery`), tags each
request's rows with one deterministic trace id derived from its arrival
sequence, and counts requests/latency into a metrics registry.  None of
it perturbs the served run: recording happens outside the engine's
draws and wall-clock never enters the deterministic telemetry.
"""

from __future__ import annotations

import asyncio
import pathlib
import time

import numpy as np

from repro.engine.campaign import CampaignOutcome
from repro.engine.checkpoint import (
    CheckpointError,
    decoding_bundle,
    load_extras,
    restore_engine,
    save_checkpoint,
)
from repro.engine.clock import EngineCore, PhaseTimings, TickReport
from repro.engine.engine import MarketplaceEngine
from repro.engine.outcomes import outcome_from_record, outcome_record
from repro.obs.events import trace_id_for_seq
from repro.obs.metrics import set_session_gauges
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

#: Key the gateway's state lives under in a bundle's extras.
_EXTRAS_KEY = "serve_gateway"

#: Key of the layout an earlier build wrote for a gateway partitioned
#: into several queues: the same fields, the per-queue ones listed under
#: ``"members"``.  Read only (:func:`_one_queue_state`).
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


def _one_queue_state(state: dict, path) -> dict:
    """A ``serve_gateway`` state for ``state``, folding a ``serve_fleet`` one.

    A partitioned bundle resumes as one queue only when it holds no
    request in flight: every member's queue, pending drain tally and
    pending cancellations empty (a tick-boundary snapshot taken outside a
    drain; an empty queue has no scheduler round state either).  The one
    queue then continues from the sum of the members' arrival counters,
    the count one queue would have reached.
    """
    members = state.get("members")
    if members is None:
        return state
    busy = [
        i for i, member in enumerate(members)
        if member["queue"] or member["pending_cancelled"]
        or any(member["pending_drain"].values())
    ]
    if busy:
        raise CheckpointError(
            f"bundle at {path} holds requests in flight on partitioned "
            f"admission queues {busy}; only a bundle saved with every queue "
            "empty resumes as one queue"
        )
    folded = {key: value for key, value in state.items() if key != "members"}
    folded["config"] = {
        key: value for key, value in state["config"].items()
        if key != "num_gateways"
    }
    folded.update(
        next_seq=sum(int(member["next_seq"]) for member in members),
        queue=[],
        pending_drain={},
        pending_cancelled=[],
    )
    return folded


class Gateway:
    """One engine session served to many concurrent client sessions.

    Parameters
    ----------
    engine:
        The marketplace engine to serve, under either arrival model.
        The gateway owns its serving session:
        call :meth:`start` (not ``engine.start``) and drive ticks through
        :meth:`step`/:meth:`serve`.
    max_live:
        Live-campaign budget: submissions are rejected (backpressure)
        while ``live + pending`` campaigns would exceed it.  ``None``
        disables the budget.
    max_queue:
        Mutating-request queue depth; offers beyond it are rejected at
        offer time.  ``None`` disables the bound.
    max_drain:
        Per-boundary drain budget: at most this many queued
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
        against the gateway's :attr:`ledger`.  Exhausted quotas answer
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
        kill--9 recovery contract.  Each request's rows carry the trace
        id :func:`~repro.obs.events.trace_id_for_seq` derives from its
        arrival sequence.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for
        request/response counters, queue-depth gauge, request-latency
        histograms, and the engine's per-tick-phase timers.
    """

    def __init__(
        self,
        engine: MarketplaceEngine,
        *,
        max_live: int | None = None,
        max_queue: int | None = 256,
        max_drain: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        tenant_quotas: dict[str, TenantQuota] | None = None,
        telemetry: GatewayTelemetry | None = None,
        event_log=None,
        metrics=None,
    ):
        if max_live is not None and max_live < 1:
            raise ValueError(f"max_live must be >= 1 or None, got {max_live}")
        if max_drain is not None and max_drain < 1:
            raise ValueError(f"max_drain must be >= 1 or None, got {max_drain}")
        self.engine = engine
        self.max_live = max_live
        self.max_drain = max_drain
        #: The bounded weighted-fair queue every mutating request waits in.
        self.queue = AdmissionQueue(max_depth=max_queue, weights=tenant_weights)
        # What the drains at the coming tick boundary did, and the
        # outcomes of the cancellations they applied; both accumulate
        # across the tick's drains and are taken when it is recorded.
        self._drain = DrainReport()
        self._cancelled: list[CampaignOutcome] = []
        self.ledger = TenantLedger(tenant_quotas)
        self.telemetry = telemetry if telemetry is not None else GatewayTelemetry()
        self.event_log = event_log
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
            self.event_log.log(
                "run", core.clock, {"action": "start", "seed": seed}
            )
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
    def done(self) -> bool:
        """True when nothing could change: engine drained, queue empty."""
        if not self._started:
            return False
        core = self.engine.core
        if core is None:
            return True
        return core.done and self.queue.depth == 0

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
        the fair-scheduler subqueue and the quota the submission is
        checked against.
        """
        core = self._active_core()
        now = time.perf_counter()
        queue = self.queue
        if not is_mutating(request):
            ticket = queue.make_ticket(client, request, now, tenant)
            self._record_request(ticket, core)
            self._resolve(ticket, self._answer_read(request, core, tenant))
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
        self.telemetry.latency.observe(time.perf_counter() - ticket.offered_at)
        self._record_response(ticket, response)

    # ------------------------------------------------------------------
    # Observability recording (no-ops unless the sinks are wired)
    # ------------------------------------------------------------------
    def _record_request(self, ticket: Ticket, core: EngineCore) -> None:
        """Log/count one offered request (reads included).

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
        """Log/count one delivered response."""
        if self.event_log is not None:
            self.event_log.log(
                "response",
                response.tick,
                {"seq": ticket.seq, "kind": response.kind,
                 "status": response.status},
                client=ticket.client,
                trace_id=trace_id_for_seq(ticket.seq),
            )
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
    def _answer_read(self, request, core: EngineCore, tenant: str) -> Response:
        if isinstance(request, Quote):
            return self._quote(request, core)
        if isinstance(request, QueryTelemetry):
            payload = {
                "clock": core.clock,
                "live": core.num_live,
                "pending": core.num_pending,
                "queue_depth": self.queue.depth,
                "responses": dict(self.telemetry.responses),
                "ticks_recorded": self.telemetry.num_ticks,
            }
            if request.last > 0:
                payload["window"] = self.telemetry.window(request.last, tenant)
            return Response(
                kind="query-telemetry", status="ok", tick=core.clock,
                payload=payload,
            )
        raise TypeError(  # pragma: no cover - offer() routes by is_mutating
            f"not a read request: {type(request).__name__}"
        )

    def _quote(self, request: Quote, core: EngineCore) -> Response:
        """Answer a quote as the planner decides it.

        A spec the planner refuses is rejected with the text its
        submission would get; any other is priced by
        :meth:`~repro.engine.planning.CampaignPlanner.quote`.
        """
        planner = self.engine.planner
        problem = planner.refusal(request.spec)
        if problem is not None:
            return Response(
                kind="quote", status="rejected", tick=core.clock, detail=problem
            )
        return Response(
            kind="quote", status="ok", tick=core.clock,
            payload=planner.quote(request.spec, request.solve_on_miss),
        )

    # ------------------------------------------------------------------
    # The tick-boundary drain (mutating requests coalesce here)
    # ------------------------------------------------------------------
    def _drain_hook(self, core: EngineCore) -> None:
        """The :meth:`EngineCore.tick` boundary hook: apply the queue."""
        self._do_drain(core, budget=self.max_drain)

    def _do_drain(self, core: EngineCore, budget: int | None = None) -> None:
        """Apply queued mutations in fair-scheduler order.

        Requests are applied until the tick's tally reaches ``budget``
        (``None`` = all — revival drains pass no budget so a queued
        submission can always wake an idle clock, and leave the queue
        empty for the hook drain that follows).  The tally accumulates in
        place, so a mid-batch :class:`Snapshot` checkpoints a consistent
        partial drain: the resumed gateway finishes the batch within the
        same budget and the recorded tick comes out identical to the
        uninterrupted run's.
        """
        pd = self._drain
        queue = self.queue
        pd.queue_depth = max(pd.queue_depth, queue.depth)
        while budget is None or pd.drained < budget:
            ticket = queue.pop()
            if ticket is None:
                break
            pd.drained += 1
            pd.tally(ticket.tenant, "drained")
            request = ticket.request
            if isinstance(request, SubmitCampaign):
                self._apply_submit(ticket, core)
            elif isinstance(request, Cancel):
                self._apply_cancel(ticket, core)
            elif isinstance(request, Snapshot):
                self._apply_snapshot(ticket, core)
            else:  # pragma: no cover - is_mutating() gates the queue
                raise TypeError(
                    f"unexpected queued request {type(request).__name__}"
                )

    def _apply_submit(self, ticket: Ticket, core: EngineCore) -> None:
        pd = self._drain
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

    def _apply_cancel(self, ticket: Ticket, core: EngineCore) -> None:
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
        self._drain.cancels += 1
        self._drain.tally(ticket.tenant, "cancels")
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
            self._cancelled.append(outcome)
            payload.update(
                completed=outcome.completed,
                remaining=outcome.remaining,
                total_cost=outcome.total_cost,
            )
        self._resolve(
            ticket,
            Response(kind="cancel", status="ok", tick=core.clock, payload=payload),
        )

    def _apply_snapshot(self, ticket: Ticket, core: EngineCore) -> None:
        # Tallied before saving so the bundle accounts for the snapshot
        # itself — its drain entry and its own "ok" response — exactly as
        # the uninterrupted run will have recorded them; a resumed
        # gateway then continues from identical counters.  A failed save
        # (bundle errors, or an unwritable path) rolls both back.  The
        # ticket is resolved directly (not through _resolve) to avoid
        # re-counting.
        pd = self._drain
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
        while (ticket := self.queue.pop()) is not None:
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
        """Advance one tick (draining the queue at its boundary).

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
        report = core.tick()
        self._finish_tick(core, report)
        return report

    def _finish_tick(self, core: EngineCore, report: TickReport) -> None:
        """Record one completed tick: telemetry, ledger, observability."""
        drain, self._drain = self._drain, DrainReport()
        cancelled, self._cancelled = self._cancelled, []
        self.ledger.settle(
            report.interval, (o.spec.campaign_id for o in report.retired)
        )
        self.ledger.end_tick(report.interval)
        self.telemetry.record_tick(core, report, drain, cancelled)
        if self.event_log is not None:
            self._admission_seen = self.event_log.log_tick(
                core, report, self._admission_seen,
                queue_depth=drain.queue_depth, drained=drain.drained,
            )
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
        set_session_gauges(self.metrics, self.queue.depth, core, self.event_log)
        for tenant, row in drain.tenants.items():
            labels = {"tenant": tenant}
            for field, amount in row.items():
                if amount:
                    self.metrics.counter(
                        f"serve_tenant_{field}_total",
                        f"Per-tenant {field} requests at drain time",
                        labels,
                    ).inc(amount)

    def replay(self, trace: RequestTrace, on_tick=None) -> list[Ticket]:
        """Deliver a trace at its recorded ticks; run the session through it.

        The deterministic serving mode: requests are offered to the
        gateway right before their arrival tick's boundary, so the same
        trace always produces the same admission batches — and therefore
        per-campaign outcomes and telemetry bit-identical under both
        arrival models and across checkpoint/resume boundaries.  When the
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
            if core.done and self.queue.depth == 0:
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
    def _queue_state(self) -> dict:
        """The queue and drain-in-progress part of a bundle's extras.

        Additive tenant keys follow the trace convention: present only
        when they carry non-default information, so single-tenant bundles
        stay byte-identical to pre-tenant ones.
        """
        queue = self.queue
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
        drain = self._drain
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
                outcome_record(o, with_spec=True) for o in self._cancelled
            ],
        }
        # The DRR round state matters only when several tenants are
        # queued (single-tenant restore is exact without it).
        if len(queue.tenants) > 1 or queue.weights:
            state["scheduler"] = queue.scheduler_state()
        return state

    def _restore_queue(self, state: dict) -> None:
        """Reload :meth:`_queue_state` (resume path)."""
        now = time.perf_counter()
        self.queue.restore(
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
        self._drain = DrainReport(
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
        self._cancelled = [
            outcome_from_record(entry)
            if isinstance(entry, dict)
            else outcomes[entry]
            for entry in state["pending_cancelled"]
        ]

    def _config_state(self) -> dict:
        """The admission configuration as serialized in bundle extras."""
        config = {
            "max_live": self.max_live,
            "max_queue": self.queue.max_depth,
        }
        # Additive keys, present only when configured (.get on resume).
        if self.max_drain is not None:
            config["max_drain"] = self.max_drain
        if self.queue.weights:
            config["tenant_weights"] = dict(self.queue.weights)
        if self.ledger.quotas:
            config["tenant_quotas"] = {
                tenant: quota.to_dict()
                for tenant, quota in self.ledger.quotas.items()
            }
        return config

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Snapshot the served session to a bundle (engine + gateway state).

        The bundle is a regular engine checkpoint whose ``"serve_gateway"``
        extras carry the unanswered queue and drain-in-progress tally, the
        tenant ledger, the serving telemetry, the admission
        configuration, and — when called inside :meth:`replay` — the
        trace and its cursor.  Legal at any tick boundary, including
        mid-drain (a queued :class:`Snapshot`).
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
        state = {
            "version": _EXTRAS_VERSION,
            "event_log": event_log_state,
            "config": self._config_state(),
            **self._queue_state(),
            "telemetry": self.telemetry.to_dict(),
            "replay": (
                None
                if self._replay_trace is None
                else {
                    "trace": self._replay_trace.to_dict(),
                    "cursor": self._replay_cursor,
                }
            ),
        }
        ledger_state = self.ledger.to_dict()
        if any(
            value for value in ledger_state.values() if isinstance(value, dict)
        ):
            state["tenants"] = ledger_state
        bundle = save_checkpoint(self.engine, path, extras={_EXTRAS_KEY: state})
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
        metrics=None,
    ) -> "Gateway":
        """Reopen a served session from a bundle written by :meth:`save`.

        Restores the engine session, re-registers the tick-boundary
        drain, reloads the unanswered queue (the restored requests will
        be answered at the next boundary — none were lost), and rewinds
        nothing: driving the resumed gateway to exhaustion produces
        telemetry bit-identical to never having stopped.  A bundle saved
        mid-:meth:`replay` carries its trace; continue with
        :meth:`resume_replay`.  A ``"serve_fleet"`` bundle, written by an
        earlier build that partitioned admission into several queues,
        resumes as one queue when none of them held a request
        (:func:`_one_queue_state`).  Every way a bundle can fail to
        decode raises :class:`~repro.engine.checkpoint.CheckpointError`.
        """
        engine = restore_engine(path)
        with decoding_bundle(path):
            state = _gateway_state(load_extras(path))
            if state is None:
                raise CheckpointError(
                    f"bundle at {path} carries no serving-gateway state "
                    "(was it written by Gateway.save?)"
                )
            if state.get("version") != _EXTRAS_VERSION:
                raise CheckpointError(
                    f"serve-gateway state version {state.get('version')!r} is "
                    f"not supported (this build reads version {_EXTRAS_VERSION})"
                )
            state = _one_queue_state(state, path)
            config = state["config"]
            quotas = config.get("tenant_quotas")
            gateway = cls(
                engine,
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
                metrics=metrics,
            )
            gateway.ledger.restore(state.get("tenants"))
            gateway._restore_queue(state)
            # "event_log" is an additive extras field (.get: bundles
            # written before it existed read as None).
            log_state = state.get("event_log")
            if log_state is not None:
                gateway.resumed_event_seq = log_state["last_seq"]
            if state["replay"] is not None:
                gateway._replay_trace = RequestTrace.from_dict(
                    state["replay"]["trace"]
                )
                gateway._replay_cursor = int(state["replay"]["cursor"])
        core = engine.core
        assert core is not None  # restore_engine always opens a session
        core.add_tick_boundary_hook(gateway._drain_hook)
        # Pre-checkpoint admissions were logged before the snapshot;
        # mirror only what happens from here on.
        gateway._admission_seen = core.num_admission_batches
        if metrics is not None:
            core.enable_phase_timings(PhaseTimings(metrics=metrics))
        if event_log is not None:
            event_log.log(
                "run", core.clock,
                {"action": "resume", "bundle": str(path)},
            )
        gateway._started = True
        return gateway

    def __repr__(self) -> str:
        state = "started" if self._started else "idle"
        return (
            f"Gateway({type(self.engine).__name__}, {state}, "
            f"queue depth {self.queue.depth}, "
            f"{self.telemetry.total_requests} responses)"
        )
