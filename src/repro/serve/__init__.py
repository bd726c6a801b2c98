"""Serving gateway: an async request frontier over the engine's tick loop.

Every earlier entry point is a closed-world batch driver — ``engine run``
and ``scenario run`` know the whole workload before the first tick.  This
subpackage is the open-world counterpart a deployed marketplace needs:
many independent client sessions submitting, quoting, cancelling, and
reading telemetry *while* the deterministic clock keeps ticking.

* :mod:`repro.serve.requests` — the typed request vocabulary
  (:class:`SubmitCampaign`, :class:`Quote`, :class:`Cancel`,
  :class:`QueryTelemetry`, :class:`Snapshot`), the :class:`Response`
  envelope, and :class:`RequestTrace` — deterministic, replayable,
  JSON-round-trippable recordings of timed client traffic (scenarios
  lower into traces via :meth:`RequestTrace.from_scenario`).
* :mod:`repro.serve.admission` — the bounded :class:`AdmissionQueue`
  mutating requests coalesce in: per-tenant FIFO subqueues drained
  weighted-fair (deficit round-robin), loss-free :class:`Ticket`
  tracking, deterministic backpressure.
* :mod:`repro.serve.tenants` — tenant identity and isolation:
  :class:`TenantQuota` (live-campaign budget, per-tick admission rate)
  and the :class:`TenantLedger` quota checks run against; exhausted
  quotas answer typed backpressure naming the tenant and quota.
* :mod:`repro.serve.gateway` — the :class:`Gateway`: tick-boundary
  request drains riding the ordinary mid-flight ``submit()``/``cancel()``
  paths (served outcomes bit-identical to the offline run), one
  weighted-fair admission queue shared by every tenant, cache-peek
  quotes that never block or perturb the clock, an asyncio facade for
  concurrent clients, and checkpoint/resume of the whole served session.
* :mod:`repro.serve.telemetry` — :class:`GatewayTelemetry`: per-tick
  queue/batch/admission series (with per-tenant breakdowns) layered
  over the engine telemetry, plus wall-clock latency percentiles
  (p50/p95/p99) kept out of the deterministic serialized form.
* :mod:`repro.serve.loadgen` — the seeded :class:`LoadGenerator`:
  open/closed arrival modes, a configurable client mix, deterministic
  traces and live asyncio closed-loop clients.

Quick use::

    from repro.serve import Gateway, LoadGenerator

    gateway = Gateway(engine, max_live=32)
    gateway.start(seed=7)
    trace = LoadGenerator(engine.stream.num_intervals, seed=7).trace("open")
    tickets = gateway.replay(trace)
    print(gateway.telemetry.summary())

CLI: ``repro engine serve`` replays traces/scenarios through a gateway;
``repro engine loadtest`` runs the live closed-loop drill.  See
``docs/serving.md`` for the request semantics and the determinism
contract.
"""

from repro.serve.admission import AdmissionQueue, QueueStats, Ticket
from repro.serve.gateway import Gateway
from repro.serve.loadgen import ClientMix, LoadGenerator
from repro.serve.requests import (
    DEFAULT_TENANT,
    REQUEST_TYPES,
    Cancel,
    QueryTelemetry,
    Quote,
    RequestTrace,
    Response,
    Snapshot,
    SubmitCampaign,
    TimedRequest,
    is_mutating,
    request_from_dict,
    request_to_dict,
)
from repro.serve.telemetry import (
    SERVE_SERIES_FIELDS,
    TENANT_SERIES_FIELDS,
    DrainReport,
    GatewayTelemetry,
    LatencyRecorder,
)
from repro.serve.tenants import (
    TenantLedger,
    TenantQuota,
    parse_tenant_quotas,
    parse_tenant_weights,
)

__all__ = [
    "Gateway",
    "LoadGenerator",
    "ClientMix",
    "AdmissionQueue",
    "QueueStats",
    "Ticket",
    "SubmitCampaign",
    "Quote",
    "Cancel",
    "QueryTelemetry",
    "Snapshot",
    "Response",
    "TimedRequest",
    "RequestTrace",
    "REQUEST_TYPES",
    "is_mutating",
    "request_to_dict",
    "request_from_dict",
    "GatewayTelemetry",
    "DrainReport",
    "LatencyRecorder",
    "SERVE_SERIES_FIELDS",
    "TENANT_SERIES_FIELDS",
    "DEFAULT_TENANT",
    "TenantQuota",
    "TenantLedger",
    "parse_tenant_weights",
    "parse_tenant_quotas",
]
