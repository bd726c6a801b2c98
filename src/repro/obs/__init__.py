"""Observability: durable event log, SQL analytics, and metrics.

The engine (:mod:`repro.engine`), the scenario driver
(:mod:`repro.scenario`), and the serving gateway (:mod:`repro.serve`)
produce rich in-memory state — per-tick telemetry, request tickets,
checkpoint bundles — but until this package none of it was *queryable*
or *durable between checkpoints*.  ``repro.obs`` adds the missing layer:

* :mod:`repro.obs.eventlog` — an append-only **sqlite-WAL event log** of
  admissions, cancellations, tick summaries, and serve
  requests/responses, written off the tick path by a batched background
  writer (bounded buffer, flushed at tick boundaries).  Together with a
  checkpoint bundle it makes a served run recoverable after ``kill -9``:
  :mod:`repro.obs.recovery` replays log + last checkpoint into a run
  bit-identical to an uninterrupted one.
* :mod:`repro.obs.events` — the log's row vocabulary, including the
  deterministic trace id (:func:`~repro.obs.events.trace_id_for_seq`)
  that a served request's request, response and cancel rows share.
* :mod:`repro.obs.analytics` — loads the event log and the
  engine/gateway telemetry series into sqlite and answers **canned
  window-function queries** (rolling p50/p95 queue depth, admission and
  rejection rates per window, cache hit-rate trends, per-campaign fill,
  arrival modulation, request outcomes joined by trace id) — the
  ``repro engine analytics`` CLI.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms, exportable as JSON or Prometheus text format; the engine
  clock's per-tick-phase timers
  (:class:`~repro.engine.clock.PhaseTimings`) record into it.
* :mod:`repro.obs.ops` — the **live ops plane**: an asyncio HTTP server
  attachable to a running gateway (``--ops-port``) answering
  ``/metrics``, ``/healthz``, ``/readyz``, ``/tenants``, and ``/slo``
  mid-run without perturbing any deterministic artifact.
* :mod:`repro.obs.slo` — SLO objectives (availability, latency) with
  multi-window burn rates, computed live or offline over telemetry and
  event logs (``repro engine slo``).
* :mod:`repro.obs.logsetup` — the CLI's shared structured-logging
  configuration (``--log-level``).

Design rule, inherited from the serving layer's
:class:`~repro.serve.telemetry.LatencyRecorder`: **wall-clock never
enters a deterministic serialized form**.  Metrics may carry wall-clock
durations for operators, but the recovery and determinism contracts
compare only deterministic telemetry.  See ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.analytics import AnalyticsDB, CannedQuery, canned_queries
from repro.obs.events import EVENT_KINDS, Event
from repro.obs.eventlog import EventLog
from repro.obs.logsetup import setup_logging
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SloPolicy

__all__ = [
    "AnalyticsDB",
    "CannedQuery",
    "canned_queries",
    "Counter",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpsServer",
    "recover_serve_run",
    "setup_logging",
    "SloPolicy",
]


def __getattr__(name: str):
    # Recovery imports the serving gateway, which itself records into
    # this package's metrics/eventlog modules; loading it lazily keeps
    # ``import repro.obs`` free of the serve package (no import cycle).
    # The ops server introspects gateways the same way, so it loads
    # lazily too.
    if name == "recover_serve_run":
        from repro.obs.recovery import recover_serve_run

        return recover_serve_run
    if name == "OpsServer":
        from repro.obs.ops import OpsServer

        return OpsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
