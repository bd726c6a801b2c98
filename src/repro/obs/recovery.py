"""Crash recovery for served runs: checkpoint bundle + event log → run.

The durable event log records every request the gateway accepted, at its
offer tick and in offer order, *before* any response is computed — and
:meth:`Gateway.save <repro.serve.gateway.Gateway.save>` syncs the log and
records the durable sequence number inside the bundle before the bundle
is renamed into place.  Together the two artifacts make a served run
recoverable after an arbitrary kill point:

1. resume the newest bundle — engine, queue, and telemetry exactly as of
   its tick boundary;
2. reconstruct the request *tail* — logged ``request`` events with log
   seq greater than the bundle's recorded ``last_seq`` — into a
   :class:`~repro.serve.requests.RequestTrace`;
3. replay the tail through the resumed gateway to completion.

Because the log's durable region is always a contiguous prefix (the
writer commits batches in sequence order, one transaction each) and the
bundle's ``last_seq`` is durable-before-manifest, every kill point
yields a self-consistent pair: requests the bundle already queued are
never replayed twice, requests logged after the snapshot are replayed
exactly once, and requests that never reached the durable log simply do
not exist in the recovered timeline.  The recovered run's telemetry is
bit-identical to a fresh, uninterrupted run over the same full logged
trace — the kill -9 drill (:mod:`repro.obs.drill`,
``scripts/obs_recovery_smoke.py``, ``tests/obs/test_recovery.py``)
asserts exactly that.
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING

from repro.obs.eventlog import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.gateway import Gateway
    from repro.serve.requests import RequestTrace

__all__ = [
    "reconstruct_trace",
    "bundle_event_seq",
    "checkpoint_records",
    "recover_serve_run",
]


def reconstruct_trace(
    log_path: str | pathlib.Path,
    *,
    since_seq: int = 0,
    name: str = "event-log",
) -> "RequestTrace":
    """Rebuild a request trace from the log's durable ``request`` events.

    Every request the gateway accepted was logged at its offer tick with
    the full serialized request payload, so the events *are* the trace.
    ``since_seq`` skips events with log seq ``<= since_seq`` — pass a
    bundle's recorded seq (:func:`bundle_event_seq`) to get only the
    post-checkpoint tail; the default rebuilds the whole run, which is
    what a from-scratch verification replay wants.

    Log order is offer order and offer ticks never decrease, so the
    trace's stable tick sort preserves the exact original delivery
    order within every tick.
    """
    from repro.serve.requests import (
        DEFAULT_TENANT,
        RequestTrace,
        TimedRequest,
        request_from_dict,
    )

    reader = EventLog.read(log_path)
    requests = tuple(
        TimedRequest(
            tick=event.tick,
            client=event.client or "anon",
            request=request_from_dict(event.payload["request"]),
            # The gateway logs the tenant key only when non-default, the
            # same convention RequestTrace serialization uses.
            tenant=event.payload.get("tenant", DEFAULT_TENANT),
        )
        for event in reader.events(since=since_seq, kind="request")
    )
    return RequestTrace(name=name, requests=requests)


def bundle_event_seq(bundle_path: str | pathlib.Path) -> int | None:
    """The durable event-log seq a gateway bundle recorded at save time.

    ``None`` when the bundle predates event logging or was saved by a
    gateway with no log wired — recovery then replays the entire log.
    """
    from repro.engine.checkpoint import load_extras
    from repro.serve.gateway import _gateway_state

    state = _gateway_state(load_extras(bundle_path)) or {}
    log_state = state.get("event_log")
    if not log_state or log_state.get("last_seq") is None:
        return None
    return int(log_state["last_seq"])


def checkpoint_records(log_path: str | pathlib.Path) -> list[dict]:
    """Every checkpoint the log knows about, oldest first.

    Each entry is ``{"seq", "tick", "path", "last_seq"}`` — the log seq
    and tick of the ``checkpoint`` event plus the bundle path and
    durable seq it recorded.  The last entry is the newest bundle a
    recovery should resume from.
    """
    reader = EventLog.read(log_path)
    return [
        {
            "seq": event.seq,
            "tick": event.tick,
            "path": event.payload.get("path"),
            "last_seq": event.payload.get("last_seq"),
        }
        for event in reader.events(kind="checkpoint")
    ]


def recover_serve_run(
    bundle_path: str | pathlib.Path,
    log_path: str | pathlib.Path,
    *,
    event_log=None,
    metrics=None,
) -> "Gateway":
    """Resume a killed served run and drive it to completion.

    Resumes the gateway bundle, reconstructs the post-checkpoint request
    tail from the event log, and replays it.  Returns the finished
    gateway — its deterministic telemetry is bit-identical to an
    uninterrupted run over the full logged trace.

    Intended for offer-driven (open-mode) sessions, where the log is the
    only record of the request stream.  A bundle saved mid-:meth:`replay
    <repro.serve.gateway.Gateway.replay>` already carries its own trace
    cursor and needs :meth:`resume_replay
    <repro.serve.gateway.Gateway.resume_replay>` instead; mixing the two
    would deliver the bundled trace's tail twice, so that case is
    rejected outright.

    ``event_log`` defaults to ``None`` — the recovered run does *not*
    append to the original log, so the log keeps describing the killed
    run and can still seed a from-scratch verification replay.  Pass a
    fresh :class:`~repro.obs.eventlog.EventLog` to record the recovery
    itself.
    """
    from repro.serve.gateway import Gateway

    gateway = Gateway.resume(bundle_path, event_log=event_log, metrics=metrics)
    if gateway.replay_remaining is not None:
        raise ValueError(
            "bundle carries an interrupted trace replay; use "
            "Gateway.resume(...).resume_replay() — the event log tail "
            "would duplicate the bundled trace"
        )
    since = gateway.resumed_event_seq or 0
    tail = reconstruct_trace(log_path, since_seq=since, name="recovered-tail")
    if tail.num_requests:
        gateway.replay(tail)
    else:
        while gateway.step() is not None:
            pass
    return gateway
