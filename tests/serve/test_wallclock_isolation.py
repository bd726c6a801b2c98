"""Wall-clock isolation: ``ticket.offered_at`` never reaches the artifacts.

Tickets stamp ``time.perf_counter()`` at offer time for *in-memory*
latency accounting only.  Every serialized artifact a served run emits —
telemetry ``to_dict``, checkpoint bundle extras, the durable event log —
must be a pure function of the arrival sequence, or replays and
cross-host comparisons silently diverge.  The regression: run the same
trace under two wildly different wall clocks and require the artifacts
byte-identical.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.engine.checkpoint import load_extras
from repro.obs.eventlog import EventLog
from repro.serve import Gateway, LoadGenerator
from tests.serve.conftest import NUM_INTERVALS, make_engine

SEED = 5
TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=2.0, think=1,
    tenants=("acme", "beta"),
).trace("open")


def run_skewed(tmp_path, monkeypatch, skew: float):
    """Replay TRACE with every perf_counter reading offset by ``skew``."""
    real = time.perf_counter
    with monkeypatch.context() as patch:
        patch.setattr(time, "perf_counter", lambda: real() + skew)
        log = EventLog(tmp_path / "events.sqlite")
        gateway = Gateway(make_engine(), event_log=log)
        gateway.start(seed=SEED)
        gateway.replay(TRACE)
        bundle = gateway.save(tmp_path / "bundle")
        log.close()
    # The run directory differs per run by construction; normalize it so
    # the only *allowed* difference (the bundle's own path) cancels out.
    base = str(tmp_path)
    rows = [
        (e.seq, e.tick, e.kind, e.campaign_id, e.client, e.trace_id,
         json.dumps(e.payload, sort_keys=True).replace(base, "<run>"))
        for e in EventLog.read(tmp_path / "events.sqlite").events()
    ]
    return {
        "telemetry": json.dumps(
            gateway.telemetry.to_dict(), sort_keys=True
        ),
        "extras": json.dumps(
            load_extras(bundle), sort_keys=True
        ).replace(base, "<run>"),
        "events": rows,
    }


def test_skewed_clock_leaves_artifacts_byte_identical(tmp_path, monkeypatch):
    baseline = run_skewed(tmp_path / "a", monkeypatch, skew=0.0)
    skewed = run_skewed(tmp_path / "b", monkeypatch, skew=86_400.0)
    assert skewed["telemetry"] == baseline["telemetry"]
    assert skewed["extras"] == baseline["extras"]
    assert skewed["events"] == baseline["events"]


def test_offered_at_is_wall_clock_but_stays_off_the_wire(monkeypatch):
    """The ticket really does carry the skewed clock — in memory only."""
    real = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", lambda: real() + 1_000_000.0)
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    from repro.serve import QueryTelemetry

    ticket = gateway.offer(QueryTelemetry())
    assert ticket.offered_at >= 1_000_000.0
    state = gateway._queue_state()
    assert "offered_at" not in json.dumps(state)
