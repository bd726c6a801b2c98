"""Durability of served sessions: snapshot mid-serve, resume bit-identically.

The contract mirrors the engine/scenario checkpoint suites: a served run
that snapshots at any tick boundary — through a queued ``Snapshot``
request or an external :meth:`Gateway.save` — and resumes from the
bundle must finish with telemetry and outcomes bit-identical to the
uninterrupted run, including the requests that were still queued when
the snapshot was taken.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil

import pytest

from repro.engine.checkpoint import CheckpointError, load_extras
from repro.obs import EventLog
from repro.serve import (
    Cancel,
    Gateway,
    LoadGenerator,
    RequestTrace,
    Snapshot,
    SubmitCampaign,
    TimedRequest,
)
from tests.serve.conftest import NUM_INTERVALS, make_engine

SEED = 5
BASE_TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=2.0, think=1,
).trace("open")


def outcome_map(core):
    return {
        o.spec.campaign_id: (o.completed, o.remaining, o.total_cost,
                             o.penalty, o.cancelled)
        for o in core.outcomes
    }


@pytest.mark.parametrize("arrivals", ["pooled", "factored"])
@pytest.mark.parametrize("snapshot_tick", [0, 14, 30])
def test_snapshot_request_resumes_bit_identically(
    tmp_path, arrivals, snapshot_tick
):
    bundle = str(tmp_path / "bundle")
    trace = BASE_TRACE.merge(
        RequestTrace(
            "snap",
            (TimedRequest(snapshot_tick, "ops", Snapshot(bundle)),),
        )
    )
    uninterrupted = Gateway(make_engine(arrivals))
    uninterrupted.start(seed=SEED)
    tickets = uninterrupted.replay(trace)
    snapshot_response = next(
        t.response for t in tickets if isinstance(t.request, Snapshot)
    )
    assert snapshot_response.ok
    assert snapshot_response.payload["path"] == bundle

    resumed = Gateway.resume(bundle)
    assert resumed.replay_remaining is not None
    resumed.resume_replay()

    assert resumed.telemetry == uninterrupted.telemetry
    assert outcome_map(resumed.core) == outcome_map(uninterrupted.core)


def test_external_save_preserves_the_queue(tmp_path):
    """Requests still queued at the snapshot are answered after resume."""
    bundle = tmp_path / "bundle"
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    gateway.offer(SubmitCampaign(BASE_TRACE.requests[0].request.spec))
    gateway.step()
    queued = gateway.offer(Cancel("never-seen"), client="c9")
    gateway.save(bundle)
    assert not queued.done  # still queued in the saved bundle

    resumed = Gateway.resume(bundle)
    assert resumed.queue.depth == 1
    restored = resumed.queue.snapshot()[0]
    assert restored.seq == queued.seq and restored.client == "c9"
    resumed.step()
    assert restored.done  # answered at the first post-resume boundary
    assert restored.response.status == "error"  # unknown campaign


def test_save_requires_a_started_session(tmp_path):
    gateway = Gateway(make_engine())
    with pytest.raises(CheckpointError, match="not started"):
        gateway.save(tmp_path / "bundle")


def test_resume_rejects_foreign_bundles(tmp_path):
    """An engine-only bundle (no gateway extras) fails loudly."""
    from repro.engine.checkpoint import save_checkpoint

    engine = make_engine()
    engine.submit([BASE_TRACE.requests[0].request.spec])
    engine.start(seed=SEED)
    save_checkpoint(engine, tmp_path / "plain")
    with pytest.raises(CheckpointError, match="serving-gateway state"):
        Gateway.resume(tmp_path / "plain")


def test_resume_rejects_missing_bundle(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint bundle"):
        Gateway.resume(tmp_path / "nothing-here")


def test_resume_replay_without_trace_fails():
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    with pytest.raises(RuntimeError, match="no replay to resume"):
        gateway.resume_replay()


def test_double_hop_resume(tmp_path):
    """Snapshot -> resume -> snapshot -> resume still matches end to end."""
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    trace = BASE_TRACE.merge(
        RequestTrace(
            "snaps",
            (
                TimedRequest(8, "ops", Snapshot(first)),
                TimedRequest(22, "ops", Snapshot(second)),
            ),
        )
    )
    uninterrupted = Gateway(make_engine())
    uninterrupted.start(seed=SEED)
    uninterrupted.replay(trace)

    hop1 = Gateway.resume(first)
    hop1.resume_replay()
    assert hop1.telemetry == uninterrupted.telemetry

    hop2 = Gateway.resume(second)  # written again during hop1's replay
    hop2.resume_replay()
    assert hop2.telemetry == uninterrupted.telemetry
    assert outcome_map(hop2.core) == outcome_map(uninterrupted.core)


def test_path_like_snapshot_with_an_event_log_is_answered(tmp_path):
    """A ``pathlib.Path`` snapshot target is logged and saved like a str."""
    log = EventLog(tmp_path / "events.sqlite")
    gateway = Gateway(make_engine(), event_log=log)
    gateway.start(seed=SEED)
    gateway.offer(SubmitCampaign(BASE_TRACE.requests[0].request.spec))
    snapshot = gateway.offer(Snapshot(tmp_path / "bundle"))
    assert gateway.step() is not None
    assert gateway.step() is not None
    log.flush()
    assert log.healthy
    log.close()
    assert snapshot.response.status == "ok"
    assert (tmp_path / "bundle" / "manifest.json").is_file()
    logged = [
        e.payload["request"]
        for e in EventLog.read(tmp_path / "events.sqlite").events()
        if e.payload.get("request", {}).get("type") == "snapshot"
    ]
    assert logged == [{"type": "snapshot", "path": str(tmp_path / "bundle")}]


def test_snapshot_to_an_unwritable_path_answers_error(tmp_path):
    """A save that fails with an OS error is answered, not raised."""
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    gateway.offer(SubmitCampaign(BASE_TRACE.requests[0].request.spec))
    snapshot = gateway.offer(Snapshot(str(blocker / "bundle")))
    assert gateway.step() is not None  # the OSError does not escape
    assert snapshot.response.status == "error"
    assert gateway.step() is not None
    telemetry = gateway.telemetry
    assert telemetry.responses == {"ok": 1, "rejected": 0, "error": 1}
    assert sum(telemetry.responses.values()) == telemetry.total_requests == 2
    assert telemetry.serve["snapshots"][0] == 0
    assert telemetry.serve["drained"][0] == 2


def test_mid_drain_snapshot_resumes_within_the_drain_budget(tmp_path):
    """A resumed boundary applies only what is left of its drain budget."""
    bundle = str(tmp_path / "bundle")

    def spec(cid: str, submit: int, tasks: int = 10):
        return dataclasses.replace(
            BASE_TRACE.requests[0].request.spec,
            campaign_id=cid, submit_interval=submit, num_tasks=tasks,
        )

    def run() -> Gateway:
        gateway = Gateway(make_engine(), max_drain=2)
        gateway.start(seed=SEED)
        gateway.offer(SubmitCampaign(spec("first", 0, tasks=40)), tenant="t0")
        gateway.step()
        gateway.offer(Snapshot(bundle), tenant="t0")
        for i in range(5):
            gateway.offer(SubmitCampaign(spec(f"c{i}", 1)), tenant=f"t{i % 2}")
        while gateway.step() is not None:
            pass
        return gateway

    uninterrupted = run()
    resumed = Gateway.resume(bundle)
    while resumed.step() is not None:
        pass
    assert resumed.telemetry == uninterrupted.telemetry
    assert outcome_map(resumed.core) == outcome_map(uninterrupted.core)


# ----------------------------------------------------------------------
# Bundles written by an earlier build
# ----------------------------------------------------------------------
#: Bundles committed from commit 965fc69, the last one with a separate
#: multi-gateway front-end: ``serve_gateway_v1`` from ``Gateway.save``,
#: ``serve_fleet_v1`` from its two-member front-end's save (each member
#: with its own queue, both empty at the save), both at tick
#: :data:`FIXTURE_SAVE_TICK` of :data:`FIXTURE_TRACE` on ``make_engine()``
#: with seed :data:`SEED`.  Their manifests still carry the engine-config
#: switch of the retired scalar admission path.
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE_TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=1.0, think=1,
    tenants=("acme", "beta", "gamma"),
).trace("open")
FIXTURE_SAVE_TICK = 14


def fixture_run(save_to=None) -> Gateway:
    """The committed bundles' workload; stops after saving when asked."""
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)

    def on_tick(gw: Gateway):
        if save_to is not None and gw.clock >= FIXTURE_SAVE_TICK:
            gw.save(save_to)
            return False
        return None

    gateway.replay(FIXTURE_TRACE, on_tick=on_tick)
    return gateway


@pytest.mark.parametrize("layout", ["serve_gateway_v1", "serve_fleet_v1"])
def test_committed_bundle_resumes_to_the_uninterrupted_run(tmp_path, layout):
    """Both layouts resume as one queue."""
    bundle = tmp_path / layout
    shutil.copytree(FIXTURES / layout, bundle)
    resumed = Gateway.resume(bundle)
    # The partitioned bundle's members had counted 6 and 7 arrivals; the
    # one queue counts on from their sum, where a one-queue run stands.
    stopped = fixture_run(save_to=tmp_path / "fresh")
    assert resumed.queue.next_seq == stopped.queue.next_seq == 13
    resumed.resume_replay()
    uninterrupted = fixture_run()
    assert resumed.telemetry == uninterrupted.telemetry
    assert outcome_map(resumed.core) == outcome_map(uninterrupted.core)


def test_fresh_run_writes_the_committed_extras(tmp_path):
    fresh = tmp_path / "fresh"
    fixture_run(save_to=fresh)
    # Key order included: the extras JSON is written byte-for-byte alike.
    assert json.dumps(load_extras(fresh)) == json.dumps(
        load_extras(FIXTURES / "serve_gateway_v1")
    )


@pytest.mark.parametrize(
    "member_field, value",
    [
        ("queue", [{"seq": 6, "client": "c00",
                    "request": {"type": "cancel", "campaign_id": "x"}}]),
        ("pending_cancelled", ["c00-000"]),
        ("pending_drain", {"queue_depth": 1, "drained": 1, "admitted": 0,
                           "rejected": 0, "cancels": 1, "snapshots": 0}),
    ],
    ids=["queued-entry", "pending-cancellation", "pending-drain"],
)
def test_partitioned_bundle_with_requests_in_flight_is_refused(
    tmp_path, member_field, value
):
    """Only empty member queues fold into one queue without reordering."""
    bundle = tmp_path / "busy"
    shutil.copytree(FIXTURES / "serve_fleet_v1", bundle)
    manifest_path = bundle / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["extras"]["serve_fleet"]["members"][1][member_field] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError) as refused:
        Gateway.resume(bundle)
    message = str(refused.value)
    assert "\n" not in message
    assert str(bundle) in message and "[1]" in message
