"""Admission frontiers: N queues over one engine — the determinism contract.

A tenant-tagged trace replayed through a :class:`Gateway` with 1, 2, or 3
admission frontiers, under either arrival model, produces
engine outcomes and serialized telemetry **bit-identical** to each other
and to the same mutations issued directly against the engine API — and a
multi-frontier gateway checkpoints and resumes mid-replay exactly like a
one-frontier one.  Each test runs every frontier count in
:data:`FRONTIERS` unless it pins one.
"""

from __future__ import annotations

import asyncio
import types
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.gateway as gateway_module
from repro.engine.checkpoint import load_extras
from repro.serve import (
    Gateway,
    LoadGenerator,
    QueryTelemetry,
    RequestTrace,
    Snapshot,
    SubmitCampaign,
    TenantQuota,
    TimedRequest,
)
from tests.serve.conftest import NUM_INTERVALS, make_engine
from tests.serve.test_gateway_determinism import SEED, outcome_map, run_direct
from tests.serve.test_tenants import spec

FRONTIERS = (1, 2, 3)
TENANTS = ("acme", "beta", "gamma")
TENANT_TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=2.0, think=1, tenants=TENANTS,
).trace("open")


def run_gateway(
    trace: RequestTrace, arrivals: str, frontiers: int, **kwargs
) -> Gateway:
    gateway = Gateway(make_engine(arrivals), frontiers=frontiers, **kwargs)
    gateway.start(seed=SEED)
    tickets = gateway.replay(trace)
    assert all(t.done for t in tickets)  # no request lost across frontiers
    return gateway


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arrivals", ["pooled", "factored"])
def test_fleet_equals_single_gateway_and_direct(arrivals):
    direct = run_direct(TENANT_TRACE, arrivals)
    solo = run_gateway(TENANT_TRACE, arrivals, frontiers=1)
    assert outcome_map(solo.core.result()) == outcome_map(direct)
    for frontiers in FRONTIERS[1:]:
        split = run_gateway(TENANT_TRACE, arrivals, frontiers)
        result = split.core.result()
        assert outcome_map(result) == outcome_map(direct), frontiers
        assert result.cache_stats == direct.cache_stats, frontiers
        # The serialized serving telemetry — per-tenant series included —
        # is byte-identical to the one-frontier gateway's.
        assert split.telemetry.to_dict() == solo.telemetry.to_dict(), frontiers


def test_fleet_invariant_across_member_counts():
    """Weights and per-tenant quotas leave the frontier count invisible.

    A quota bounds the tenant through the one ledger, and each tenant's
    requests keep their FIFO order on their own frontier, so the same
    submissions bounce at every frontier count.
    """
    by_count = {
        frontiers: run_gateway(
            TENANT_TRACE, "pooled", frontiers,
            tenant_weights={"acme": 3.0},
            tenant_quotas={"beta": TenantQuota(max_live=1)},
        ).telemetry.to_dict()
        for frontiers in FRONTIERS
    }
    assert sum(by_count[1]["serve"]["rejected"]) > 0  # the quota binds
    assert by_count[1] == by_count[2] == by_count[3]


def test_fleet_replay_is_reproducible():
    first = run_gateway(TENANT_TRACE, "factored", frontiers=2)
    second = run_gateway(TENANT_TRACE, "factored", frontiers=2)
    assert first.telemetry.to_dict() == second.telemetry.to_dict()
    assert outcome_map(first.core.result()) == outcome_map(
        second.core.result()
    )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def crc_frontier(key: str, frontiers: int) -> int:
    """The documented routing rule: CRC-32 of the key, modulo frontiers."""
    return zlib.crc32(key.encode()) % frontiers


def test_tenant_routing_is_stable():
    for frontiers in FRONTIERS:
        gateway = Gateway(make_engine(), frontiers=frontiers)
        gateway.start(seed=SEED)
        owner = gateway.frontier_of("acme")
        assert all(gateway.frontier_of("acme") == owner for _ in range(5))
        assert owner == crc_frontier("acme", frontiers)
        # Untagged traffic partitions by client id instead.
        assert gateway.frontier_of(client="c7") == crc_frontier("c7", frontiers)
        ticket = gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
        queue = gateway.queues[owner]
        assert queue.depth == 1
        assert queue.snapshot()[0] is ticket
        assert gateway.queue_depth == 1
        gateway.close()
        assert ticket.response.status == "rejected"


@settings(max_examples=100, deadline=None)
@given(key=st.text(min_size=1, max_size=24), frontiers=st.integers(2, 9))
def test_frontier_routing_is_crc32_modulo_frontiers(key, frontiers):
    """Any tenant (or untagged client) lands on one stable, in-range
    frontier: CRC-32 of its name modulo the frontier count."""
    gateway = Gateway(make_engine(), frontiers=frontiers)
    owner = gateway.frontier_of(key)
    assert 0 <= owner < frontiers
    assert owner == crc_frontier(key, frontiers)
    assert gateway.frontier_of(client=key) == owner


def test_one_frontier_offer_hashes_nothing(monkeypatch):
    def no_hashing(*_args):
        raise AssertionError("a one-frontier gateway hashed a routing key")

    monkeypatch.setattr(
        gateway_module, "zlib", types.SimpleNamespace(crc32=no_hashing)
    )
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    gateway.offer(SubmitCampaign(spec("a0")), client="c1", tenant="acme")
    assert gateway.offer(QueryTelemetry(), client="c2").response.ok
    assert gateway.queue is gateway.queues[0]
    with pytest.raises(AttributeError, match="frontier queues"):
        Gateway(make_engine(), frontiers=2).queue


def test_fleet_size_must_be_positive():
    with pytest.raises(ValueError, match="frontiers"):
        Gateway(make_engine(), frontiers=0)


def test_fleet_requires_a_started_session():
    gateway = Gateway(make_engine(), frontiers=2)
    with pytest.raises(RuntimeError, match="start"):
        gateway.offer(QueryTelemetry())


def test_per_frontier_queue_bound_isolates_tenant_groups():
    """One frontier's full queue does not backpressure another's tenants."""
    acme, beta = "acme", "beta"
    assert crc_frontier(acme, 2) != crc_frontier(beta, 2)
    gateway = Gateway(make_engine(), frontiers=2, max_queue=2)
    gateway.start(seed=SEED)
    flood = [
        gateway.offer(SubmitCampaign(spec(f"a{i}")), tenant=acme)
        for i in range(3)
    ]
    assert flood[-1].response.status == "rejected"  # acme's frontier is full
    other = gateway.offer(SubmitCampaign(spec("b0")), tenant=beta)
    assert not other.done  # queued on its own frontier
    gateway.step()
    assert other.response.ok


# ----------------------------------------------------------------------
# One quota ledger
# ----------------------------------------------------------------------
def test_fleet_quota_is_tenant_wide_and_settles_once():
    for frontiers in FRONTIERS:
        gateway = Gateway(
            make_engine(), frontiers=frontiers,
            tenant_quotas={"acme": TenantQuota(max_live=1)},
        )
        gateway.start(seed=SEED)
        first = gateway.offer(SubmitCampaign(spec("a0", tasks=4)), tenant="acme")
        bounced = gateway.offer(SubmitCampaign(spec("a1")), tenant="acme")
        gateway.step()
        assert first.response.ok
        assert bounced.response.status == "rejected"
        assert bounced.response.payload == {"tenant": "acme", "quota": "max_live"}
        # Drive the campaign to retirement: the ledger settles the tick
        # once and the budget slot comes back.
        while gateway.ledger.live_count("acme"):
            assert gateway.step() is not None
        retry = gateway.offer(
            SubmitCampaign(spec("a1", submit=12)), tenant="acme"
        )
        gateway.step()
        assert retry.response.ok, frontiers


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_fleet_checkpoint_resumes_mid_replay_bit_identically(tmp_path):
    for frontiers in FRONTIERS:
        bundle = tmp_path / f"bundle-{frontiers}"
        uninterrupted = run_gateway(TENANT_TRACE, "factored", frontiers)

        gateway = Gateway(make_engine("factored"), frontiers=frontiers)
        gateway.start(seed=SEED)

        def snap_at_14(gw: Gateway):
            if gw.clock >= 14:
                gw.save(bundle)
                return False
            return None

        gateway.replay(TENANT_TRACE, on_tick=snap_at_14)
        assert gateway.replay_remaining  # stopped mid-trace

        resumed = Gateway.resume(bundle)
        assert len(resumed.queues) == frontiers
        assert resumed.replay_remaining == gateway.replay_remaining
        resumed.resume_replay()

        assert resumed.telemetry.to_dict() == uninterrupted.telemetry.to_dict()
        assert outcome_map(resumed.core.result()) == outcome_map(
            uninterrupted.core.result()
        )


def test_snapshot_request_through_a_member_saves_the_fleet(tmp_path):
    """A queued Snapshot drained on any frontier checkpoints all of them."""
    for frontiers in FRONTIERS:
        bundle = str(tmp_path / f"bundle-{frontiers}")
        trace = TENANT_TRACE.merge(
            RequestTrace(
                "snap",
                (TimedRequest(14, "ops", Snapshot(bundle), tenant="beta"),),
            )
        )
        uninterrupted = Gateway(make_engine(), frontiers=frontiers)
        uninterrupted.start(seed=SEED)
        tickets = uninterrupted.replay(trace)
        snapshot_response = next(
            t.response for t in tickets if isinstance(t.request, Snapshot)
        )
        assert snapshot_response.ok
        assert snapshot_response.payload["path"] == bundle
        extras = load_extras(bundle)
        if frontiers == 1:
            assert list(extras) == ["serve_gateway"]
        else:
            assert len(extras["serve_fleet"]["members"]) == frontiers

        resumed = Gateway.resume(bundle)
        resumed.resume_replay()
        assert resumed.telemetry.to_dict() == uninterrupted.telemetry.to_dict()
        assert outcome_map(resumed.core.result()) == outcome_map(
            uninterrupted.core.result()
        )


@pytest.mark.parametrize("frontiers", FRONTIERS)
def test_resume_reads_the_frontier_count_from_the_bundle(tmp_path, frontiers):
    gateway = Gateway(make_engine(), frontiers=frontiers, max_queue=7)
    gateway.start(seed=SEED)
    gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
    gateway.step()
    gateway.offer(SubmitCampaign(spec("b0", submit=1)), tenant="beta")
    bundle = gateway.save(tmp_path / "bundle")
    resumed = Gateway.resume(bundle)
    assert len(resumed.queues) == frontiers
    assert all(q.max_depth == 7 for q in resumed.queues)
    assert [q.depth for q in resumed.queues] == [q.depth for q in gateway.queues]
    assert resumed.queue_depth == 1
    resumed.step()
    assert resumed.core.num_live == 2


def test_fleet_resume_replay_without_trace_fails():
    gateway = Gateway(make_engine(), frontiers=2)
    gateway.start(seed=SEED)
    with pytest.raises(RuntimeError, match="no replay to resume"):
        gateway.resume_replay()


# ----------------------------------------------------------------------
# One set of observability sinks
# ----------------------------------------------------------------------
def test_fleet_event_log_replays_bit_identically_through_a_solo_gateway(
    tmp_path,
):
    """A multi-frontier log is a complete, replayable run history.

    Frontier queues mint ticket seqs independently, so raw log bytes are
    not comparable to a one-frontier run's — the contract is *replay
    equivalence*: log append order is the authoritative arrival order,
    so the trace reconstructed from the log, replayed through a
    one-frontier gateway, reproduces its telemetry and outcomes
    bit-identically.
    """
    from repro.obs import EventLog, MetricsRegistry, Tracer
    from repro.obs.recovery import reconstruct_trace

    log_path = tmp_path / "fleet-events.sqlite"
    log = EventLog(log_path)
    run_gateway(
        TENANT_TRACE, "pooled", frontiers=3,
        event_log=log, tracer=Tracer(), metrics=MetricsRegistry(),
    )
    log.sync()

    reconstructed = reconstruct_trace(log_path)
    assert len(reconstructed.requests) == len(TENANT_TRACE.requests)

    replayed = run_gateway(reconstructed, "pooled", frontiers=1)
    solo = run_gateway(TENANT_TRACE, "pooled", frontiers=1)

    assert replayed.telemetry.to_dict() == solo.telemetry.to_dict()
    assert outcome_map(replayed.core.result()) == outcome_map(
        solo.core.result()
    )
    log.close()


def test_fleet_logs_run_and_tick_rows_exactly_once(tmp_path):
    """Gateway bookkeeping is recorded once per tick, not per frontier."""
    from repro.obs import EventLog

    for frontiers in FRONTIERS:
        log_path = tmp_path / f"events-{frontiers}.sqlite"
        log = EventLog(log_path)
        gateway = Gateway(make_engine(), frontiers=frontiers, event_log=log)
        gateway.start(seed=SEED)
        gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
        gateway.step()
        gateway.step()
        gateway.close()
        log.close()  # close() flushes asynchronously; wait for the commit

        events = EventLog.read(log_path).events()
        starts = [
            e for e in events
            if e.kind == "run" and e.payload.get("action") == "start"
        ]
        assert len(starts) == 1
        # The frontier count is logged only when there is more than one,
        # so one-frontier logs stay byte-identical to earlier ones.
        assert starts[0].payload.get("gateways") == (
            frontiers if frontiers > 1 else None
        )
        assert [e.tick for e in events if e.kind == "tick"] == [0, 1]
        assert len([e for e in events if e.kind == "request"]) == 1


def test_fleet_checkpoint_records_the_event_log_high_water_mark(tmp_path):
    from repro.obs import EventLog
    from repro.obs.recovery import bundle_event_seq

    log = EventLog(tmp_path / "events.sqlite")
    gateway = Gateway(make_engine(), frontiers=2, event_log=log)
    gateway.start(seed=SEED)
    gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
    gateway.step()
    bundle = gateway.save(tmp_path / "bundle")
    recorded = bundle_event_seq(bundle)
    assert recorded is not None
    # Everything logged before the save is covered by the mark; only the
    # post-save checkpoint event sits beyond it.
    log.sync()
    beyond = EventLog.read(log.path).events(since=recorded)
    assert [e.kind for e in beyond] == ["checkpoint"]

    resumed = Gateway.resume(bundle, event_log=log)
    assert resumed.resumed_event_seq == recorded
    log.close()


# ----------------------------------------------------------------------
# The asyncio facade
# ----------------------------------------------------------------------
def test_fleet_async_request_and_serve_loop():
    async def drill(frontiers: int) -> Gateway:
        gateway = Gateway(make_engine(), frontiers=frontiers)
        gateway.start(seed=SEED)
        read = await gateway.request(QueryTelemetry(), client="r")
        assert read.ok  # reads resolve without the serve loop

        serve_task = asyncio.ensure_future(gateway.serve())
        submitted = await gateway.request(
            SubmitCampaign(spec("x")), client="w", tenant="acme"
        )
        assert submitted.ok
        gateway.stop()
        ticks = await serve_task
        assert ticks >= 1
        return gateway

    for frontiers in FRONTIERS:
        gateway = asyncio.run(drill(frontiers))
        assert gateway.telemetry.responses["ok"] == 2, frontiers


def test_fleet_serve_stop_when_idle_returns():
    async def drill():
        gateway = Gateway(make_engine(), frontiers=2)
        gateway.start(seed=SEED)
        return await gateway.serve(stop_when_idle=True)

    assert asyncio.run(drill()) == 0
