"""Gateway behaviour: reads, drains, backpressure, revival, quotas, the
event log, the async facade."""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import MarketplaceEngine
from repro.engine.campaign import CampaignSpec
from repro.engine.workload import DEFAULT_TEMPLATES
from repro.market.acceptance import paper_acceptance_model
from repro.obs import EventLog
from repro.obs.recovery import bundle_event_seq
from repro.serve import (
    Cancel,
    Gateway,
    QueryTelemetry,
    Quote,
    SubmitCampaign,
    TenantQuota,
)
from tests.serve.conftest import NUM_INTERVALS, make_engine, make_stream


def spec(cid: str, submit: int = 0, tasks: int = 10) -> CampaignSpec:
    return CampaignSpec(
        campaign_id=cid, kind="deadline", num_tasks=tasks,
        submit_interval=submit, horizon_intervals=6, max_price=25,
    )


def budget_spec(cid: str, submit: int = 0) -> CampaignSpec:
    return CampaignSpec(
        campaign_id=cid, kind="budget", num_tasks=10,
        submit_interval=submit, horizon_intervals=6, budget=120.0,
    )


def started_gateway(**kwargs) -> Gateway:
    gateway = Gateway(make_engine(), **kwargs)
    gateway.start(seed=3)
    return gateway


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_requests_require_a_started_session():
    gateway = Gateway(make_engine())
    with pytest.raises(RuntimeError, match="start"):
        gateway.offer(QueryTelemetry())


def test_start_twice_fails():
    gateway = started_gateway()
    with pytest.raises(RuntimeError, match="already started"):
        gateway.start(seed=4)


def test_bad_admission_config_rejected():
    with pytest.raises(ValueError, match="max_live"):
        Gateway(make_engine(), max_live=0)


# ----------------------------------------------------------------------
# Mutating requests coalesce at tick boundaries
# ----------------------------------------------------------------------
def test_submissions_apply_at_the_next_boundary():
    gateway = started_gateway()
    ticket = gateway.offer(SubmitCampaign(spec("a")), client="c1")
    assert not ticket.done  # queued, not yet applied
    report = gateway.step()
    assert ticket.done and ticket.response.ok
    assert ticket.response.payload["campaign_id"] == "a"
    assert report.admitted == 1


def test_submission_validation_rejects_deterministically():
    gateway = started_gateway()
    gateway.offer(SubmitCampaign(spec("dup")))
    late = gateway.offer(SubmitCampaign(
        spec("late", submit=NUM_INTERVALS)))  # horizon overrun
    duplicate = gateway.offer(SubmitCampaign(spec("dup")))
    gateway.step()
    assert late.response.status == "rejected"
    assert "beyond the stream" in late.response.detail
    assert duplicate.response.status == "rejected"
    assert "duplicate" in duplicate.response.detail


def test_submission_into_the_past_keeps_its_id_free():
    gateway = started_gateway()
    gateway.offer(SubmitCampaign(spec("anchor")))
    for _ in range(4):
        gateway.step()
    late = gateway.offer(SubmitCampaign(
        spec("late", submit=gateway.core.clock - 2)))
    gateway.step()
    assert late.response.status == "rejected"
    assert "already" in late.response.detail
    retry = gateway.offer(SubmitCampaign(
        spec("late", submit=gateway.core.clock)))
    report = gateway.step()
    assert retry.response.status == "ok"
    assert report.admitted == 1


def test_live_campaign_budget_backpressure():
    gateway = started_gateway(max_live=2)
    tickets = [
        gateway.offer(SubmitCampaign(spec(f"c{i}"))) for i in range(4)
    ]
    gateway.step()
    statuses = [t.response.status for t in tickets]
    assert statuses == ["ok", "ok", "rejected", "rejected"]
    assert all(
        "budget exhausted" in t.response.detail
        for t in tickets[2:]
    )


def test_exactly_max_live_campaigns_are_admittable():
    """The budget boundary is exact: slot max_live fills, max_live+1 bounces.

    Regression for the occupancy audit: the ``>=`` comparison against
    ``num_live + num_pending`` must leave *exactly* ``max_live`` slots
    admittable in one drain batch — an off-by-one in either direction
    changes which request bounces.
    """
    gateway = started_gateway(max_live=3)
    tickets = [
        gateway.offer(SubmitCampaign(spec(f"c{i}"))) for i in range(3)
    ]
    overflow = gateway.offer(SubmitCampaign(spec("c3")))
    gateway.step()
    assert [t.response.status for t in tickets] == ["ok"] * 3
    assert overflow.response.status == "rejected"
    assert "3 live+pending >= 3" in overflow.response.detail


def test_max_live_counts_in_batch_pending_submissions():
    """Future-dated submissions occupy budget within the same drain batch.

    A campaign with ``submit_interval`` in the future lands in the
    engine's *pending* set, not the live set — but it must still count
    against ``max_live`` for later submissions drained at the same
    boundary, or one batch could overshoot the budget.
    """
    gateway = started_gateway(max_live=2)
    future = gateway.offer(SubmitCampaign(spec("future", submit=10)))
    live = gateway.offer(SubmitCampaign(spec("live")))
    overflow = gateway.offer(SubmitCampaign(spec("extra")))
    gateway.step()
    assert future.response.ok and live.response.ok
    assert overflow.response.status == "rejected"
    assert "2 live+pending >= 2" in overflow.response.detail


def test_max_live_slots_reopen_after_retirement():
    """Occupancy is re-audited at each drain boundary: retired slots free up."""
    gateway = started_gateway(max_live=1)
    gateway.offer(SubmitCampaign(spec("first", tasks=4)))
    gateway.step()
    while gateway.core.num_live + gateway.core.num_pending:
        assert gateway.step() is not None
    refill = gateway.offer(SubmitCampaign(spec("second", submit=12)))
    gateway.step()
    assert refill.response.ok


def test_queue_depth_backpressure_is_immediate():
    gateway = started_gateway(max_queue=2)
    accepted = [gateway.offer(SubmitCampaign(spec(f"c{i}"))) for i in range(2)]
    bounced = gateway.offer(SubmitCampaign(spec("c2")))
    assert bounced.done and bounced.response.status == "rejected"
    assert "queue full" in bounced.response.detail
    assert not accepted[0].done  # the queued ones wait for the boundary


def test_cancel_statuses():
    gateway = started_gateway()
    gateway.offer(SubmitCampaign(spec("live", submit=0)))
    gateway.offer(SubmitCampaign(spec("pending", submit=20)))
    gateway.step()
    cancel_live = gateway.offer(Cancel("live"))
    cancel_pending = gateway.offer(Cancel("pending"))
    cancel_unknown = gateway.offer(Cancel("nope"))
    gateway.step()
    assert cancel_live.response.ok
    assert cancel_live.response.payload["result"] == "cancelled"
    assert cancel_pending.response.payload["result"] == "dropped"
    assert cancel_unknown.response.status == "error"
    assert "unknown campaign" in cancel_unknown.response.detail
    # Cancelling a retired campaign is a deterministic no-op.
    retired = gateway.offer(Cancel("live"))
    gateway.step()
    assert retired.response.ok
    assert retired.response.payload["result"] == "retired"


def test_idle_engine_is_revived_by_a_queued_submission():
    gateway = started_gateway()
    assert gateway.step() is None  # nothing live, nothing queued
    gateway.offer(SubmitCampaign(spec("wake", submit=2)))
    report = gateway.step()  # revival drain, then the tick runs
    assert report is not None and report.idle  # idling toward interval 2
    assert gateway.core.num_pending == 1


def test_close_rejects_queued_requests():
    gateway = started_gateway()
    ticket = gateway.offer(SubmitCampaign(spec("a")))
    gateway.close()
    assert ticket.done and ticket.response.status == "rejected"
    assert "closed" in ticket.response.detail


# ----------------------------------------------------------------------
# Reads: immediate, side-effect free
# ----------------------------------------------------------------------
def test_quote_miss_then_cached_hit():
    gateway = started_gateway()
    shape = spec("any")
    miss = gateway.offer(Quote(shape))
    assert miss.done and miss.response.ok
    assert miss.response.payload == {
        "kind": "deadline", "cached": False, "solved": False, "price": None,
    }
    # Admit a same-shaped campaign; its solved policy lands in the cache.
    gateway.offer(SubmitCampaign(spec("real")))
    gateway.step()
    hit = gateway.offer(Quote(shape))
    assert hit.response.payload["cached"] is True
    assert hit.response.payload["price"] is not None


def test_quote_solve_on_miss_prices_without_storing():
    gateway = started_gateway()
    stats_before = gateway.engine.cache.stats
    solved = gateway.offer(Quote(spec("s"), solve_on_miss=True))
    payload = solved.response.payload
    assert payload["solved"] is True and payload["price"] is not None
    # Nothing was stored and no lookup was counted: quoting is invisible
    # to the admission path's cache accounting.
    assert gateway.engine.cache.stats == stats_before
    budget = gateway.offer(Quote(budget_spec("b"), solve_on_miss=True))
    assert budget.response.payload["price"] is not None
    assert gateway.engine.cache.stats == stats_before


@pytest.mark.parametrize("planning", ["sliced", "stationary"])
@pytest.mark.parametrize("submit", [40, 60])
def test_out_of_horizon_quote_rejected_like_its_submission(planning, submit):
    # submit=40 runs past a 48-interval stream (sliced planning used to
    # price it on a truncated forecast slice); submit=60 starts past it
    # (sliced planning used to raise a bare ValueError out of offer()).
    gateway = Gateway(MarketplaceEngine(
        make_stream(48), paper_acceptance_model(), planning=planning,
    ))
    gateway.start(seed=3)
    shape = CampaignSpec(
        campaign_id="late", kind="deadline", num_tasks=10,
        submit_interval=submit, horizon_intervals=18, max_price=30,
    )
    quote = gateway.offer(Quote(shape, solve_on_miss=True))
    submission = gateway.offer(SubmitCampaign(shape))
    gateway.step()
    assert quote.done and quote.response.status == "rejected"
    assert quote.response.payload is None
    assert submission.response.status == "rejected"
    assert quote.response.detail == submission.response.detail
    assert "beyond the stream's 48" in quote.response.detail


@pytest.mark.parametrize("planning", ["sliced", "stationary"])
def test_unaffordable_budget_quote_rejected_like_its_submission(planning):
    # 50 tasks cannot be paid from 1 cent.  The submission is refused up
    # front, not left to fail the next tick's admission, and the
    # solve-on-miss quote is refused, not raised out of offer().
    gateway = Gateway(MarketplaceEngine(
        make_stream(48), paper_acceptance_model(), planning=planning,
    ))
    gateway.start(seed=3)
    shape = CampaignSpec(
        campaign_id="broke", kind="budget", num_tasks=50,
        submit_interval=0, horizon_intervals=6, budget=1.0, max_price=10,
    )
    quote = gateway.offer(Quote(shape, solve_on_miss=True))
    submission = gateway.offer(SubmitCampaign(shape))
    gateway.step()
    assert quote.done and quote.response.status == "rejected"
    assert quote.response.payload is None
    assert submission.response.status == "rejected"
    assert quote.response.detail == submission.response.detail
    assert "cannot cover 50 tasks" in quote.response.detail


def test_budget_exactly_at_the_bound_is_admitted():
    gateway = started_gateway()
    shape = CampaignSpec(
        campaign_id="exact", kind="budget", num_tasks=50,
        submit_interval=0, horizon_intervals=6, budget=50.0, max_price=10,
    )
    quote = gateway.offer(Quote(shape, solve_on_miss=True))
    assert quote.response.ok and quote.response.payload["price"] == 1.0
    submission = gateway.offer(SubmitCampaign(shape))
    gateway.step()
    assert submission.response.ok


def test_quote_ending_at_the_horizon_is_priced():
    gateway = Gateway(MarketplaceEngine(
        make_stream(48), paper_acceptance_model(), planning="sliced",
    ))
    gateway.start(seed=3)
    shape = CampaignSpec(
        campaign_id="last", kind="deadline", num_tasks=10,
        submit_interval=30, horizon_intervals=18, max_price=30,
    )
    quote = gateway.offer(Quote(shape, solve_on_miss=True))
    assert quote.response.ok and quote.response.payload["price"] is not None


def test_query_telemetry_summary_and_window():
    gateway = started_gateway()
    gateway.offer(SubmitCampaign(spec("a")))
    gateway.step()
    gateway.step()
    summary = gateway.offer(QueryTelemetry()).response
    assert summary.payload["ticks_recorded"] == 2
    assert "window" not in summary.payload
    windowed = gateway.offer(QueryTelemetry(last=1)).response
    window = windowed.payload["window"]
    assert len(window["engine"]["interval"]) == 1
    assert len(window["serve"]["queue_depth"]) == 1


# ----------------------------------------------------------------------
# Serving telemetry
# ----------------------------------------------------------------------
def test_serve_series_track_the_drains():
    gateway = started_gateway(max_live=1)
    gateway.offer(SubmitCampaign(spec("a")))
    gateway.offer(SubmitCampaign(spec("b")))
    gateway.offer(Cancel("missing-before-boundary"))
    gateway.step()
    serve = gateway.telemetry.serve
    assert serve["queue_depth"][-1] == 3
    assert serve["drained"][-1] == 3
    assert serve["admitted"][-1] == 1
    assert serve["rejected"][-1] == 1  # budget bounced the second submit
    gateway.offer(QueryTelemetry())
    gateway.step()
    assert serve["reads"][-1] == 1


# ----------------------------------------------------------------------
# Tenant quotas
# ----------------------------------------------------------------------
def test_tenant_quota_slot_settles_on_retirement():
    gateway = started_gateway(tenant_quotas={"acme": TenantQuota(max_live=1)})
    first = gateway.offer(SubmitCampaign(spec("a0", tasks=4)), tenant="acme")
    bounced = gateway.offer(SubmitCampaign(spec("a1")), tenant="acme")
    gateway.step()
    assert first.response.ok
    assert bounced.response.status == "rejected"
    assert bounced.response.payload == {"tenant": "acme", "quota": "max_live"}
    # Drive the campaign to retirement: the ledger settles the tick once
    # and the budget slot comes back.
    while gateway.ledger.live_count("acme"):
        assert gateway.step() is not None
    retry = gateway.offer(SubmitCampaign(spec("a1", submit=12)), tenant="acme")
    gateway.step()
    assert retry.response.ok


# ----------------------------------------------------------------------
# The event log
# ----------------------------------------------------------------------
def test_run_and_tick_rows_are_logged_once(tmp_path):
    log = EventLog(tmp_path / "events.sqlite")
    gateway = Gateway(make_engine(), event_log=log)
    gateway.start(seed=3)
    gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
    gateway.step()
    gateway.step()
    gateway.close()
    log.close()  # close() flushes asynchronously; wait for the commit

    events = EventLog.read(log.path).events()
    runs = [e.payload for e in events if e.kind == "run"]
    assert runs == [{"action": "start", "seed": 3}, {"action": "close"}]
    assert [e.tick for e in events if e.kind == "tick"] == [0, 1]
    assert len([e for e in events if e.kind == "request"]) == 1


def test_checkpoint_records_the_event_log_high_water_mark(tmp_path):
    log = EventLog(tmp_path / "events.sqlite")
    gateway = Gateway(make_engine(), event_log=log)
    gateway.start(seed=3)
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
def test_async_request_and_serve_loop():
    async def drill():
        gateway = started_gateway()
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

    gateway = asyncio.run(drill())
    assert gateway.telemetry.responses["ok"] == 2


def test_serve_flushes_queue_on_stop():
    async def drill():
        gateway = started_gateway()
        serve_task = asyncio.ensure_future(
            gateway.serve(max_ticks=0)  # exits before any boundary
        )
        ticket = gateway.offer(SubmitCampaign(spec("x")))
        await serve_task
        return ticket

    ticket = asyncio.run(drill())
    assert ticket.done and ticket.response.status == "rejected"
    assert "stopped" in ticket.response.detail


def test_serve_stop_when_idle_returns():
    async def drill():
        gateway = started_gateway()
        return await gateway.serve(stop_when_idle=True)

    assert asyncio.run(drill()) == 0
