"""Workload ``serve-tenants``: request-bound serving through the gateway.

A :class:`~repro.serve.gateway.Gateway` over a ``"stationary"``
:class:`~repro.engine.engine.MarketplaceEngine` replays an open
:class:`~repro.serve.loadgen.LoadGenerator` trace: 1000 intervals of
about 25 requests per tick, mostly quotes and telemetry queries with a
few percent submissions and cancels, from 32 tenants of unequal drain
weight, with a drain budget above the mean write rate and an
:class:`~repro.obs.eventlog.EventLog` attached.  Reads are answered
inside ``offer`` while writes queue for the weighted-fair drain at tick
boundaries, so a gain on one path that costs the other shows.

The replay is one caller offering each request after the previous one
returned: queueing behind earlier requests shows in requests/s and tick
times, not in read latency.  Exactly 5% of each deadline shape's
submissions re-plan adaptively, rather than ``LoadGenerator``'s
independent 5% draw per submission: a handful of re-solving campaigns
more or less moves a whole run, and runs of the benchmark are compared
across seeds.  Over seeds 101-108, the CPU time of a round spread 11%
(interquartile range over median) with ``adaptive_fraction=0.05`` and 5%
with exact counts.  For the same reason the trace is drawn with a
surplus of submissions and thinned to exactly 1.5% of the expected
requests (with the cancels of the campaigns it leaves out): the drawn
count ranged 566-643 over seeds 501-510, and with it the campaigns a
round retires.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.engine import DEADLINE, MarketplaceEngine
from repro.market.acceptance import paper_acceptance_model
from repro.obs.eventlog import EventLog
from repro.serve import (
    DEFAULT_TENANT,
    Cancel,
    ClientMix,
    Gateway,
    LoadGenerator,
    RequestTrace,
    SubmitCampaign,
    is_mutating,
)
from repro.sim.stream import SharedArrivalStream
from pacing import Pacer
from shared import Round, check

NAME = "serve-tenants"
DEFAULT_SEED = 33

SIZES = {
    #: 25 requests per tick rather than 40 keeps a round near 7 s, so a
    #: 30-second run holds four: the median over the rounds of each span
    #: (``run.paced_wall``) needs more than the two that 40 left.
    "full": {"intervals": 1000, "rate": 25.0},
    "tiny": {"intervals": 60, "rate": 10.0},
}
#: Drawn with a fifth more submissions than :data:`SUBMIT_SHARE` asks,
#: so thinning to the exact count never runs short.
MIX = ClientMix(submit=0.018, quote=0.592, cancel=0.01, query=0.38)
SUBMIT_SHARE = 0.015
TENANTS = tuple(f"tenant-{i:02d}" for i in range(32))
WEIGHTS = {tenant: float(1 + i % 4) for i, tenant in enumerate(TENANTS)}
CLIENTS = 64
#: Writes arrive at about one per tick; the drain applies up to eight.
MAX_DRAIN = 8
ADAPTIVE_SHARE = 0.05
#: Diurnal arrival cycle of the shared stream, in intervals.
CYCLE = 48


def make_input(seed: int, size: str):
    """The request trace and stream means of one round."""
    intervals = SIZES[size]["intervals"]
    trace = LoadGenerator(
        intervals,
        seed=seed,
        clients=CLIENTS,
        rate=SIZES[size]["rate"],
        mix=MIX,
        adaptive_fraction=0.0,
        tenants=TENANTS,
    ).trace("open")
    submits = [timed.request.spec.campaign_id for timed in trace.requests
               if isinstance(timed.request, SubmitCampaign)]
    target = round(intervals * SIZES[size]["rate"] * SUBMIT_SHARE)
    thin = np.random.default_rng([seed, 2])
    left_out = set(thin.choice(submits, size=max(len(submits) - target, 0),
                               replace=False).tolist())
    # A cancel drained in the same boundary as its campaign's submission
    # drops the still-pending campaign, and every later cancel of that id
    # is answered "error"; leave such cancels out so no request fails.
    submitted_at = {}
    requests = []
    shapes = defaultdict(list)
    for timed in trace.requests:
        request = timed.request
        if isinstance(request, Cancel):
            if (request.campaign_id in left_out
                    or submitted_at[request.campaign_id] == timed.tick):
                continue
        elif isinstance(request, SubmitCampaign):
            if request.spec.campaign_id in left_out:
                continue
            spec = request.spec
            submitted_at[spec.campaign_id] = timed.tick
            if spec.kind == DEADLINE:
                shapes[(spec.num_tasks, spec.horizon_intervals, spec.max_price)].append(
                    len(requests)
                )
        requests.append(timed)
    rng = np.random.default_rng([seed, 1])
    for shape in sorted(shapes):
        members = shapes[shape]
        for i in rng.choice(members, size=round(len(members) * ADAPTIVE_SHARE),
                            replace=False):
            timed = requests[i]
            spec = dataclasses.replace(timed.request.spec, adaptive=True)
            requests[i] = dataclasses.replace(timed, request=SubmitCampaign(spec))
    means = 1200.0 + 400.0 * np.sin(2.0 * np.pi * np.arange(intervals) / CYCLE)
    return RequestTrace(trace.name, tuple(requests)), means


def run(inputs, seed: int, workdir, tracer=None) -> Round:
    """Construct and start the gateway, then replay the trace through it."""
    trace, means = inputs
    log_dir = Path(tempfile.mkdtemp(dir=workdir))
    log = None
    try:
        started = time.perf_counter()
        log = EventLog(log_dir / "events.sqlite")
        gateway = Gateway(
            MarketplaceEngine(
                SharedArrivalStream(means),
                paper_acceptance_model(),
                planning="stationary",
            ),
            max_drain=MAX_DRAIN,
            tenant_weights=WEIGHTS,
            event_log=log,
        )
        core = gateway.start(seed=seed)
        setup = time.perf_counter() - started
        if tracer is not None:
            tracer.attach(core, drain=True)

        offer = gateway.offer
        reads: list[float] = []
        ticks: list[float] = []
        writes = []
        offer_seconds = 0.0
        last_tick = 0.0

        def timed_offer(request, client="local", tenant=DEFAULT_TENANT):
            nonlocal offer_seconds
            offered = time.perf_counter()
            ticket = offer(request, client=client, tenant=tenant)
            elapsed = time.perf_counter() - offered
            offer_seconds += elapsed
            if not is_mutating(request):
                reads.append(elapsed)
            elif tracer is not None:
                writes.append((ticket, core.clock))
            return ticket

        def on_tick(_gateway) -> None:
            # A tick's time is everything since the previous tick except
            # the offers delivered in between.
            nonlocal offer_seconds, last_tick
            now = time.perf_counter()
            ticks.append(now - last_tick - offer_seconds)
            offer_seconds = 0.0
            pacer.boundary()
            last_tick = time.perf_counter()

        gateway.offer = timed_offer
        pacer = Pacer(enabled=tracer is None)
        if tracer is not None:
            tracer.begin()
        pacer.start()
        started = last_tick = time.perf_counter()
        tickets = gateway.replay(trace, on_tick=on_tick)
        # Close the last span: reads may follow the last tick.
        pacer.boundary()
        wall = time.perf_counter() - started - pacer.overhead_s
        if tracer is not None:
            tracer.end()
        result = core.result()
        responses = gateway.telemetry.total_requests
        layer = {
            "cache_hits": result.cache_stats.hits,
            "cache_misses": result.cache_stats.misses,
        }
        if tracer is not None:
            layer.update(
                queue_waits=[t.response.tick - clock for t, clock in writes],
                queue_depth_max=gateway.queue.stats.max_depth_seen,
                telemetry_bytes=len(json.dumps(gateway.telemetry.to_dict())),
            )
        gateway.close()
    finally:
        if log is not None:
            log.close()
        shutil.rmtree(log_dir, ignore_errors=True)

    check(
        len(tickets) == len(trace.requests),
        f"{len(tickets)} tickets for {len(trace.requests)} requests",
    )
    check(all(t.done for t in tickets), "a request was left unanswered")
    check(
        [t.seq for t in tickets] == list(range(len(tickets))),
        "tickets are not one per request in offer order",
    )
    check(
        responses == len(tickets),
        f"{responses} responses delivered for {len(tickets)} requests",
    )
    statuses = defaultdict(int)
    admitted = dropped = 0
    digest = hashlib.sha256()
    for ticket in tickets:
        response = ticket.response
        statuses[response.status] += 1
        digest.update(response.status.encode() + b"\n")
        if response.ok and isinstance(ticket.request, SubmitCampaign):
            admitted += 1
        elif response.ok and isinstance(ticket.request, Cancel):
            dropped += response.payload["result"] == "dropped"
    digest.update(result.checksum.encode())
    check(
        result.num_campaigns == admitted - dropped,
        f"{result.num_campaigns} campaigns retired of {admitted - dropped} "
        "admitted and not dropped",
    )
    return Round(
        seed=seed,
        setup_s=setup,
        wall_s=wall,
        retired=result.num_campaigns,
        attempted=len(trace.requests),
        failed=statuses["error"] + statuses["rejected"],
        fingerprint=digest.hexdigest(),
        tick_s=ticks,
        read_s=reads,
        span_s=pacer.spans,
        probe_s=pacer.probes,
        requests=len(tickets),
        layer=layer,
    )
