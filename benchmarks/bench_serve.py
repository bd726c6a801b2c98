"""Serving-gateway throughput: requests/sec and latency through the frontier.

Two tracked surfaces:

* **Sustained request throughput** — the reference serving workload (a
  quote/read-heavy client mix with campaign submissions and
  cancellations riding along, the shape real serving traffic takes)
  replayed through the :class:`~repro.serve.gateway.Gateway`.  The
  acceptance bar is **>= 5,000 requests/sec sustained** — requests
  answered divided by the *whole* wall-clock of the served run, engine
  ticks included.  The result is recorded under the ``"serve"`` key of
  ``BENCH_engine.json`` (alongside the solver fast-path record
  ``docs/performance.md`` explains).
* **Closed-loop latency** — real asyncio client sessions against a live
  ``serve()`` loop, reporting offer→response p50/p95/p99.  Latency is
  wall-clock and machine-dependent, so it is reported, not gated.

Smoke mode: set ``REPRO_BENCH_SMOKE=1`` (CI does, via ``make
serve-smoke``) to shrink the horizon and request volume so the file runs
in seconds while still executing every code path; the committed
``BENCH_engine.json`` record is only rewritten by full (non-smoke) runs.

Run:  pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import time

import numpy as np

from repro.engine import MarketplaceEngine, ShardedEngine
from repro.engine.campaign import CampaignSpec
from repro.market.acceptance import paper_acceptance_model
from repro.serve import (
    Cancel,
    ClientMix,
    Gateway,
    LoadGenerator,
    RequestTrace,
    TimedRequest,
)
from repro.sim.stream import SharedArrivalStream

#: CI smoke mode: tiny horizon, same code paths.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_INTERVALS = 32 if SMOKE else 96
#: Mean requests per tick of the reference trace (read-heavy mix).
RATE = 60.0 if SMOKE else 120.0
SEED = 33
#: The acceptance bar on the reference workload.  Smoke mode (CI's
#: contended shared runners, smaller horizon) gates on a deliberately
#: loose floor instead — it exists to catch pathological slowdowns, not
#: to flake on machine speed (the same reasoning as bench_scenario.py's
#: relative overhead bar).  The full-run floor tracks the measured
#: ~29k req/s with >2x headroom.
REQUIRED_RPS = 500.0 if SMOKE else 12000.0

#: Noisy-neighbor fairness bar: the victim's p99 queueing latency (in
#: ticks — deterministic, not wall-clock) under a flood from another
#: tenant may not exceed 2x its isolated baseline.
FAIRNESS_P99_FACTOR = 2.0

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def make_engine(num_shards: int = 0):
    means = 1200.0 + 400.0 * np.sin(
        np.linspace(0.0, 4.0 * np.pi, NUM_INTERVALS)
    )
    if num_shards:
        return ShardedEngine(
            SharedArrivalStream(means), paper_acceptance_model(),
            num_shards=num_shards,
            planning="stationary",
        )
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary",
    )


def reference_trace():
    """The reference serving workload: mostly reads, plus live mutations."""
    return LoadGenerator(
        NUM_INTERVALS,
        seed=SEED,
        clients=8,
        rate=RATE,
        mix=ClientMix(submit=0.015, quote=0.595, cancel=0.01, query=0.38),
        adaptive_fraction=0.05,
    ).trace("open")


def run_replay(trace):
    """One served replay; returns (gateway, requests_answered, seconds)."""
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    started = time.perf_counter()
    tickets = gateway.replay(trace)
    seconds = time.perf_counter() - started
    assert all(t.done for t in tickets)
    return gateway, len(tickets), seconds


def test_serve_sustained_throughput(emit):
    """Reference workload through the gateway -> BENCH_engine.json 'serve'."""
    trace = reference_trace()
    # Warm-up run (policy solves populate the cache exactly as a long-lived
    # serving deployment's would be), then the measured run.
    run_replay(trace)
    gateway, answered, seconds = run_replay(trace)
    rps = answered / seconds
    assert rps >= REQUIRED_RPS, (
        f"gateway sustained only {rps:,.0f} requests/sec "
        f"(bar: {REQUIRED_RPS:,.0f})"
    )
    serve = gateway.telemetry.serve
    lines = [
        f"serving gateway: {answered} requests over {NUM_INTERVALS} "
        f"intervals{' (smoke)' if SMOKE else ''}",
        "",
        f"sustained  : {rps:10,.0f} requests/sec "
        f"(bar: {REQUIRED_RPS:,.0f}; ticks included)",
        f"admission  : {sum(serve['admitted'])} campaigns admitted, "
        f"{sum(serve['cancels'])} cancels, "
        f"{gateway.telemetry.reads_served} reads",
        f"queue      : peak depth {max(serve['queue_depth'], default=0)}, "
        f"mean batch "
        f"{np.mean([d for d in serve['drained'] if d] or [0.0]):.1f}",
    ]
    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record["serve"] = {
            "workload": {
                "requests": answered,
                "stream_intervals": NUM_INTERVALS,
                "rate_per_tick": RATE,
                "seed": SEED,
            },
            "seconds": round(seconds, 4),
            "requests_per_second": round(rps, 1),
            "required_requests_per_second": REQUIRED_RPS,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("serve_throughput", "\n".join(lines))


# ----------------------------------------------------------------------
# Noisy-neighbor fairness
# ----------------------------------------------------------------------
#: Ticks the fairness traces span, and per-tick request volumes.
FAIR_TICKS = 12 if SMOKE else 24
NOISY_PER_TICK = 12 if SMOKE else 16
VICTIM_PER_TICK = 2
#: Per-boundary drain budget: smaller than the combined arrival rate, so
#: the noisy tenant builds a persistent backlog the scheduler must not
#: let the victim drown in.
FAIR_MAX_DRAIN = 8 if SMOKE else 12


def keepalive_spec() -> CampaignSpec:
    """One long-lived campaign so the engine clock runs the whole drill.

    The low ``max_price`` keeps its acceptance rate near zero — it never
    completes inside the horizon, and its solve stays cheap.
    """
    return CampaignSpec(
        campaign_id="keepalive", kind="deadline", num_tasks=10_000,
        submit_interval=0, horizon_intervals=NUM_INTERVALS, max_price=2,
    )


def fairness_trace(tagged: bool) -> RequestTrace:
    """The contended workload: a flood and a modest victim, every tick.

    ``tagged=False`` strips the tenant ids — the FIFO contrast arm, where
    the same arrivals share one global queue.  Requests are Cancels of
    unknown campaigns: they ride the mutation queue (so they experience
    queueing) without touching engine state, keeping the three arms'
    engines identical.  Noisy arrivals precede the victim's within every
    tick — the worst case for FIFO.
    """
    requests = []
    for t in range(FAIR_TICKS):
        for i in range(NOISY_PER_TICK):
            requests.append(TimedRequest(
                t, "noisy", Cancel(f"n-{t}-{i}"),
                **({"tenant": "noisy"} if tagged else {}),
            ))
        for i in range(VICTIM_PER_TICK):
            requests.append(TimedRequest(
                t, "victim", Cancel(f"v-{t}-{i}"),
                **({"tenant": "victim"} if tagged else {}),
            ))
    return RequestTrace("fairness", tuple(requests))


def victim_only_trace() -> RequestTrace:
    return RequestTrace("victim-isolated", tuple(
        TimedRequest(t, "victim", Cancel(f"v-{t}-{i}"), tenant="victim")
        for t in range(FAIR_TICKS)
        for i in range(VICTIM_PER_TICK)
    ))


def run_fairness_arm(trace: RequestTrace, weights=None):
    """Replay one arm; returns per-client queueing latencies in ticks.

    Latency is ``response.tick - arrival tick`` — deterministic engine
    time, so the fairness bar never flakes on machine speed.
    """
    engine = make_engine()
    engine.submit([keepalive_spec()])
    gateway = Gateway(
        engine, max_queue=None, max_drain=FAIR_MAX_DRAIN,
        tenant_weights=weights,
    )
    gateway.start(seed=SEED)
    tickets = gateway.replay(trace)
    latencies: dict[str, list[int]] = {}
    for timed, ticket in zip(trace.requests, tickets):
        latencies.setdefault(timed.client, []).append(
            ticket.response.tick - timed.tick
        )
    return latencies


def p99(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 99))


def test_serve_noisy_neighbor_fairness(emit):
    """Weighted-fair admission holds the victim's p99 under the flood."""
    isolated = run_fairness_arm(victim_only_trace())
    fair = run_fairness_arm(
        fairness_trace(tagged=True),
        weights={"victim": 1.0, "noisy": 1.0},
    )
    fifo = run_fairness_arm(fairness_trace(tagged=False))

    p99_iso = p99(isolated["victim"])
    p99_fair = p99(fair["victim"])
    p99_fifo = p99(fifo["victim"])
    baseline = max(p99_iso, 1.0)
    ratio = p99_fair / baseline
    assert p99_fair <= FAIRNESS_P99_FACTOR * baseline, (
        f"victim p99 {p99_fair:.1f} ticks under contention vs isolated "
        f"{p99_iso:.1f} — the {FAIRNESS_P99_FACTOR}x fairness bar failed"
    )
    # The contrast arm proves the drill bites: the same arrivals through
    # one FIFO queue do drown the victim (deterministic, so assertable).
    assert p99_fifo > FAIRNESS_P99_FACTOR * baseline, (
        f"FIFO contrast arm shows no contention (p99 {p99_fifo:.1f}): "
        "the fairness drill is not exercising a backlog"
    )

    lines = [
        f"noisy-neighbor fairness: {NOISY_PER_TICK}/tick flood vs "
        f"{VICTIM_PER_TICK}/tick victim, drain budget {FAIR_MAX_DRAIN}"
        f"{' (smoke)' if SMOKE else ''}",
        "",
        f"victim p99 isolated : {p99_iso:6.1f} ticks",
        f"victim p99 fair DRR : {p99_fair:6.1f} ticks "
        f"(bar: {FAIRNESS_P99_FACTOR}x isolated; ratio {ratio:.2f})",
        f"victim p99 FIFO     : {p99_fifo:6.1f} ticks (contrast, ungated)",
        f"noisy  p99 fair DRR : {p99(fair['noisy']):6.1f} ticks "
        "(the flood pays for its own backlog)",
    ]
    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record.setdefault("serve", {})["fairness"] = {
            "workload": {
                "ticks": FAIR_TICKS,
                "noisy_per_tick": NOISY_PER_TICK,
                "victim_per_tick": VICTIM_PER_TICK,
                "max_drain": FAIR_MAX_DRAIN,
            },
            "per_tenant_p99_ticks": {
                "victim_isolated": round(p99_iso, 2),
                "victim_fair": round(p99_fair, 2),
                "victim_fifo": round(p99_fifo, 2),
                "noisy_fair": round(p99(fair["noisy"]), 2),
            },
            "fairness_ratio": round(ratio, 3),
            "required_factor": FAIRNESS_P99_FACTOR,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("serve_fairness", "\n".join(lines))


def test_serve_closed_loop_latency(emit):
    """Live asyncio clients: offer->response percentiles (reported)."""
    generator = LoadGenerator(
        NUM_INTERVALS,
        seed=SEED,
        clients=4 if SMOKE else 8,
        think=1,
        requests_per_client=8 if SMOKE else 24,
    )
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)
    responses = asyncio.run(generator.run_closed(gateway))
    assert responses, "the closed loop must answer at least one request"
    latency = gateway.telemetry.latency.summary()
    assert latency["count"] >= len(responses)
    emit(
        "serve_latency",
        "\n".join([
            f"closed-loop latency: {latency['count']} requests, "
            f"{generator.clients} clients{' (smoke)' if SMOKE else ''}",
            "",
            f"p50 : {latency['p50_ms']:8.3f} ms",
            f"p95 : {latency['p95_ms']:8.3f} ms",
            f"p99 : {latency['p99_ms']:8.3f} ms",
            f"mean: {latency['mean_ms']:8.3f} ms",
        ]),
    )


# ----------------------------------------------------------------------
# Live ops-plane overhead
# ----------------------------------------------------------------------
#: Instrumented-dark vs ops-enabled replay repeats and the acceptance
#: bar.  Both arms wire the same MetricsRegistry — instrumentation is a
#: fixed property of an observable deployment, so the bar isolates what
#: *attaching the live ops plane* adds: the server thread plus scrape
#: traffic contending for the GIL with the tick loop.  Full mode holds
#: the documented < 5%; smoke mode (contended CI runners, tiny horizon)
#: only guards against a scrape path landing on the tick loop.
OPS_REPEATS = 3
OPS_MAX_OVERHEAD = 0.50 if SMOKE else 0.05
#: Pause between scrape rounds.  Still orders of magnitude hotter than a
#: production 15s Prometheus cadence relative to the run length (every
#: run gets scraped several times), but not a busy-loop: each scrape
#: round costs the replay thread real GIL hand-offs, so an unrealistic
#: hammer would measure scrape *frequency*, not the cost of having the
#: ops plane attached.
OPS_SCRAPE_PAUSE_S = 0.05 if SMOKE else 0.5
#: The overhead arm replays a denser trace than the throughput arm: the
#: per-round scrape cost is a fixed few milliseconds, so the dark run
#: has to be long enough for a percentage bar to measure signal rather
#: than timer noise.
OPS_RATE_FACTOR = 4.0


def ops_reference_trace():
    """The overhead arm's workload: the reference mix at 4x the rate."""
    return LoadGenerator(
        NUM_INTERVALS,
        seed=SEED,
        clients=8,
        rate=RATE * OPS_RATE_FACTOR,
        mix=ClientMix(submit=0.015, quote=0.595, cancel=0.01, query=0.38),
        adaptive_fraction=0.05,
    ).trace("open")


def run_instrumented_replay(trace):
    """The baseline arm: metrics wired, no ops server.  Returns seconds."""
    from repro.obs import MetricsRegistry

    gateway = Gateway(make_engine(), metrics=MetricsRegistry())
    gateway.start(seed=SEED)
    started = time.perf_counter()
    tickets = gateway.replay(trace)
    seconds = time.perf_counter() - started
    assert all(t.done for t in tickets)
    return seconds


def run_ops_replay(trace):
    """The ops-enabled arm: same metrics, plus a live server under scrape.

    Returns ``(seconds, scrape_rounds)`` — the replay wall-clock with a
    background client hammering ``/metrics`` + ``/readyz`` + ``/slo``
    the whole time.  The client is a raw socket, not urllib: a real
    scraper lives in another process, so its own parsing must not
    contend for this interpreter's GIL and pollute the measurement —
    only the server side of each scrape is the ops plane's cost.
    """
    import socket
    import threading

    from repro.obs import MetricsRegistry
    from repro.obs.ops import OpsServer

    gateway = Gateway(make_engine(), metrics=MetricsRegistry())
    gateway.start(seed=SEED)
    ops = OpsServer(gateway, metrics=gateway.metrics)
    host, port = ops.start_in_thread()
    stop = threading.Event()
    rounds = [0]

    def scrape(path: str) -> None:
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
            )
            while conn.recv(65536):
                pass  # drain to EOF; the server closes after one response

    def scraper() -> None:
        while not stop.is_set():
            for path in ("/metrics", "/readyz", "/slo"):
                try:
                    scrape(path)
                except (ConnectionError, OSError):
                    pass  # mid-shutdown scrape; the run is what's measured
            rounds[0] += 1
            stop.wait(OPS_SCRAPE_PAUSE_S)

    thread = threading.Thread(target=scraper, daemon=True)
    thread.start()
    try:
        started = time.perf_counter()
        tickets = gateway.replay(trace)
        seconds = time.perf_counter() - started
    finally:
        stop.set()
        thread.join(timeout=5)
        ops.close()
    assert all(t.done for t in tickets)
    return seconds, rounds[0]


def test_serve_ops_overhead(emit):
    """Scraped ops plane vs instrumented replay -> BENCH 'serve.ops_overhead'."""
    trace = ops_reference_trace()
    run_instrumented_replay(trace)  # warm-up, same as the throughput arm
    dark_seconds = []
    ops_seconds = []
    scrape_rounds = 0
    for _ in range(OPS_REPEATS):
        dark_seconds.append(run_instrumented_replay(trace))
        seconds, rounds = run_ops_replay(trace)
        ops_seconds.append(seconds)
        scrape_rounds += rounds
    baseline = min(dark_seconds)
    scraped = min(ops_seconds)
    overhead = scraped / baseline - 1.0
    assert overhead <= OPS_MAX_OVERHEAD, (
        f"live ops plane added {overhead:+.1%} to the served replay "
        f"(bar: {OPS_MAX_OVERHEAD:.0%}); a scrape path may have landed "
        "on the tick loop"
    )
    # The number only means anything if the server was actually scraped
    # while the run progressed.
    assert scrape_rounds > 0, "the scraper never completed a round"

    lines = [
        f"live ops-plane overhead: {scrape_rounds} scrape rounds across "
        f"{OPS_REPEATS} runs{' (smoke)' if SMOKE else ''}",
        "",
        f"instrumented : {baseline:8.3f}s replay (best of {OPS_REPEATS})",
        f"ops+scrape   : {scraped:8.3f}s with /metrics /readyz /slo live",
        f"overhead     : {overhead:+8.1%} (bar: {OPS_MAX_OVERHEAD:.0%})",
    ]
    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record.setdefault("serve", {})["ops_overhead"] = {
            "workload": {
                "requests": len(trace.requests),
                "stream_intervals": NUM_INTERVALS,
                "rate_per_tick": RATE * OPS_RATE_FACTOR,
                "seed": SEED,
            },
            "instrumented_seconds": round(baseline, 4),
            "ops_seconds": round(scraped, 4),
            "overhead_fraction": round(overhead, 4),
            "required_max_overhead": OPS_MAX_OVERHEAD,
            "scrape_rounds": scrape_rounds,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("serve_ops_overhead", "\n".join(lines))
