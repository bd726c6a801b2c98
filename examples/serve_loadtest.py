"""Serving drill: the gateway, determinism, backpressure, a live loadtest.

Every other example drives the engine as a batch: the workload is known
before the first tick.  This one serves it — typed client requests
arriving against a running clock:

1. build an engine and wrap it in a ``Gateway``,
2. draw a seeded open-arrival request trace (submissions, quotes,
   cancellations, telemetry reads) and replay it deterministically,
3. demonstrate the serving determinism contract: snapshot mid-replay,
   resume from the bundle, and get bit-identical serving telemetry,
4. tighten the live-campaign budget and watch backpressure reject
   deterministically instead of dropping,
5. run a *live* closed-loop loadtest — real asyncio client sessions
   against a running ``serve()`` loop — and read the latency
   percentiles.

Run:  python examples/serve_loadtest.py
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # allow running without an install step
    sys.path.insert(0, str(REPO_SRC))

import numpy as np  # noqa: E402

from repro.engine import MarketplaceEngine  # noqa: E402
from repro.market.acceptance import paper_acceptance_model  # noqa: E402
from repro.serve import ClientMix, Gateway, LoadGenerator  # noqa: E402
from repro.sim.stream import SharedArrivalStream  # noqa: E402

NUM_INTERVALS = 48  # one simulated day at 30-minute ticks
SEED = 11


def make_engine():
    """A fresh engine over the same diurnal-ish stream every time."""
    means = 900.0 + 300.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, NUM_INTERVALS))
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary",
    )


def serve_trace(trace, stop_at=None, bundle=None):
    """Replay one trace through a fresh gateway; returns the gateway.

    With ``stop_at``, the replay snapshots to ``bundle`` at that tick and
    stops there, the way a crashed server leaves its last checkpoint.
    """
    gateway = Gateway(make_engine())
    gateway.start(seed=SEED)

    def snapshot(gw):
        if stop_at is not None and gw.clock >= stop_at:
            gw.save(bundle)
            return False
        return None

    gateway.replay(trace, on_tick=snapshot)
    return gateway


def main() -> int:
    generator = LoadGenerator(
        NUM_INTERVALS, seed=SEED, clients=4, rate=2.5,
        mix=ClientMix(submit=0.4, quote=0.3, cancel=0.15, query=0.15),
    )
    trace = generator.trace("open")
    print(f"--- replaying {trace.num_requests} requests "
          f"({trace.name}) through the gateway ---")
    pooled = serve_trace(trace)
    print(pooled.core.result().summary())
    print(pooled.telemetry.summary())

    print("\n--- determinism: snapshot at tick 20, resume, finish ---")
    with tempfile.TemporaryDirectory() as tmp:
        serve_trace(trace, stop_at=20, bundle=tmp).engine.close()
        resumed = Gateway.resume(tmp)
        resumed.resume_replay()
    assert resumed.telemetry == pooled.telemetry
    print("resumed vs uninterrupted serving telemetry bit-identical: yes")

    print("\n--- backpressure: a 6-campaign live budget ---")
    tight = Gateway(make_engine(), max_live=6)
    tight.start(seed=SEED)
    tickets = tight.replay(trace)
    rejected = [t for t in tickets if t.response.status == "rejected"]
    print(f"{len(rejected)} submissions rejected "
          f"(first: {rejected[0].response.detail!r})" if rejected
          else "budget never filled")
    again = Gateway(make_engine(), max_live=6)
    again.start(seed=SEED)
    assert [t.response.status for t in again.replay(trace)] == [
        t.response.status for t in tickets
    ]
    print("rejections deterministic across replays: yes")

    print("\n--- live closed-loop loadtest (asyncio clients) ---")
    live = Gateway(make_engine())
    live.start(seed=SEED)
    responses = asyncio.run(
        LoadGenerator(
            NUM_INTERVALS, seed=SEED, clients=4, think=1,
            requests_per_client=8,
        ).run_closed(live)
    )
    latency = live.telemetry.latency.summary()
    print(f"{len(responses)} responses; latency p50 "
          f"{latency['p50_ms']:.2f}ms / p95 {latency['p95_ms']:.2f}ms / "
          f"p99 {latency['p99_ms']:.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
