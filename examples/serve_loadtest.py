"""Serving drill: the gateway, determinism, backpressure, a live loadtest.

Every other example drives the engine as a batch: the workload is known
before the first tick.  This one serves it — typed client requests
arriving against a running clock:

1. build an engine and wrap it in a ``Gateway``,
2. draw a seeded open-arrival request trace (submissions, quotes,
   cancellations, telemetry reads) and replay it deterministically,
3. demonstrate the serving determinism contract: the same trace on a
   3-shard engine produces bit-identical serving telemetry,
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
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # allow running without an install step
    sys.path.insert(0, str(REPO_SRC))

import numpy as np  # noqa: E402

from repro.engine import MarketplaceEngine, ShardedEngine  # noqa: E402
from repro.market.acceptance import paper_acceptance_model  # noqa: E402
from repro.serve import ClientMix, Gateway, LoadGenerator  # noqa: E402
from repro.sim.stream import SharedArrivalStream  # noqa: E402

NUM_INTERVALS = 48  # one simulated day at 30-minute ticks
SEED = 11


def make_engine(num_shards: int = 0):
    """A fresh engine over the same diurnal-ish stream every time."""
    means = 900.0 + 300.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, NUM_INTERVALS))
    if num_shards:
        return ShardedEngine(
            SharedArrivalStream(means), paper_acceptance_model(),
            num_shards=num_shards, planning="stationary",
        )
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary",
    )


def serve_trace(trace, num_shards=0, max_live=None):
    """Replay one trace through a fresh gateway; returns the gateway."""
    gateway = Gateway(make_engine(num_shards), max_live=max_live)
    gateway.start(seed=SEED)
    gateway.replay(trace)
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

    print("\n--- determinism: the same trace on a 3-shard engine ---")
    sharded = serve_trace(trace, num_shards=3)
    one_shard = serve_trace(trace, num_shards=1)
    assert one_shard.telemetry == sharded.telemetry
    print("1-shard vs 3-shard serving telemetry bit-identical: yes")

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
