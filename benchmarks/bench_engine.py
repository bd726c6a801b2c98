"""Engine throughput benchmarks: the cache, the batch fast path, sharding.

Three tracked surfaces:

* **Policy caching** — one standard multi-campaign workload through the
  engine with the cache enabled and disabled (what memoization buys).
* **Batch fast path** — 64 *distinct* deadline instances (so the cache
  cannot collapse them) solved one-by-one with the scalar
  :func:`~repro.core.deadline.vectorized.solve_deadline` versus one call
  to :func:`~repro.core.batch.deadline.solve_deadline_batch`; the
  acceptance bar is a >= 3x policy-solve throughput win for the batch
  kernel.
* **Shard scaling** — the same workload through
  :class:`~repro.engine.sharding.ShardedEngine` at 1/2/4 shards, each
  running its shards in the engine's serial loop.  The arms are timed
  **interleaved**, best-of-``SHARD_REPEATS`` each (like
  ``bench_obs.py``), so CPU-frequency drift and cache warmth hit every
  arm equally instead of flattering whichever ran last.  Outcomes are
  asserted identical across every arm (the determinism contract), and
  every arm must clear a ratcheted ``campaigns_per_second`` floor; the
  spread between arms is the cost of the shard partition itself,
  reported as measured, never asserted.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks the shard-scaling workload
and loosens the throughput floor (a contended single-core CI runner
resolves invariance, not throughput); the committed ``BENCH_engine.json``
is only rewritten by full runs.

Besides the human-readable blocks under ``benchmarks/results/``, the
fast-path run updates ``BENCH_engine.json`` at the repository root — the
machine-readable record ``docs/performance.md`` explains how to read.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core.batch import solve_deadline_batch
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.vectorized import solve_deadline
from repro.engine import (
    MarketplaceEngine,
    PolicyCache,
    ShardedEngine,
    generate_workload,
)
from repro.engine.engine import EngineResult
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream

#: CI smoke mode: tiny shard-scaling workload, same code paths.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_CAMPAIGNS = 50
NUM_INTERVALS = 96
SEED = 21

#: Shard-scaling arms: shard counts, every one run by the serial loop.
SHARD_ARMS = (1, 2, 4)
SHARD_CAMPAIGNS = 24 if SMOKE else 120
SHARD_REPEATS = 2 if SMOKE else 3
#: Ratcheted floor: every arm's best-of campaigns/sec must clear it in
#: full mode (raise when the engine gets faster, never lower).  Smoke
#: mode only guards against pathological hangs.
REQUIRED_MIN_CPS = 0.5 if SMOKE else 300.0

#: The 64-campaign solve workload for the batch-vs-scalar comparison:
#: the four default template shapes, each at 16 distinct forecast levels.
SOLVE_BATCH = 64
SOLVE_SHAPES = ((15, 9, 25), (40, 18, 30), (80, 30, 30), (25, 6, 40))

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"


@pytest.fixture(scope="module")
def stream() -> SharedArrivalStream:
    means = 1500.0 + 600.0 * np.sin(np.linspace(0.0, 6.0 * np.pi, NUM_INTERVALS))
    return SharedArrivalStream(means)


def run_workload(stream: SharedArrivalStream, cache_entries: int) -> EngineResult:
    """One fresh engine + cache over the standard 50-campaign workload."""
    engine = MarketplaceEngine(
        stream,
        paper_acceptance_model(),
        cache=PolicyCache(max_entries=cache_entries),
        planning="stationary",
    )
    engine.submit(generate_workload(NUM_CAMPAIGNS, NUM_INTERVALS, seed=SEED))
    return engine.run(seed=SEED)


def distinct_solve_workload(n: int = SOLVE_BATCH) -> list[DeadlineProblem]:
    """``n`` deadline instances with distinct signatures (no cache collapse)."""
    rng = np.random.default_rng(SEED)
    acceptance = paper_acceptance_model()
    problems = []
    for i in range(n):
        num_tasks, horizon, max_price = SOLVE_SHAPES[i % len(SOLVE_SHAPES)]
        level = 900.0 * float(rng.uniform(0.6, 1.4))
        problems.append(
            DeadlineProblem(
                num_tasks=num_tasks,
                arrival_means=np.full(horizon, level),
                acceptance=acceptance,
                price_grid=np.arange(1.0, max_price + 1.0),
                penalty=PenaltyScheme(per_task=float(rng.uniform(80.0, 250.0))),
            )
        )
    return problems


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock of ``repeats`` calls (the usual timing estimator)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_sharded(stream: SharedArrivalStream, num_shards: int) -> EngineResult:
    """One ShardedEngine run of the shard-scaling workload on one arm."""
    engine = ShardedEngine(
        stream,
        paper_acceptance_model(),
        num_shards=num_shards,
        cache=PolicyCache(max_entries=256),
        planning="stationary",
    )
    engine.submit(generate_workload(SHARD_CAMPAIGNS, NUM_INTERVALS, seed=SEED))
    return engine.run(seed=SEED)


@pytest.mark.benchmark(group="engine")
def test_engine_cached(benchmark, stream):
    result = benchmark(run_workload, stream, 256)
    assert result.num_campaigns == NUM_CAMPAIGNS
    assert result.cache_stats.hit_rate > 0


@pytest.mark.benchmark(group="engine")
def test_engine_uncached(benchmark, stream):
    result = benchmark(run_workload, stream, 0)
    assert result.num_campaigns == NUM_CAMPAIGNS
    assert result.cache_stats.hit_rate == 0


def test_engine_report(stream, emit):
    """Emit the tracked engine metrics (not a timing benchmark itself)."""
    cached = run_workload(stream, 256)
    uncached = run_workload(stream, 0)
    assert cached.cache_stats.hit_rate > 0
    lines = [
        "engine: 50 heterogeneous campaigns, one shared 96-interval stream",
        "",
        f"cached   : {cached.campaigns_per_second:8.1f} campaigns/sec  "
        f"(hit rate {100 * cached.cache_stats.hit_rate:.1f}%, "
        f"{cached.cache_stats.misses} solves)",
        f"uncached : {uncached.campaigns_per_second:8.1f} campaigns/sec  "
        f"({uncached.cache_stats.misses} solves)",
        f"speedup  : {uncached.elapsed_seconds / cached.elapsed_seconds:8.1f}x "
        f"wall-clock from policy caching",
        f"completion {100 * cached.completion_rate:.1f}%, "
        f"spend {cached.total_cost / 100:.2f}$, "
        f"peak concurrency {cached.max_concurrent}",
    ]
    emit("engine", "\n".join(lines))


def test_engine_fastpath_report(stream, emit):
    """Batch-vs-scalar solve throughput and shard scaling -> BENCH_engine.json.

    The acceptance bar: the batched kernel must deliver at least 3x the
    policy-solve throughput of the scalar path on the 64-campaign solve
    workload.
    """
    problems = distinct_solve_workload()
    # Warm-up pass doubling as the equivalence guard: the speedup must
    # not come from solving less.
    scalar_policies = [solve_deadline(p) for p in problems]
    batch_policies = solve_deadline_batch(problems)
    assert all(
        np.array_equal(s.price_index, b.price_index)
        and np.allclose(s.opt, b.opt, rtol=1e-9, atol=1e-8)
        for s, b in zip(scalar_policies, batch_policies)
    )
    scalar_seconds = _best_of(2, lambda: [solve_deadline(p) for p in problems])
    batch_seconds = _best_of(2, lambda: solve_deadline_batch(problems))
    speedup = scalar_seconds / batch_seconds
    assert speedup >= 3.0, (
        f"batch fast path delivered only {speedup:.1f}x over scalar solves"
    )

    # Shard-scaling arms, timed interleaved (every arm once per round, so
    # machine drift is shared) with best-of-SHARD_REPEATS per arm.  Round
    # zero doubles as the warm-up and the invariance check: every arm
    # must produce the bit-identical outcome aggregate.
    arm_results: dict[int, EngineResult] = {}
    arm_best: dict[int, float] = {arm: float("inf") for arm in SHARD_ARMS}
    for _ in range(SHARD_REPEATS):
        for arm in SHARD_ARMS:
            t0 = time.perf_counter()
            result = run_sharded(stream, arm)
            arm_best[arm] = min(arm_best[arm], time.perf_counter() - t0)
            arm_results.setdefault(arm, result)
    baseline = arm_results[1]
    for arm, result in arm_results.items():  # sharding: pure throughput lever
        assert result.total_completed == baseline.total_completed, arm
        assert result.total_cost == pytest.approx(baseline.total_cost), arm
    arm_cps = {
        arm: SHARD_CAMPAIGNS / seconds for arm, seconds in arm_best.items()
    }
    slowest = min(arm_cps, key=arm_cps.get)
    assert arm_cps[slowest] >= REQUIRED_MIN_CPS, (
        f"{slowest}-shard arm delivered {arm_cps[slowest]:.1f} campaigns/sec "
        f"(ratcheted floor: {REQUIRED_MIN_CPS})"
    )

    lines = [
        f"fast path: {len(problems)} distinct deadline instances "
        "(4 shapes x 16 forecast levels)",
        "",
        f"scalar : {scalar_seconds:7.3f}s "
        f"({len(problems) / scalar_seconds:7.1f} solves/sec)",
        f"batch  : {batch_seconds:7.3f}s "
        f"({len(problems) / batch_seconds:7.1f} solves/sec)",
        f"speedup: {speedup:7.1f}x policy-solve throughput (bar: 3x)",
        "",
        f"shard scaling ({SHARD_CAMPAIGNS} campaigns, interleaved "
        f"best-of-{SHARD_REPEATS}, identical outcomes per arm):",
    ]
    lines += [
        f"  {n} shard{'s' if n > 1 else ' '}: {arm_best[n]:6.2f}s  "
        f"({arm_cps[n]:6.1f} campaigns/sec)"
        for n in SHARD_ARMS
    ]

    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record["workload"] = {
            "solve_instances": len(problems),
            "shapes": [list(s) for s in SOLVE_SHAPES],
            "sharded_campaigns": SHARD_CAMPAIGNS,
            "stream_intervals": NUM_INTERVALS,
            "seed": SEED,
        }
        record["policy_solve"] = {
            "scalar_seconds": round(scalar_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "scalar_solves_per_second": round(len(problems) / scalar_seconds, 1),
            "batch_solves_per_second": round(len(problems) / batch_seconds, 1),
            "speedup": round(speedup, 2),
            "required_speedup": 3.0,
        }
        record["shard_scaling"] = {
            "campaigns": SHARD_CAMPAIGNS,
            "repeats": SHARD_REPEATS,
            "interleaved": True,
            "required_min_campaigns_per_second": REQUIRED_MIN_CPS,
            "arms": [
                {
                    "shards": n,
                    "seconds": round(arm_best[n], 3),
                    "campaigns_per_second": round(arm_cps[n], 1),
                    "completed": arm_results[n].total_completed,
                }
                for n in SHARD_ARMS
            ],
        }
        record["cache"] = {
            "hit_rate": round(baseline.cache_stats.hit_rate, 4),
            "misses": baseline.cache_stats.misses,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("engine_fastpath", "\n".join(lines))
