"""Engine throughput benchmarks: the cache, the batch fast path, arrivals.

Three tracked surfaces:

* **Policy caching** — one standard multi-campaign workload through the
  engine with the cache enabled and disabled (what memoization buys).
* **Batch fast path** — 64 *distinct* deadline instances (so the cache
  cannot collapse them) solved one-by-one with the scalar
  :func:`~repro.core.deadline.vectorized.solve_deadline` versus one call
  to :func:`~repro.core.batch.deadline.solve_deadline_batch`; the
  acceptance bar is a >= 3x policy-solve throughput win for the batch
  kernel.
* **Factored arrivals** — a 120-campaign workload through the engine
  under ``arrivals="factored"`` (per-campaign Poisson draws), timed
  best-of-``FACTORED_REPEATS``; it must clear a ratcheted
  ``campaigns_per_second`` floor and reproduce a committed outcome
  checksum (the workload mixes budget, adaptive and static deadline
  campaigns, so the checksum pins factored budget charging too).

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks the factored-arrivals workload
and loosens the throughput floor (a contended single-core CI runner
resolves invariance, not throughput) but still checks the smaller
workload's checksum; the committed ``BENCH_engine.json`` is only
rewritten by full runs.

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
from repro.engine import MarketplaceEngine, PolicyCache, generate_workload
from repro.engine.engine import EngineResult
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream

#: CI smoke mode: tiny factored-arrivals workload, same code paths.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_CAMPAIGNS = 50
NUM_INTERVALS = 96
SEED = 21

FACTORED_CAMPAIGNS = 24 if SMOKE else 120
FACTORED_REPEATS = 2 if SMOKE else 3
#: Ratcheted floor: the factored arm's best-of campaigns/sec must clear it
#: in full mode (raise when the engine gets faster, never lower).  Smoke
#: mode only guards against pathological hangs.
REQUIRED_MIN_CPS = 0.5 if SMOKE else 300.0

#: The factored arm's outcome checksum and completed-task count, for the
#: full (120-campaign) and smoke (24-campaign) workloads.  Either moves
#: only if a retired byte does.
EXPECTED_FACTORED = (
    ("46f0da8623aad262fc52024eced364be290f712bcb01b443d5527987669ecff7", 990)
    if SMOKE
    else ("15543671547ac5fb08b466a2fd0a0e0aee7acdf90d98d75faf533d0dfca94384", 5046)
)

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


def run_factored(stream: SharedArrivalStream) -> EngineResult:
    """One run of the factored-arrivals workload."""
    engine = MarketplaceEngine(
        stream,
        paper_acceptance_model(),
        cache=PolicyCache(max_entries=256),
        planning="stationary",
        arrivals="factored",
    )
    engine.submit(
        generate_workload(FACTORED_CAMPAIGNS, NUM_INTERVALS, seed=SEED)
    )
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
    """Batch-vs-scalar solve and factored throughput -> BENCH_engine.json.

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

    # Factored-arrivals arm, best of FACTORED_REPEATS; the first run
    # doubles as the warm-up.
    factored_seconds = float("inf")
    for _ in range(FACTORED_REPEATS):
        t0 = time.perf_counter()
        factored = run_factored(stream)
        factored_seconds = min(factored_seconds, time.perf_counter() - t0)
    factored_cps = FACTORED_CAMPAIGNS / factored_seconds
    assert (factored.checksum, factored.total_completed) == EXPECTED_FACTORED, (
        f"factored arm checksum {factored.checksum} "
        f"({factored.total_completed} completed) != {EXPECTED_FACTORED}: "
        "the retired outcome bytes changed"
    )
    assert factored_cps >= REQUIRED_MIN_CPS, (
        f"factored arm delivered {factored_cps:.1f} campaigns/sec "
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
        f"factored arrivals ({FACTORED_CAMPAIGNS} campaigns, "
        f"best-of-{FACTORED_REPEATS}): {factored_seconds:6.2f}s  "
        f"({factored_cps:6.1f} campaigns/sec, "
        f"{factored.total_completed} tasks completed)",
    ]

    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record["workload"] = {
            "solve_instances": len(problems),
            "shapes": [list(s) for s in SOLVE_SHAPES],
            "factored_campaigns": FACTORED_CAMPAIGNS,
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
        record.pop("shard_scaling", None)
        record.pop("kernels", None)
        record["factored_arrivals"] = {
            "campaigns": FACTORED_CAMPAIGNS,
            "repeats": FACTORED_REPEATS,
            "required_min_campaigns_per_second": REQUIRED_MIN_CPS,
            "seconds": round(factored_seconds, 3),
            "campaigns_per_second": round(factored_cps, 1),
            "completed": factored.total_completed,
            "checksum": factored.checksum,
        }
        record["cache"] = {
            "hit_rate": round(factored.cache_stats.hit_rate, 4),
            "misses": factored.cache_stats.misses,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("engine_fastpath", "\n".join(lines))
