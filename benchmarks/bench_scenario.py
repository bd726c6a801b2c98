"""Scenario-engine throughput: ticks/sec under churn, shocks, cancellations.

Two tracked surfaces:

* **Driver overhead** — the same engine workload run (a) as a static
  batch through ``run()`` and (b) through a ScenarioDriver with telemetry
  recording every tick.  The scenario layer must cost little: the bar is
  that driven throughput stays within 3x of the raw clock (it is usually
  far closer; the bound is deliberately loose for 1-CPU CI boxes).
* **Stress throughput** — the canned ``black-friday`` scenario (churn +
  2.5x shock + cancellation) under both arrival models, reported as
  ticks/sec and campaigns/sec.

Smoke mode: set ``REPRO_BENCH_SMOKE=1`` (CI does) to shrink the horizon
and campaign counts so the whole file runs in seconds while still
executing every code path.

Run:  pytest benchmarks/bench_scenario.py -q
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.engine import ARRIVAL_MODELS, MarketplaceEngine, generate_workload
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import ScenarioDriver, canned_scenario
from repro.sim.stream import SharedArrivalStream

#: CI smoke mode: tiny horizon, same code paths.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_INTERVALS = 48 if SMOKE else 192
BASE_CAMPAIGNS = 8 if SMOKE else 40
SEED = 33


def make_stream() -> SharedArrivalStream:
    means = 1200.0 + 400.0 * np.sin(np.linspace(0.0, 6.0 * np.pi, NUM_INTERVALS))
    return SharedArrivalStream(means)


def make_engine(arrivals: str = "pooled"):
    return MarketplaceEngine(
        make_stream(), paper_acceptance_model(), planning="stationary",
        arrivals=arrivals,
    )


def run_driven(arrivals: str = "pooled"):
    """One black-friday scenario run; returns (driver, result, seconds)."""
    engine = make_engine(arrivals)
    engine.submit(generate_workload(BASE_CAMPAIGNS, NUM_INTERVALS, seed=SEED))
    scenario = canned_scenario("black-friday", NUM_INTERVALS, seed=SEED)
    driver = ScenarioDriver(engine, scenario)
    t0 = time.perf_counter()
    result = driver.run()
    return driver, result, time.perf_counter() - t0


def test_driver_overhead_is_bounded(emit):
    """Scenario stepping + telemetry must not dominate the tick loop."""
    static = make_engine()
    static.submit(generate_workload(BASE_CAMPAIGNS, NUM_INTERVALS, seed=SEED))
    t0 = time.perf_counter()
    static_result = static.run(seed=SEED)
    static_seconds = time.perf_counter() - t0

    driven, driven_result, driven_seconds = run_driven()
    # The driver adds telemetry + event dispatch on top of more traffic
    # (churn campaigns), so compare per-tick cost, loosely bounded.
    static_per_tick = static_seconds / max(static_result.intervals_run, 1)
    driven_per_tick = driven_seconds / max(driven.telemetry.num_ticks, 1)
    overhead = driven_per_tick / static_per_tick
    assert overhead < 3.0, (
        f"scenario driving cost {overhead:.2f}x per tick over the raw clock"
    )
    emit(
        "scenario_overhead",
        "\n".join([
            f"scenario driver overhead ({NUM_INTERVALS}-interval stream, "
            f"{BASE_CAMPAIGNS} base campaigns{', smoke' if SMOKE else ''})",
            "",
            f"raw clock    : {1e3 * static_per_tick:8.3f} ms/tick "
            f"({static_result.num_campaigns} campaigns)",
            f"driven+telem : {1e3 * driven_per_tick:8.3f} ms/tick "
            f"({driven_result.num_campaigns} campaigns incl. churn)",
            f"overhead     : {overhead:8.2f}x per tick (bar: < 3x)",
        ]),
    )


def test_scenario_stress_throughput(emit):
    """black-friday under each arrival model: throughput report."""
    lines = [
        f"scenario stress: canned 'black-friday' on {NUM_INTERVALS} intervals"
        f"{' (smoke)' if SMOKE else ''}",
        "",
    ]
    for arrivals in ARRIVAL_MODELS:
        driver, result, seconds = run_driven(arrivals)
        # Every stressor fired: the churn joined, the cancellation landed.
        assert result.num_campaigns > BASE_CAMPAIGNS
        assert driver.telemetry.total_cancelled >= 1
        ticks = driver.telemetry.num_ticks
        lines.append(
            f"{arrivals:<8} : {ticks / seconds:8.1f} ticks/sec, "
            f"{result.num_campaigns / seconds:7.1f} campaigns/sec "
            f"({result.num_campaigns} campaigns, "
            f"{driver.telemetry.total_cancelled} cancelled)"
        )
    emit("scenario_stress", "\n".join(lines))
