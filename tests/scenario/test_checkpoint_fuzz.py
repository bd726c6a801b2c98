"""Checkpoint fuzz: random stop-tick × scenario-event interleavings.

Extends the PR-3 checkpoint coverage to mid-scenario state: the stop tick
is drawn at random (seeded), so snapshots land before/during/after churn
waves, demand-shock windows, and cancellations — including chains of two
snapshot/restore hops — and every stitched run must be bit-identical to
the uninterrupted one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MarketplaceEngine
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import (
    CampaignChurn,
    Cancellation,
    DemandShock,
    RateSchedule,
    Scenario,
    ScenarioDriver,
)
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 36

#: (engine kind, fuzz seed) cases; the seed drives scenario shape and the
#: stop ticks, so each case is a different interleaving.
CASES = [
    ("marketplace", 101),
    ("marketplace", 202),
    ("factored", 303),
    ("factored", 404),
    ("factored", 505),
]


def make_engine(kind: str):
    means = 850.0 + 300.0 * np.sin(np.linspace(0.0, 3.0 * np.pi, NUM_INTERVALS))
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary",
        arrivals="factored" if kind == "factored" else "pooled",
    )


def random_scenario(rng: np.random.Generator) -> Scenario:
    """A randomized churn + shock + schedule + cancellation timeline."""
    seed = int(rng.integers(1_000_000))
    churn = CampaignChurn(
        start=int(rng.integers(0, 4)),
        stop=int(rng.integers(20, NUM_INTERVALS - 4)),
        every=int(rng.integers(3, 7)),
        per_wave=int(rng.integers(1, 3)),
        adaptive_fraction=float(rng.uniform(0.0, 0.8)),
    )
    shock_start = int(rng.integers(5, 20))
    events = [
        churn,
        DemandShock(shock_start, shock_start + int(rng.integers(3, 10)),
                    float(rng.uniform(0.3, 3.0))),
        RateSchedule(multipliers=(float(rng.uniform(0.8, 1.5)),
                                  float(rng.uniform(0.5, 1.0))),
                     every=int(rng.integers(4, 9))),
    ]
    base = Scenario(name="fuzz", seed=seed, events=tuple(events))
    timeline = base.compile(NUM_INTERVALS)
    # Cancel a random churn campaign somewhere inside its horizon.
    waves = timeline.submissions
    wave_tick, specs = waves[int(rng.integers(len(waves)))]
    victim = specs[int(rng.integers(len(specs)))]
    cancel_tick = min(
        wave_tick + int(rng.integers(1, victim.horizon_intervals + 2)),
        NUM_INTERVALS - 1,
    )
    events.append(Cancellation(tick=cancel_tick,
                               campaign_id=victim.campaign_id))
    return Scenario(name="fuzz", seed=seed, events=tuple(events))


@pytest.mark.parametrize("kind,fuzz_seed", CASES)
def test_random_interleavings_resume_bit_identically(kind, fuzz_seed, tmp_path):
    rng = np.random.default_rng(fuzz_seed)
    scenario = random_scenario(rng)

    reference = ScenarioDriver(make_engine(kind), scenario)
    reference.run()
    total_ticks = reference.telemetry.num_ticks
    assert total_ticks > 2

    # Two random snapshot/restore hops inside the run.
    stops = sorted(
        int(s) for s in rng.choice(np.arange(1, total_ticks), size=2,
                                   replace=False)
    )
    driver = ScenarioDriver(make_engine(kind), scenario)
    driver.start()
    ticks = 0
    for stop in stops:
        while ticks < stop:
            driver.step()
            ticks += 1
        driver.save(tmp_path / "bundle")
        driver.engine.close()
        driver = ScenarioDriver.resume(tmp_path / "bundle")
    while not driver.done:
        driver.step()
        ticks += 1

    assert driver.telemetry == reference.telemetry
    assert (
        driver.engine.core.result().total_cost
        == reference.engine.core.result().total_cost
    )
