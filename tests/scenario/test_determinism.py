"""The scenario determinism contract (the PR's acceptance criterion).

A seeded scenario combining campaign churn, a demand shock, and a
mid-flight cancellation must produce **bit-identical telemetry** (and
outcomes):

* across shard counts — ShardedEngine with 1 vs 2, 3, 4 and 8 shards;
* across a checkpoint/resume boundary — stop mid-scenario, restore from
  the bundle, finish.

Telemetry equality is dict-level over every per-tick series and every
per-campaign record (floats included), so any drift in arrivals, routing,
cache behaviour, re-plan cadence, or cancellation accounting fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardedEngine, generate_workload
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import (
    CampaignChurn,
    Cancellation,
    DemandShock,
    Scenario,
    ScenarioDriver,
)
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 40
SEED = 23


def make_engine(num_shards: int) -> ShardedEngine:
    means = 1000.0 + 350.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, NUM_INTERVALS))
    return ShardedEngine(
        SharedArrivalStream(means),
        paper_acceptance_model(),
        num_shards=num_shards,
        planning="stationary",
    )


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    """Churn + demand shock + one cancellation of a live churn campaign."""
    churn = CampaignChurn(start=0, stop=30, every=6, per_wave=2,
                          adaptive_fraction=0.5)
    base = Scenario(name="contract", seed=SEED, events=(churn,))
    victim = base.compile(NUM_INTERVALS).submissions[1][1][0]
    return Scenario(
        name="contract",
        seed=SEED,
        events=(
            churn,
            DemandShock(start=12, stop=22, factor=2.5),
            Cancellation(
                tick=victim.submit_interval + 3,
                campaign_id=victim.campaign_id,
            ),
        ),
    )


def run_scenario(num_shards: int, scenario: Scenario):
    engine = make_engine(num_shards)
    engine.submit(generate_workload(6, NUM_INTERVALS, seed=4))
    driver = ScenarioDriver(engine, scenario)
    result = driver.run()
    return driver.telemetry.to_dict(), result


@pytest.fixture(scope="module")
def reference(scenario):
    """The 1-shard run every variant must match bit-for-bit."""
    return run_scenario(1, scenario)


def test_scenario_actually_stresses_the_engine(reference):
    """Guard the fixture: churn, shock, and cancellation all happened."""
    telemetry, result = reference
    assert sum(telemetry["series"]["cancelled"]) == 1
    assert any(o.cancelled for o in result.outcomes)
    assert max(telemetry["series"]["rate_factor"]) == 2.5
    assert result.num_campaigns > 6  # churn campaigns joined the base load
    assert any(r["adaptive"] for r in telemetry["campaigns"])


# The ``serial`` id component names the shard loop; it keeps the test ids.
# 2 and 4 are the benchmark's shard-scaling layouts; under 8 shards the
# base workload fills only three, and churn places later arrivals into
# shards that were empty until then.
@pytest.mark.parametrize(
    "num_shards", [pytest.param(n, id=f"serial-{n}") for n in (1, 2, 3, 4, 8)]
)
def test_bit_identical_across_shards_and_executors(
    num_shards, scenario, reference
):
    telemetry, result = run_scenario(num_shards, scenario)
    ref_telemetry, ref_result = reference
    assert telemetry == ref_telemetry
    assert [
        (o.spec.campaign_id, o.completed, o.remaining, o.total_cost,
         o.penalty, o.cancelled)
        for o in sorted(result.outcomes, key=lambda o: o.spec.campaign_id)
    ] == [
        (o.spec.campaign_id, o.completed, o.remaining, o.total_cost,
         o.penalty, o.cancelled)
        for o in sorted(ref_result.outcomes, key=lambda o: o.spec.campaign_id)
    ]


@pytest.mark.parametrize("stop_tick", [5, 14, 27])
def test_bit_identical_across_checkpoint_boundary(
    stop_tick, scenario, reference, tmp_path
):
    """Stop mid-scenario (before, inside, and after the shock window),
    resume from the bundle, finish: telemetry equals the uninterrupted run."""
    engine = make_engine(3)
    engine.submit(generate_workload(6, NUM_INTERVALS, seed=4))
    driver = ScenarioDriver(engine, scenario)
    driver.start()
    for _ in range(stop_tick):
        driver.step()
    driver.save(tmp_path / "bundle")
    driver.engine.close()

    resumed = ScenarioDriver.resume(tmp_path / "bundle")
    resumed.run()
    assert resumed.telemetry.to_dict() == reference[0]
