"""Scenario stress drill: churn + demand shock + cancellation, end to end.

The engine examples so far run *static* workloads — every campaign known
up front.  This one runs the serving layer the way a real marketplace
gets hit:

1. build a two-day shared arrival stream and an engine whose campaigns
   each draw from their own worker stream (factored arrivals),
2. declare a scenario: campaigns churning in every 90 minutes, a 2.5x
   flash-crowd surge mid-run, and one requester cancelling mid-flight,
3. drive the engine tick-by-tick through the timeline, collecting
   per-tick telemetry,
4. demonstrate the determinism contract: checkpoint mid-scenario, resume
   from the bundle, and compare the stitched run's telemetry
   bit-for-bit with the uninterrupted one.

Run:  python examples/scenario_stress.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # allow running without an install step
    sys.path.insert(0, str(REPO_SRC))

from repro.engine import MarketplaceEngine, generate_workload  # noqa: E402
from repro.market.acceptance import paper_acceptance_model  # noqa: E402
from repro.market.tracker import SyntheticTrackerTrace  # noqa: E402
from repro.scenario import (  # noqa: E402
    CampaignChurn,
    Cancellation,
    DemandShock,
    Scenario,
    ScenarioDriver,
)
from repro.sim.stream import SharedArrivalStream  # noqa: E402

HORIZON_HOURS = 48.0
NUM_INTERVALS = 144  # 20-minute ticks
SEED = 7


def build_stream() -> SharedArrivalStream:
    """Two trace days of marketplace-wide arrivals, 20-minute intervals."""
    trace = SyntheticTrackerTrace()
    return SharedArrivalStream.from_rate_function(
        trace.rate_function(), HORIZON_HOURS, NUM_INTERVALS, start_hour=7 * 24.0
    )


def build_scenario() -> Scenario:
    """Churn every ~90 minutes, a flash crowd, one mid-flight cancellation."""
    churn = CampaignChurn(
        start=0, stop=120, every=5, per_wave=1, adaptive_fraction=0.4
    )
    base = Scenario(name="stress-demo", seed=SEED, events=(churn,))
    # Cancel the third churn campaign a third of the way into its horizon
    # (ids are deterministic, so the spec can name it directly).
    victim = base.compile(NUM_INTERVALS).submissions[2][1][0]
    return Scenario(
        name="stress-demo",
        seed=SEED,
        events=(
            churn,
            DemandShock(start=48, stop=66, factor=2.5),
            Cancellation(
                tick=victim.submit_interval + victim.horizon_intervals // 3,
                campaign_id=victim.campaign_id,
            ),
        ),
        description="churn + flash crowd + one requester cancelling",
    )


def build_driver() -> ScenarioDriver:
    """A fresh factored engine with the base workload, not yet started."""
    engine = MarketplaceEngine(
        build_stream(),
        paper_acceptance_model(),
        planning="stationary",
        arrivals="factored",
    )
    engine.submit(generate_workload(10, NUM_INTERVALS, seed=SEED))
    return ScenarioDriver(engine, build_scenario())


def main() -> None:
    """Run the drill and print the telemetry + determinism checks."""
    scenario = build_scenario()
    print(f"scenario '{scenario.name}': {len(scenario.events)} events")
    for event in scenario.events:
        print(f"  - {event}")

    driver = build_driver()
    driver.run()
    result = driver.core.result()
    print()
    print(result.summary())
    print(driver.telemetry.summary())

    # The per-tick series make the stress visible: peak load and the
    # shock window's arrival lift.
    series = driver.telemetry.series
    shock_arrivals = sum(
        a for a, f in zip(series["arrived"], series["rate_factor"]) if f > 1.0
    )
    print(f"shock window  : {shock_arrivals:,} arrivals at rate factor 2.5")

    print()
    print("determinism contract:")
    with tempfile.TemporaryDirectory() as tmp:
        interrupted = build_driver()
        interrupted.start()
        for _ in range(50):
            interrupted.step()
        interrupted.save(tmp)
        interrupted.engine.close()
        resumed = ScenarioDriver.resume(tmp)
        resumed.run()
        print(f"  checkpoint/resume match : {resumed.telemetry == driver.telemetry}")


if __name__ == "__main__":
    main()
