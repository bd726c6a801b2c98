"""Declarative stress scenarios for the marketplace engine.

The engine's static workloads (:mod:`repro.engine.workload`) submit every
campaign up front against a fixed NHPP stream; this subpackage makes the
workload itself a *timeline*.  A :class:`Scenario` declares events —
campaign churn, demand shocks, day/night rate schedules, mid-flight
cancellations — as pure JSON-serializable data; a
:class:`ScenarioDriver` steps a marketplace engine through the compiled
timeline tick by tick, collecting per-tick
:class:`~repro.engine.telemetry.Telemetry`.

The subsystem's contract is **determinism**: a scenario with a fixed seed
produces bit-identical telemetry across checkpoint/resume boundaries
(see ``docs/scenarios.md``).

Quick use::

    from repro.engine import MarketplaceEngine
    from repro.scenario import ScenarioDriver, canned_scenario

    scenario = canned_scenario("black-friday", stream.num_intervals, seed=7)
    engine = MarketplaceEngine(stream, acceptance, planning="stationary",
                               arrivals="factored")
    driver = ScenarioDriver(engine, scenario)
    result = driver.run()
    print(result.summary())
    print(driver.telemetry.summary())

CLI: ``repro engine scenario run --canned black-friday`` (or
``--spec my_scenario.json``); ``--list-scenarios`` prints the canned
library.
"""

from repro.scenario.canned import CANNED_SCENARIOS, canned_scenario, list_scenarios
from repro.scenario.driver import ScenarioDriver
from repro.scenario.events import (
    EVENT_TYPES,
    CampaignChurn,
    Cancellation,
    DemandShock,
    RateSchedule,
    event_from_dict,
    event_to_dict,
)
from repro.scenario.spec import Scenario, Timeline, churn_specs

__all__ = [
    "Scenario",
    "Timeline",
    "ScenarioDriver",
    "CampaignChurn",
    "DemandShock",
    "RateSchedule",
    "Cancellation",
    "EVENT_TYPES",
    "event_from_dict",
    "event_to_dict",
    "churn_specs",
    "CANNED_SCENARIOS",
    "canned_scenario",
    "list_scenarios",
]
