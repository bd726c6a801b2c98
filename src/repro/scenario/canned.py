"""Canned stress scenarios: ready-made timelines for any stream horizon.

Each canned scenario is a *factory* — ``canned_scenario(name,
num_intervals, seed)`` scales the event timeline to the stream you are
running (wave cadence, shock windows, and cancellation ticks are all
derived from ``num_intervals``), so the same name exercises a 24-tick
test stream and a 1440-tick production day alike.  ``repro engine
scenario run --canned NAME`` runs them; ``--list-scenarios`` prints this
registry.

The library (see ``docs/scenarios.md`` for which paper figures each one
stresses):

* ``steady-churn`` — continuous campaign arrival/retirement, stationary
  demand: exercises admission, the policy cache, and retirement under
  sustained concurrency.
* ``flash-crowd`` — a mid-run arrival surge static planners never saw:
  exercises rate modulation and adaptive re-planning.
* ``day-night`` — cyclic demand modulation over the whole horizon:
  exercises planning-vs-realized drift, tick after tick.
* ``black-friday`` — churn plus a demand shock plus a mid-flight
  cancellation: the everything-at-once drill the determinism contract is
  asserted on (bit-identical telemetry under both arrival models and
  across checkpoint/resume).
"""

from __future__ import annotations

from repro.scenario.events import (
    CampaignChurn,
    Cancellation,
    DemandShock,
    RateSchedule,
)
from repro.scenario.spec import Scenario, churn_specs

__all__ = ["CANNED_SCENARIOS", "canned_scenario", "list_scenarios"]


def _steady_churn(num_intervals: int, seed: int) -> Scenario:
    """Continuous arrivals: a new small wave every ~tenth of the horizon."""
    churn = CampaignChurn(
        start=0,
        stop=max(num_intervals - 4, 1),
        every=max(1, num_intervals // 10),
        per_wave=2,
        adaptive_fraction=0.25,
        prefix="steady",
    )
    return Scenario(
        name="steady-churn",
        seed=seed,
        events=(churn,),
        description="continuous campaign churn under stationary demand",
    )


def _flash_crowd(num_intervals: int, seed: int) -> Scenario:
    """Churn plus a 3x arrival surge static planners never forecast."""
    churn = CampaignChurn(
        start=0,
        stop=max(num_intervals - 4, 1),
        every=max(1, num_intervals // 8),
        per_wave=2,
        adaptive_fraction=0.5,
        prefix="flash",
    )
    surge_start = num_intervals // 3
    surge_stop = min(surge_start + max(num_intervals // 6, 1), num_intervals)
    return Scenario(
        name="flash-crowd",
        seed=seed,
        events=(churn, DemandShock(surge_start, surge_stop, 3.0)),
        description="mid-run 3x arrival surge the static planners never saw",
    )


def _day_night(num_intervals: int, seed: int) -> Scenario:
    """Cyclic bright/quiet demand with light ongoing churn."""
    churn = CampaignChurn(
        start=0,
        stop=max(num_intervals - 4, 1),
        every=max(1, num_intervals // 6),
        per_wave=1,
        adaptive_fraction=0.5,
        prefix="dn",
    )
    schedule = RateSchedule(
        multipliers=(1.4, 0.6), every=max(1, num_intervals // 8)
    )
    return Scenario(
        name="day-night",
        seed=seed,
        events=(churn, schedule),
        description="cyclic day/night rate modulation over the whole horizon",
    )


def _black_friday(num_intervals: int, seed: int) -> Scenario:
    """Churn + demand shock + one mid-flight cancellation, all at once."""
    churn = CampaignChurn(
        start=0,
        stop=max(num_intervals - 4, 1),
        every=max(1, num_intervals // 10),
        per_wave=2,
        adaptive_fraction=0.4,
        prefix="bf",
    )
    shock_start = num_intervals // 3
    shock_stop = min(shock_start + max(num_intervals // 6, 1), num_intervals)
    events: list = [churn, DemandShock(shock_start, shock_stop, 2.5)]
    # Cancel the first churn campaign halfway through its horizon.  The
    # churn event sits at index 0, so its draws are reproducible here.
    specs = churn_specs(churn, num_intervals, seed, 0)
    if specs:
        victim = specs[0]
        cancel_tick = min(
            victim.submit_interval + victim.horizon_intervals // 2,
            num_intervals - 1,
        )
        events.append(Cancellation(cancel_tick, victim.campaign_id))
    return Scenario(
        name="black-friday",
        seed=seed,
        events=tuple(events),
        description="churn + 2.5x demand shock + a mid-flight cancellation",
    )


#: name -> (description, factory) for every canned scenario.
CANNED_SCENARIOS = {
    "steady-churn": (
        "continuous campaign churn under stationary demand",
        _steady_churn,
    ),
    "flash-crowd": (
        "mid-run 3x arrival surge the static planners never saw",
        _flash_crowd,
    ),
    "day-night": (
        "cyclic day/night rate modulation over the whole horizon",
        _day_night,
    ),
    "black-friday": (
        "churn + 2.5x demand shock + a mid-flight cancellation",
        _black_friday,
    ),
}


def canned_scenario(name: str, num_intervals: int, seed: int = 0) -> Scenario:
    """Build one canned scenario scaled to a ``num_intervals`` stream."""
    if name not in CANNED_SCENARIOS:
        raise KeyError(
            f"unknown canned scenario {name!r} "
            f"(known: {sorted(CANNED_SCENARIOS)})"
        )
    if num_intervals < 8:
        raise ValueError(
            f"canned scenarios need a stream of >= 8 intervals, got {num_intervals}"
        )
    return CANNED_SCENARIOS[name][1](num_intervals, seed)


def list_scenarios() -> list[tuple[str, str]]:
    """``(name, description)`` for every canned scenario, sorted by name."""
    return [(name, desc) for name, (desc, _) in sorted(CANNED_SCENARIOS.items())]
