"""The serving determinism contract (the PR's acceptance criterion).

A :class:`LoadGenerator` trace replayed through the :class:`Gateway`
must produce per-campaign outcomes **bit-identical** to the same
submissions and cancellations issued directly against the engine's
``submit()``/``cancel()`` API — under both arrival models — and the
full serving telemetry must be bit-identical across replays.  Scenarios lowered
into request traces must reproduce the :class:`ScenarioDriver`'s engine
telemetry exactly.
"""

from __future__ import annotations

import pytest

from repro.engine import generate_workload
from repro.scenario import ScenarioDriver, canned_scenario
from repro.serve import (
    Cancel,
    Gateway,
    LoadGenerator,
    RequestTrace,
    SubmitCampaign,
)
from tests.serve.conftest import NUM_INTERVALS, make_engine

TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=2.0, think=1,
).trace("open")
CLOSED_TRACE = LoadGenerator(
    NUM_INTERVALS, seed=4, clients=5, think=1, requests_per_client=10,
).trace("closed")
#: The open trace's shape with tenant-tagged clients: one fair queue
#: interleaves their submissions, and the engine re-sorts same-tick
#: submissions at admission, so outcomes still equal the direct run's.
TENANT_TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=2.0, think=1,
    tenants=("acme", "beta", "gamma"),
).trace("open")
SEED = 5


def run_served(trace: RequestTrace, arrivals: str) -> Gateway:
    gateway = Gateway(make_engine(arrivals))
    gateway.start(seed=SEED)
    tickets = gateway.replay(trace)
    assert all(t.done for t in tickets)  # no request lost
    return gateway


def run_direct(trace: RequestTrace, arrivals: str):
    """The offline equivalent: the same mutations via the engine API."""
    engine = make_engine(arrivals)
    core = engine.start(seed=SEED)
    requests = trace.requests
    i = 0

    def apply(timed) -> None:
        if isinstance(timed.request, SubmitCampaign):
            try:
                engine.submit([timed.request.spec])
            except ValueError:
                pass  # the gateway answers a rejection; offline just skips
        elif isinstance(timed.request, Cancel):
            try:
                engine.cancel(timed.request.campaign_id)
            except KeyError:
                pass  # unknown/already-retired: tolerated either way

    while True:
        while i < len(requests) and requests[i].tick <= core.clock:
            apply(requests[i])
            i += 1
        if core.done:
            if i >= len(requests):
                break
            # Wake the idle clock exactly as the gateway does: queue up
            # to and including the next submission early.
            j = i
            while j < len(requests) and not isinstance(
                requests[j].request, SubmitCampaign
            ):
                j += 1
            for k in range(i, min(j + 1, len(requests))):
                apply(requests[k])
            i = min(j + 1, len(requests))
            continue
        core.tick()
    return core.result()


def outcome_map(result):
    return {
        o.spec.campaign_id: (
            o.completed, o.remaining, o.total_cost, o.penalty,
            o.finished_interval, o.cancelled, o.cache_hit, o.num_solves,
        )
        for o in result.outcomes
    }


@pytest.mark.parametrize("trace", [TRACE, CLOSED_TRACE, TENANT_TRACE],
                         ids=["open", "closed", "tenants"])
@pytest.mark.parametrize("arrivals", ["pooled", "factored"])
def test_served_equals_direct_bit_for_bit(trace, arrivals):
    served = run_served(trace, arrivals)
    direct = run_direct(trace, arrivals)
    result = served.core.result()
    assert outcome_map(result) == outcome_map(direct)
    assert result.total_arrivals == direct.total_arrivals
    assert result.intervals_run == direct.intervals_run
    assert result.cache_stats == direct.cache_stats


def test_replay_is_reproducible():
    first = run_served(TRACE, "pooled")
    second = run_served(TRACE, "pooled")
    assert first.telemetry == second.telemetry
    assert outcome_map(first.core.result()) == outcome_map(second.core.result())


def test_backpressure_rejections_are_deterministic():
    """Same trace, same budget -> the very same requests bounce."""
    runs = []
    for _ in range(2):
        gateway = Gateway(make_engine(), max_live=4, max_queue=3)
        gateway.start(seed=SEED)
        tickets = gateway.replay(TRACE)
        runs.append(
            [
                (t.seq, t.response.status)
                for t in tickets
                if t.response.status == "rejected"
            ]
        )
    assert runs[0] == runs[1]
    assert runs[0], "the tight budget should have bounced something"


@pytest.mark.parametrize("name", ["flash-crowd", "black-friday"])
@pytest.mark.parametrize("arrivals", ["pooled", "factored"])
def test_scenario_through_gateway_matches_driver(name, arrivals):
    """A scenario served as a request trace == the ScenarioDriver run."""
    scenario = canned_scenario(name, NUM_INTERVALS, seed=13)

    driver_engine = make_engine(arrivals)
    driver_engine.submit(generate_workload(4, NUM_INTERVALS, seed=2))
    driver = ScenarioDriver(driver_engine, scenario)
    driver.run()

    served_engine = make_engine(arrivals)
    served_engine.submit(generate_workload(4, NUM_INTERVALS, seed=2))
    timeline = scenario.compile(NUM_INTERVALS)
    gateway = Gateway(served_engine)
    gateway.start(
        seed=scenario.seed, rate_multipliers=timeline.rate_multipliers
    )
    gateway.replay(RequestTrace.from_scenario(scenario, NUM_INTERVALS))

    assert gateway.telemetry.engine.to_dict() == driver.telemetry.to_dict()
