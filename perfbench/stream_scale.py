"""Workload ``stream-scale``: bookkeeping-bound streamed scenario runs.

25,000 tiny campaigns per round (the ``bench_scale.py`` shapes, no adaptive
campaigns, ``"stationary"`` planning) stream lazily from a
:class:`~repro.engine.source.StreamedWorkload` through a
:class:`~repro.scenario.driver.ScenarioDriver` with a mid-run demand
shock, an aggregate-only outcome sink and ``Telemetry(record_campaigns=
False)``.  There are no re-solves and the policy cache collapses the
admissions to a handful of solves, so source pulls, admission and
planning, retire/fold and telemetry dominate: a solver change should
leave this workload unchanged.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignTemplate,
    MarketplaceEngine,
    StreamedWorkload,
    Telemetry,
)
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import DemandShock, Scenario, ScenarioDriver
from repro.sim.stream import SharedArrivalStream
from pacing import Pacer
from shared import Round, check

NAME = "stream-scale"
DEFAULT_SEED = 11

SIZES = {
    "full": {"campaigns": 25_000, "per_wave": 250},
    "tiny": {"campaigns": 2_000, "per_wave": 100},
}
TEMPLATES = (
    CampaignTemplate("sc-dl", DEADLINE, num_tasks=6, horizon_intervals=5,
                     max_price=12, penalty_per_task=20.0),
    CampaignTemplate("sc-bg", BUDGET, num_tasks=8, horizon_intervals=6,
                     max_price=10, per_task_budget=6.0),
)


def make_input(seed: int, size: str):
    """The lazy campaign source and the scenario of one round."""
    n = SIZES[size]["campaigns"]
    per_wave = SIZES[size]["per_wave"]
    intervals = -(-n // per_wave) + 8
    source = StreamedWorkload(
        n,
        intervals,
        seed=seed,
        templates=TEMPLATES,
        budget_fraction=0.25,
        adaptive_fraction=0.0,
        campaigns_per_wave=per_wave,
        id_prefix="sc",
    )
    scenario = Scenario(
        name=NAME,
        seed=seed,
        description="streamed tiny campaigns under a mid-run demand shock",
        events=(
            DemandShock(start=intervals // 3, stop=intervals // 2, factor=1.5),
        ),
    )
    return source, scenario, intervals


def run(inputs, seed: int, workdir, tracer=None) -> Round:
    """Construct and start the scenario, then step it to exhaustion."""
    source, scenario, intervals = inputs
    started = time.perf_counter()
    engine = MarketplaceEngine(
        SharedArrivalStream(np.full(intervals, 400.0)),
        paper_acceptance_model(),
        planning="stationary",
    )
    engine.submit_source(source)
    driver = ScenarioDriver(
        engine,
        scenario,
        telemetry=Telemetry(record_campaigns=False),
        keep_outcomes=False,
    )
    core = driver.start()
    setup = time.perf_counter() - started
    if tracer is not None:
        tracer.attach(core)
        tracer.begin()
    ticks = []
    pacer = Pacer(enabled=tracer is None)
    pacer.start()
    started = time.perf_counter()
    while not driver.done:
        tick_started = time.perf_counter()
        driver.step()
        ticks.append(time.perf_counter() - tick_started)
        pacer.boundary()
    wall = time.perf_counter() - started - pacer.overhead_s
    if tracer is not None:
        tracer.end()
    result = core.result()
    core.close()
    check(
        result.num_campaigns == len(source),
        f"{result.num_campaigns} campaigns retired of {len(source)} streamed",
    )
    return Round(
        seed=seed,
        setup_s=setup,
        wall_s=wall,
        retired=result.num_campaigns,
        attempted=len(source),
        failed=len(source) - result.num_campaigns,
        fingerprint=result.checksum,
        tick_s=ticks,
        span_s=pacer.spans,
        probe_s=pacer.probes,
        # Each submission is a request, answered at its retirement.
        requests=len(source),
        layer={
            "cache_hits": result.cache_stats.hits,
            "cache_misses": result.cache_stats.misses,
        },
    )
