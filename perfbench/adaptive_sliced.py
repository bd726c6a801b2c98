"""Workload ``adaptive-sliced``: solve-bound marketplace runs.

A :class:`~repro.engine.engine.MarketplaceEngine` with ``"sliced"``
planning over the default campaign templates, submitted in 48 waves with
a quarter of the deadline campaigns re-planning adaptively, stepped tick
by tick to completion.  Suffix re-solves by ``AdaptiveRepricer`` and the
batched admission solves that sliced forecasts miss in the policy cache
do almost all of the work.

The campaign mix is drawn with exact counts (each template equally
often, exactly a quarter of each deadline template adaptive) instead of
``generate_workload``'s independent draws: a re-solving ``dl-large``
campaign costs many times a ``dl-urgent`` one, and runs of the benchmark
are compared across seeds.  Over seeds 101-108, the CPU time of a round
spread 34% (interquartile range over median) with
``generate_workload(360, 192, seed=seed, submit_waves=48)`` and 6% with
exact counts.  Waves are stratified too: each template's adaptive
campaigns join evenly spaced waves, so they meet the same phases of the
diurnal cycle whatever the seed, and its other campaigns join distinct
waves while there are waves left, so the set of distinct admission
problems barely moves.  The seed still decides the offset of the
adaptive waves, which other waves a template fills, the submission
order and the engine's realized arrivals.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import BUDGET, DEADLINE, DEFAULT_TEMPLATES, MarketplaceEngine
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream
from pacing import Pacer
from shared import Round, check

NAME = "adaptive-sliced"
DEFAULT_SEED = 21

SIZES = {
    "full": {"campaigns": 360, "intervals": 192, "waves": 48},
    "tiny": {"campaigns": 24, "intervals": 48, "waves": 8},
}
BUDGET_SHARE = 0.3
ADAPTIVE_SHARE = 0.25
#: Diurnal arrival cycle of the shared stream, in intervals.
CYCLE = 32


def make_input(seed: int, size: str):
    """The campaign specs and stream means of one round."""
    n = SIZES[size]["campaigns"]
    intervals = SIZES[size]["intervals"]
    waves = SIZES[size]["waves"]
    rng = np.random.default_rng(seed)
    deadline = [t for t in DEFAULT_TEMPLATES if t.kind == DEADLINE]
    budget = [t for t in DEFAULT_TEMPLATES if t.kind == BUDGET]
    n_budget = round(n * BUDGET_SHARE)
    shapes = [deadline[i % len(deadline)] for i in range(n - n_budget)]
    shapes += [budget[i % len(budget)] for i in range(n_budget)]
    adaptive = [False] * n
    wave_of = [0] * n
    for template in deadline + budget:
        members = [i for i, shape in enumerate(shapes) if shape is template]
        k = round(len(members) * ADAPTIVE_SHARE) if template.kind == DEADLINE else 0
        offset = int(rng.integers(waves))
        for j, i in enumerate(members[:k]):
            adaptive[i] = True
            wave_of[i] = (offset + j * waves // k) % waves
        spread = rng.permutation(waves)
        for j, i in enumerate(members[k:]):
            wave_of[i] = int(spread[j % waves])
    order = rng.permutation(n)
    specs = []
    for j, i in enumerate(order):
        template = shapes[i]
        latest = intervals - template.horizon_intervals
        specs.append(template.spec(
            campaign_id=f"{template.name}-{j:04d}",
            submit_interval=round(latest * wave_of[i] / max(waves - 1, 1)),
            adaptive=adaptive[i],
        ))
    means = 1500.0 + 600.0 * np.sin(2.0 * np.pi * np.arange(intervals) / CYCLE)
    return specs, means


def run(inputs, seed: int, workdir, tracer=None) -> Round:
    """Construct, start and tick one engine session to completion."""
    specs, means = inputs
    started = time.perf_counter()
    engine = MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(), planning="sliced"
    )
    engine.submit(specs)
    core = engine.start(seed=seed)
    setup = time.perf_counter() - started
    if tracer is not None:
        tracer.attach(core)
        tracer.begin()
    ticks = []
    pacer = Pacer(enabled=tracer is None)
    pacer.start()
    started = time.perf_counter()
    while not core.done:
        tick_started = time.perf_counter()
        core.tick()
        ticks.append(time.perf_counter() - tick_started)
        pacer.boundary()
    wall = time.perf_counter() - started - pacer.overhead_s
    if tracer is not None:
        tracer.end()
    result = core.result()
    engine.close()
    check(
        result.num_campaigns == len(specs),
        f"{result.num_campaigns} campaigns retired of {len(specs)} submitted",
    )
    return Round(
        seed=seed,
        setup_s=setup,
        wall_s=wall,
        retired=result.num_campaigns,
        attempted=len(specs),
        failed=len(specs) - result.num_campaigns,
        fingerprint=result.checksum,
        tick_s=ticks,
        span_s=pacer.spans,
        probe_s=pacer.probes,
        # Each submission is a request, answered at its retirement.
        requests=len(specs),
        layer={
            "cache_hits": result.cache_stats.hits,
            "cache_misses": result.cache_stats.misses,
        },
    )
