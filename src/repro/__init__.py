"""repro — reproduction of "Finish Them!: Pricing Algorithms for Human
Computation" (Gao & Parameswaran, VLDB 2014).

Quick tour
----------
Build a marketplace model, a deadline instance, and solve it::

    import numpy as np
    from repro import (
        DeadlineProblem, PenaltyScheme, paper_acceptance_model,
        solve_deadline, faridani_fixed_price, SyntheticTrackerTrace,
    )

    trace = SyntheticTrackerTrace()
    problem = DeadlineProblem.from_rate_function(
        num_tasks=200,
        rate=trace.rate_function(),
        horizon_hours=24.0,
        num_intervals=72,
        acceptance=paper_acceptance_model(),
        price_grid=np.arange(0, 31),
        penalty=PenaltyScheme(per_task=100.0),
    )
    policy = solve_deadline(problem)
    outcome = policy.evaluate()
    print(outcome.average_reward, outcome.expected_remaining)

Or serve *many* concurrent campaigns against one shared worker stream with
the marketplace engine (``repro engine run`` on the command line)::

    from repro import (
        MarketplaceEngine, SharedArrivalStream, generate_workload,
    )

    stream = SharedArrivalStream.from_rate_function(
        trace.rate_function(), horizon_hours=48.0, num_intervals=144,
    )
    engine = MarketplaceEngine(
        stream, paper_acceptance_model(), planning="stationary",
    )
    engine.submit(generate_workload(60, stream.num_intervals, seed=7))
    result = engine.run(seed=7)
    print(result.summary())          # completions, spend, cache hit rate

To give every campaign its own worker stream ``lambda_t * p(c)``, the
paper's per-campaign model, pick the factored arrival model
(``repro engine run --arrivals factored`` on the command line)::

    engine = MarketplaceEngine(
        stream, paper_acceptance_model(), planning="stationary",
        arrivals="factored",
    )

Subpackages
-----------
* :mod:`repro.market` — NHPP arrivals, discrete-choice acceptance, fitting.
* :mod:`repro.core` — the pricing algorithms (deadline MDP, budget LP/DP,
  baselines, Section 6 extensions) and the :mod:`repro.core.batch`
  vectorized fast path solving many instances per array pass.
* :mod:`repro.sim` — Monte-Carlo marketplace and live-experiment simulators.
* :mod:`repro.engine` — the multi-campaign marketplace engine: concurrent
  campaign lifecycles, shared-stream routing under a pooled or factored
  arrival model, policy caching, batched admission, re-planning,
  per-tick telemetry.
* :mod:`repro.scenario` — declarative stress scenarios (churn, demand
  shocks, cancellations) driven tick-by-tick with a determinism
  contract across checkpoints.
* :mod:`repro.serve` — the serving gateway: an async request frontier
  (submissions, quotes, cancellations, telemetry reads) over one engine
  session, with tick-boundary admission batching, backpressure, a seeded
  load generator, and the served-equals-offline determinism contract.
* :mod:`repro.experiments` — one module per paper table/figure.

See ``docs/architecture.md`` for the module map and dataflow,
``docs/paper_mapping.md`` for the paper-to-code index,
``docs/performance.md`` for benchmarks and the fast path,
``docs/scenarios.md`` for the scenario spec schema and telemetry, and
``docs/serving.md`` for the gateway's request semantics.
"""

from repro.core import (
    DeadlinePolicy,
    DeadlineProblem,
    ExpectedOutcome,
    FixedPriceDiagnostics,
    PenaltyScheme,
    StaticAllocation,
    calibrate_penalty,
    expected_worker_arrivals,
    faridani_fixed_price,
    floor_price,
    solve_budget_exact,
    solve_budget_hull,
    solve_budget_lp,
    solve_deadline,
    solve_deadline_efficient,
    solve_deadline_simple,
)
from repro.core.batch import BatchPolicySolver, solve_budget_batch, solve_deadline_batch
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.engine import (
    CampaignOutcome,
    CampaignSpec,
    EngineResult,
    LogitRouter,
    MarketplaceEngine,
    PolicyCache,
    UniformRouter,
    generate_workload,
)
from repro.market import (
    LogitAcceptance,
    NHPP,
    PiecewiseConstantRate,
    SyntheticTrackerTrace,
    paper_acceptance_model,
)
from repro.market.adaptive import AdaptiveRatePredictor
from repro.sim.stream import SharedArrivalStream
from repro.util.serialization import load_policy, save_policy

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "DeadlineProblem",
    "DeadlinePolicy",
    "PenaltyScheme",
    "ExpectedOutcome",
    "solve_deadline",
    "solve_deadline_simple",
    "solve_deadline_efficient",
    "solve_deadline_batch",
    "solve_budget_batch",
    "BatchPolicySolver",
    "calibrate_penalty",
    "floor_price",
    "faridani_fixed_price",
    "FixedPriceDiagnostics",
    "StaticAllocation",
    "solve_budget_hull",
    "solve_budget_exact",
    "solve_budget_lp",
    "expected_worker_arrivals",
    "LogitAcceptance",
    "paper_acceptance_model",
    "NHPP",
    "PiecewiseConstantRate",
    "SyntheticTrackerTrace",
    "AdaptiveRepricer",
    "AdaptiveRatePredictor",
    "MarketplaceEngine",
    "EngineResult",
    "CampaignSpec",
    "CampaignOutcome",
    "PolicyCache",
    "LogitRouter",
    "UniformRouter",
    "generate_workload",
    "SharedArrivalStream",
    "save_policy",
    "load_policy",
]
