"""Multi-campaign marketplace engine.

The paper prices one batch at a time; a deployed marketplace runs *many*
requesters' campaigns concurrently against one worker stream.  This
subpackage is that serving layer:

* :mod:`repro.engine.campaign` — campaign submissions
  (:class:`CampaignSpec`) and retired-campaign accounting
  (:class:`CampaignOutcome`).
* :mod:`repro.engine.cache` — the :class:`PolicyCache` memoizing solved
  policies behind canonical problem signatures, so near-identical
  campaigns don't re-run the DP.
* :mod:`repro.engine.routing` — pluggable splits of the shared worker
  stream across live campaigns (:class:`LogitRouter` generalizing Eq. 3 to
  multi-campaign choice; :class:`UniformRouter` as the attention-limited
  baseline).
* :mod:`repro.engine.planning` — the :class:`CampaignPlanner`: forecast
  slices, problem construction, and cache-mediated admission (scalar or batched through
  :mod:`repro.core.batch`).
* :mod:`repro.engine.clock` — the **one** engine clock
  (:class:`EngineCore`): the admission → pricing → routing → completion →
  retirement tick loop over one list of live campaigns, with explicit
  :meth:`~repro.engine.clock.EngineCore.tick` stepping.
* :mod:`repro.engine.engine` — :class:`MarketplaceEngine`, the session
  surface (submission, cancellation, mid-flight submission between
  ticks, ``start``/``run``), and its two arrival models
  (:data:`ARRIVAL_MODELS`): ``"pooled"``, where one generator draws
  realized arrivals and the router splits them across live campaigns,
  and ``"factored"``, where each campaign draws from its own Poisson
  stream ``lambda_t * p(c)`` under a private generator.  Only the draw
  differs between them.
* :mod:`repro.engine.checkpoint` — durable serving state:
  :func:`save_checkpoint` / :func:`restore_engine` snapshot a session
  mid-flight to a versioned JSON+npz bundle and resume it bit-identically
  (bundles can carry layered extras, e.g. the scenario driver's cursor).
* :mod:`repro.engine.telemetry` — per-tick serving series
  (:class:`Telemetry`): live campaigns, routed arrivals, cache hits,
  adaptive re-plans, cancellations; JSON-serializable and
  checkpoint-resumable.
* :mod:`repro.engine.workload` — synthetic heterogeneous-but-repetitive
  campaign workloads (:func:`generate_workload`); for *dynamic* workloads
  (churn, demand shocks, cancellations) see :mod:`repro.scenario`.
* :mod:`repro.engine.source` — lazy workloads (:class:`WorkloadSource`,
  :class:`StreamedWorkload`): specs materialize at their submit ticks
  instead of being pre-built, so the pending frontier stays O(live) at
  millions of campaigns.
* :mod:`repro.engine.outcomes` — the streaming outcome boundary
  (:class:`OutcomeSink`, :class:`OutcomeAggregate`): every retirement
  folds into O(1) aggregates plus a chained checksum, optionally spilling
  full-fidelity JSONL replayable via :func:`replay_outcomes`.

Quick use::

    from repro.engine import MarketplaceEngine, PolicyCache, generate_workload
    from repro.market import paper_acceptance_model
    from repro.sim import SharedArrivalStream

    stream = SharedArrivalStream.from_rate_function(rate, 48.0, 144)
    engine = MarketplaceEngine(stream, paper_acceptance_model(),
                               planning="stationary")
    engine.submit(generate_workload(60, stream.num_intervals, seed=7))
    result = engine.run(seed=7)
    print(result.summary())
"""

from repro.engine.cache import CacheStats, PolicyCache
from repro.engine.campaign import BUDGET, DEADLINE, CampaignOutcome, CampaignSpec
from repro.engine.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_extras,
    restore_engine,
    save_checkpoint,
)
from repro.engine.clock import EngineCore, TickReport
from repro.engine.engine import (
    ARRIVAL_MODELS,
    PLANNING_MODES,
    EngineResult,
    MarketplaceEngine,
)
from repro.engine.outcomes import (
    OutcomeAggregate,
    OutcomeSink,
    outcome_from_record,
    outcome_record,
    replay_outcomes,
)
from repro.engine.planning import CampaignPlanner
from repro.engine.source import (
    ListSource,
    StreamedWorkload,
    WorkloadSource,
    source_from_dict,
)
from repro.engine.routing import ArrivalRouter, LogitRouter, UniformRouter
from repro.engine.telemetry import CampaignRecord, Telemetry
from repro.engine.workload import (
    CampaignTemplate,
    DEFAULT_TEMPLATES,
    generate_workload,
)

__all__ = [
    "MarketplaceEngine",
    "ARRIVAL_MODELS",
    "CampaignPlanner",
    "EngineCore",
    "TickReport",
    "EngineResult",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "restore_engine",
    "load_extras",
    "Telemetry",
    "CampaignRecord",
    "CampaignSpec",
    "CampaignOutcome",
    "CampaignTemplate",
    "DEFAULT_TEMPLATES",
    "DEADLINE",
    "BUDGET",
    "PLANNING_MODES",
    "PolicyCache",
    "CacheStats",
    "ArrivalRouter",
    "LogitRouter",
    "UniformRouter",
    "generate_workload",
    "WorkloadSource",
    "ListSource",
    "StreamedWorkload",
    "source_from_dict",
    "OutcomeAggregate",
    "OutcomeSink",
    "outcome_record",
    "outcome_from_record",
    "replay_outcomes",
]
