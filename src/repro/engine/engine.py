"""The multi-campaign marketplace engine.

:class:`MarketplaceEngine` multiplexes many concurrent pricing campaigns —
deadline MDP and budget LP/DP, heterogeneous sizes and horizons, staggered
submissions — over **one** shared NHPP worker stream, instead of solving
and simulating each batch in isolation as the paper's experiments do.

The engine advances the discrete clock owned by
:class:`~repro.engine.clock.EngineCore`.  Each tick it (1) admits
newly-submitted campaigns, solving their policies through a
:class:`~repro.engine.cache.PolicyCache` so identical instances are solved
once — all of a tick's cache misses are drained in one stacked
array pass through the :mod:`repro.core.batch` kernels — (2) collects the
reward every live campaign posts for the interval, (3) realizes the
interval's marketplace arrivals from the shared
:class:`~repro.sim.stream.SharedArrivalStream` across campaigns via a
pluggable :class:`~repro.engine.routing.ArrivalRouter` and applies the
completions, (4) feeds realized arrivals to adaptive campaigns
(:class:`~repro.core.deadline.adaptive.AdaptiveRepricer`) so they re-plan
mid-flight, and (5) retires campaigns that finished or hit their horizon.

Step (3) runs under one of two *arrival models*, chosen with
``arrivals=``; they are two samplers of the same process and differ only
in how a tick's acceptances are drawn:

* ``"pooled"`` (the default): one session generator draws the
  interval's realized worker count, and the router splits those realized
  workers across the live campaigns in one multinomial draw.
* ``"factored"``: each campaign draws from its own worker stream
  ``lambda_t * p(c)``, the paper's per-campaign model.  A worker arriving
  at rate ``lambda_t`` accepts campaign ``i`` with the router's choice
  fraction ``q_i`` (:meth:`~repro.engine.routing.ArrivalRouter.fractions`),
  and thinning a Poisson process by independent choices yields
  independent Poisson processes, so campaign ``i``'s acceptances are
  exactly ``Pois(lambda_t * q_i)``, drawn from a private generator keyed
  by ``(seed, campaign_id)``.  The session generator draws the walk-away
  remainder, so the superposed arrivals are distributed like the pooled
  stream.

The two models consume different random streams, so the same seed gives
different (equally valid) runs under each; each is deterministic under
its seed.  Beyond the batch ``run()``, the engine can be stepped tick by
tick (``start()`` / ``tick()``), accepts mid-flight submissions and
cancellations between ticks, and checkpoints/resumes through
:mod:`repro.engine.checkpoint`.

Campaign *planning* can run in two modes: ``"sliced"`` plans each campaign
against its own time-aligned slice of the forecast (maximum fidelity), and
``"stationary"`` plans every campaign against a flat canonical forecast at
the stream's mean rate — the signatures of same-shaped campaigns then
coincide regardless of submission time, which is what lets the policy
cache absorb a whole day's traffic into a handful of solves (adaptive
campaigns recover the diurnal level online).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.cache import PolicyCache
from repro.engine.campaign import CampaignOutcome, CampaignSpec
from repro.engine.clock import EngineCore, EngineResult, TickReport
from repro.engine.outcomes import OutcomeSink
from repro.engine.planning import (
    PLANNING_MODES,
    CampaignPlanner,
    resolve_planning_means,
)
from repro.engine.routing import ArrivalRouter, default_router
from repro.engine.source import WorkloadSource
from repro.market.acceptance import AcceptanceModel
from repro.sim.stream import SharedArrivalStream

__all__ = [
    "ARRIVAL_MODELS",
    "MarketplaceEngine",
    "EngineResult",
    "PLANNING_MODES",
]

#: The arrival models :class:`MarketplaceEngine` can realize a tick with.
ARRIVAL_MODELS = ("pooled", "factored")

# Sub-stream tag keeping the market's walk-away draws independent of
# every campaign's factored draws under one run seed.
_MARKET_STREAM = 0x5EED


class MarketplaceEngine:
    """Discrete-time engine multiplexing campaigns over one worker stream.

    Each tick's policy-cache misses are solved in one stacked array pass
    (:mod:`repro.core.batch`).  Two ways to drive the clock:

    * **Batch**: ``engine.run(seed)`` — a fresh, self-contained serving
      session run to completion.  Reruns are independent replays: the
      policy cache is session-scoped (cleared at session start), so two
      identical back-to-back runs report identical results *including*
      cache and batch-solver stats.
    * **Stepping**: ``core = engine.start(seed)`` then ``core.tick()``
      (or ``engine.tick()``) — explicit intervals with mid-flight
      ``submit()`` and ``cancel()`` between ticks, checkpointable at any
      tick boundary via :mod:`repro.engine.checkpoint`.

    Parameters
    ----------
    stream:
        The shared marketplace arrival stream (true dynamics).
    acceptance:
        The marketplace's ``p(c)`` model, used for planning and (through
        the default router) for worker choice.
    router:
        Arrival-splitting model; defaults to :class:`LogitRouter` when
        ``acceptance`` is a :class:`LogitAcceptance`, else
        :class:`UniformRouter`.
    cache:
        Policy cache shared by all admissions; defaults to a fresh
        :class:`PolicyCache`.  Pass ``PolicyCache(max_entries=0)`` to
        disable memoization.  Memoization is scoped to one serving
        session: each ``run()``/``start()`` begins with a cleared cache,
        so reruns are independent replays.
    planning:
        ``"sliced"`` or ``"stationary"`` (see module docstring).
    planning_means:
        Per-interval forecast campaigns plan against; defaults to the
        stream's own means.  Supplying a different array models forecast
        error (e.g. a surge the planners did not expect).
    truncation_eps:
        Poisson-truncation threshold handed to every deadline instance.
    arrivals:
        ``"pooled"`` or ``"factored"`` (see module docstring).  Factored
        sessions derive every generator from the session seed, so
        ``start()``/``run()`` take ``seed=`` only, never ``rng=``.
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        acceptance: AcceptanceModel,
        router: ArrivalRouter | None = None,
        cache: PolicyCache | None = None,
        planning: str = "sliced",
        planning_means: np.ndarray | None = None,
        truncation_eps: float | None = 1e-9,
        arrivals: str = "pooled",
    ):
        if arrivals not in ARRIVAL_MODELS:
            raise ValueError(
                f"arrivals must be one of {ARRIVAL_MODELS}, got {arrivals!r}"
            )
        self.arrivals = arrivals
        self.stream = stream
        self.acceptance = acceptance
        self.router = router if router is not None else default_router(acceptance)
        self.cache = cache if cache is not None else PolicyCache()
        self.planner = CampaignPlanner(
            acceptance=acceptance,
            cache=self.cache,
            planning=planning,
            planning_means=resolve_planning_means(
                planning_means, stream.arrival_means
            ),
            truncation_eps=truncation_eps,
        )
        self._specs: list[CampaignSpec] = []
        self._known_ids: set[str] = set()
        self._source: WorkloadSource | None = None
        self._core: EngineCore | None = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, specs: CampaignSpec | Sequence[CampaignSpec]) -> None:
        """Queue campaigns for admission at their submit intervals.

        Legal both before a session starts and *between ticks* of an
        active one (mid-flight submission).  Every spec is checked before
        any id is registered, so a rejected batch leaves no trace: ids
        must be new (within the batch too), a mid-flight submit interval
        must not predate the session clock (the engine cannot admit into
        the past), and the planner must not refuse the campaign
        (:meth:`~repro.engine.planning.CampaignPlanner.refusal`: its
        shape within bounds, its horizon within the stream, its budget
        covering its tasks).  Raises :class:`ValueError` naming the first
        offending spec.
        """
        batch = [specs] if isinstance(specs, CampaignSpec) else list(specs)
        clock = 0 if self._core is None else self._core.clock
        new_ids: set[str] = set()
        for spec in batch:
            cid = spec.campaign_id
            if cid in self._known_ids or cid in new_ids:
                raise ValueError(f"duplicate campaign_id {cid!r}")
            if spec.submit_interval < clock:
                raise ValueError(
                    f"campaign {cid!r} submits at interval "
                    f"{spec.submit_interval}, but the engine clock is already "
                    f"at {clock}"
                )
            problem = self.planner.refusal(spec)
            if problem is not None:
                raise ValueError(problem)
            new_ids.add(cid)
        self._known_ids |= new_ids
        if self._core is not None:
            self._core.submit(batch)
        self._specs.extend(batch)

    def submit_source(self, source: WorkloadSource) -> None:
        """Attach a lazy workload source for the *next* serving session.

        The streaming alternative to :meth:`submit`: specs materialize
        only when the clock reaches their submit intervals, so memory
        stays O(live) for arbitrarily large workloads.  One source per
        engine, attached before :meth:`start`; its campaign ids must not
        collide with statically submitted ones (lazy streams cannot be
        validated against the id registry without materializing them —
        use a distinct ``id_prefix``).
        """
        if self._core is not None:
            raise RuntimeError(
                "attach the workload source before start(): the active "
                "session already fixed its admission stream"
            )
        if self._source is not None:
            raise RuntimeError("a workload source is already attached")
        self._source = source

    @property
    def source(self) -> WorkloadSource | None:
        """The attached lazy workload source, if any."""
        return self._source

    def is_known(self, campaign_id: str) -> bool:
        """Whether ``campaign_id`` was submitted through :meth:`submit`.

        The id registry holds in every sink mode; a pending campaign
        cancelled before admission leaves it, and ids a workload source
        streams are never in it.
        """
        return campaign_id in self._known_ids

    @property
    def num_submitted(self) -> int:
        """Campaigns queued so far (statically; a lazy source not included)."""
        return len(self._specs)

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        """Cancel one campaign of the active session (between ticks).

        See :meth:`EngineCore.cancel` for the live-vs-pending semantics.
        When a still-pending campaign is cancelled its spec is forgotten
        at the front-end too, so the id becomes reusable and checkpoint
        bundles stay consistent with the submission queue.
        """
        if self._core is None:
            raise RuntimeError(
                "no active serving session: call start(seed) before cancel()"
            )
        outcome = self._core.cancel(campaign_id)
        if outcome is None:
            self._specs = [
                s for s in self._specs if s.campaign_id != campaign_id
            ]
            self._known_ids.discard(campaign_id)
        return outcome

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        *,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ) -> EngineCore:
        """Begin a fresh serving session and return its stepping core.

        Any previous session is closed.  The policy cache and
        batch-solver counters are reset: memoization is scoped to one
        serving session (shared across all of its campaigns and ticks),
        which is what makes every session an independent, reproducible
        replay.

        ``rng`` replaces the pooled session generator (default
        ``np.random.default_rng(seed)``); factored sessions derive every
        generator from ``seed`` and reject it.
        ``keep_outcomes=False`` runs the session in streaming mode: no
        materialized outcome list, O(1) aggregates only.
        ``outcomes_path`` additionally spills every retirement as one
        JSON line (full-fidelity replay via
        :func:`repro.engine.outcomes.replay_outcomes`); the two compose
        freely.
        """
        self.close()
        self.planner.cache.clear()
        self.planner.batch_solver.reset()
        factored = self.arrivals == "factored"
        if not factored:
            rng = rng if rng is not None else np.random.default_rng(seed)
        elif rng is not None:
            raise ValueError(
                "factored arrivals derive per-campaign generators from the "
                "seed; pass seed= instead of a Generator"
            )
        else:
            rng = np.random.default_rng([seed, _MARKET_STREAM])
        self._core = EngineCore(
            self.stream,
            self.planner,
            self.router,
            self._specs,
            seed,
            rng,
            factored=factored,
            source=self._source,
            sink=OutcomeSink(keep=keep_outcomes, spill_path=outcomes_path),
        )
        return self._core

    @property
    def core(self) -> EngineCore | None:
        """The active serving session, or ``None`` outside one."""
        return self._core

    def tick(self) -> TickReport:
        """Advance the active session's clock by one interval."""
        if self._core is None:
            raise RuntimeError(
                "no active serving session: call start(seed) before tick()"
            )
        return self._core.tick()

    def run_to_completion(self) -> EngineResult:
        """Finish the active session (starting a fresh one if needed).

        Like :meth:`run`, the session is over once this returns: the
        engine holds no active core, so a later ``submit()`` queues for
        the *next* session instead of being validated against the
        finished session's clock.
        """
        core = self._core if self._core is not None else self.start()
        try:
            return core.run_to_completion()
        finally:
            core.close()
            self._core = None

    def run(
        self,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        *,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ) -> EngineResult:
        """Run a fresh session until every submitted campaign has retired."""
        self.start(
            seed=seed,
            rng=rng,
            keep_outcomes=keep_outcomes,
            outcomes_path=outcomes_path,
        )
        return self.run_to_completion()

    def close(self) -> None:
        """End any active session, releasing its outcome spill file."""
        if self._core is not None:
            self._core.close()
            self._core = None
