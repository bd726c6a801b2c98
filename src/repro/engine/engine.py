"""The multi-campaign marketplace engine.

:class:`MarketplaceEngine` multiplexes many concurrent pricing campaigns —
deadline MDP and budget LP/DP, heterogeneous sizes and horizons, staggered
submissions — over **one** shared NHPP worker stream, instead of solving
and simulating each batch in isolation as the paper's experiments do.

The engine advances the discrete clock owned by
:class:`~repro.engine.clock.EngineCore`.  Each tick it (1) admits
newly-submitted campaigns, solving their policies through a
:class:`~repro.engine.cache.PolicyCache` so identical instances are solved
once — by default all of a tick's cache misses are drained in one stacked
array pass through the :mod:`repro.core.batch` kernels — (2) collects the
reward every live campaign posts for the interval, (3) realizes the
interval's marketplace arrivals from the shared
:class:`~repro.sim.stream.SharedArrivalStream` and splits them across
campaigns via a pluggable :class:`~repro.engine.routing.ArrivalRouter`,
(4) feeds realized arrivals to adaptive campaigns
(:class:`~repro.core.deadline.adaptive.AdaptiveRepricer`) so they re-plan
mid-flight, and (5) retires campaigns that finished or hit their horizon.

What this module adds on top of the shared clock is the two *arrival
models* step (3) can run on, chosen with ``arrivals=``:

* ``"pooled"`` (the default): one run-level generator draws the
  interval's realized worker count, and the router splits those realized
  workers across the live campaigns in one multinomial draw.
* ``"factored"``: each campaign draws from its own worker stream
  ``lambda_t * p(c)``, the paper's per-campaign model.  A worker arriving
  at rate ``lambda_t`` accepts campaign ``i`` with the router's choice
  fraction ``q_i`` (:meth:`~repro.engine.routing.ArrivalRouter.fractions`),
  and thinning a Poisson process by independent choices yields
  independent Poisson processes, so campaign ``i``'s acceptances are
  exactly ``Pois(lambda_t * q_i)``, drawn from a private generator keyed
  by ``(seed, campaign_id)``.  A market generator draws the walk-away
  remainder, so the superposed arrivals are distributed like the pooled
  stream.

The two models consume different random streams, so the same seed gives
different (equally valid) runs under each; each is deterministic under
its seed.  Beyond the batch ``run()``, the engine can be stepped tick by
tick (``start()`` / ``tick()``), accepts mid-flight submissions between
ticks, and checkpoints/resumes through :mod:`repro.engine.checkpoint`.

Campaign *planning* can run in two modes: ``"sliced"`` plans each campaign
against its own time-aligned slice of the forecast (maximum fidelity), and
``"stationary"`` plans every campaign against a flat canonical forecast at
the stream's mean rate — the signatures of same-shaped campaigns then
coincide regardless of submission time, which is what lets the policy
cache absorb a whole day's traffic into a handful of solves (adaptive
campaigns recover the diurnal level online).
"""

from __future__ import annotations

import time
import zlib
from typing import Sequence

import numpy as np

from repro.core.batch import kernels
from repro.core.deadline.model import DeadlineProblem
from repro.engine.cache import PolicyCache
from repro.engine.campaign import CampaignOutcome, CampaignSpec
from repro.engine.clock import ClockBackend, EngineBase, EngineResult
from repro.engine.planning import (
    PLANNING_MODES,
    CampaignPlanner,
    _LiveCampaign,
    resolve_planning_means,
)
from repro.engine.routing import ArrivalRouter, default_router
from repro.market.acceptance import AcceptanceModel
from repro.sim.policies import SemiStaticRuntime
from repro.sim.stream import SharedArrivalStream
from repro.util.rngstate import generator_from_state, generator_state

__all__ = [
    "ARRIVAL_MODELS",
    "MarketplaceEngine",
    "EngineResult",
    "PLANNING_MODES",
]

#: The arrival models :class:`MarketplaceEngine` can realize a tick with.
ARRIVAL_MODELS = ("pooled", "factored")

# Sub-stream tags keeping the market's walk-away draws independent of
# every campaign's draws under one run seed.
_MARKET_STREAM = 0x5EED
_CAMPAIGN_STREAM = 0xCA4


class _PooledBackend(ClockBackend):
    """Pooled-arrival mechanics: one generator, router-split realized workers.

    Live campaigns are kept in admission order (retired ones removed),
    which fixes the order the price vector — and therefore the router's
    multinomial draw — is laid out in, making runs reproducible under a
    seed.
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        router: ArrivalRouter,
        rng: np.random.Generator,
    ):
        self.stream = stream
        self.router = router
        self.rng = rng
        self.live: list[_LiveCampaign] = []

    def place(self, admitted: Sequence[_LiveCampaign]) -> None:
        self.live.extend(admitted)

    def num_live(self) -> int:
        return len(self.live)

    def step(self, t: int, rate_factor: float = 1.0) -> tuple[int, int, int]:
        phases = self.phases
        if phases is not None:
            phase_started = time.perf_counter()
        live = self.live
        prices = np.array(
            [c.runtime.price(c.remaining, t - c.spec.submit_interval) for c in live]
        )
        if phases is not None:
            now = time.perf_counter()
            phases.record("price", now - phase_started)
            phase_started = now
        arrived = self.stream.sample(t, self.rng, scale=rate_factor)
        considered, accepted = self.router.split(arrived, prices, self.rng)
        accepted_total = 0
        for campaign, taken, price in zip(live, accepted, prices):
            accepted_total += int(taken)
            done = min(int(taken), campaign.remaining)
            if done == 0:
                continue
            campaign.total_cost += campaign.charge(done, float(price))
            campaign.remaining -= done
            if campaign.remaining == 0:
                campaign.finished_interval = t
        if phases is not None:
            now = time.perf_counter()
            phases.record("split", now - phase_started)
            phase_started = now
        # Adaptive campaigns observe the interval's realized marketplace
        # arrivals after pricing it (no peeking at the future).
        for campaign in live:
            observe = getattr(campaign.runtime, "observe", None)
            if observe is not None:
                observe(t - campaign.spec.submit_interval, arrived)
        if phases is not None:
            phases.record("observe", time.perf_counter() - phase_started)
        return arrived, int(considered.sum()), accepted_total

    def retire(self, t: int) -> list[CampaignOutcome]:
        outcomes: list[CampaignOutcome] = []
        still_live: list[_LiveCampaign] = []
        for campaign in self.live:
            if campaign.remaining == 0 or t + 1 >= campaign.spec.end_interval:
                outcomes.append(campaign.outcome())
            else:
                still_live.append(campaign)
        self.live = still_live
        return outcomes

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        for i, campaign in enumerate(self.live):
            if campaign.spec.campaign_id == campaign_id:
                del self.live[i]
                return campaign.outcome(cancelled=True)
        return None

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        return sorted(
            (c.spec.campaign_id, c.remaining, c.num_solves(), c.spec.adaptive)
            for c in self.live
        )

    def export_live(self) -> tuple[list[tuple[_LiveCampaign, dict | None]], dict]:
        return [(c, None) for c in self.live], generator_state(self.rng)

    def restore_live(
        self, placed: list[tuple[_LiveCampaign, dict | None]], rng_state: dict
    ) -> None:
        self.live = [lc for lc, _ in placed]
        self.rng = generator_from_state(rng_state)


def _campaign_rng(seed: int, campaign_id: str) -> np.random.Generator:
    """The private generator owning every random decision of one campaign."""
    return np.random.default_rng(
        [seed, _CAMPAIGN_STREAM, zlib.crc32(campaign_id.encode())]
    )


def _by_campaign_id(entry: tuple[_LiveCampaign, np.random.Generator]) -> str:
    return entry[0].spec.campaign_id


class _FactoredBackend(ClockBackend):
    """Factored-arrival mechanics: per-campaign Poisson draws.

    Live campaigns are one flat list of ``(campaign, private generator)``
    pairs kept sorted by campaign id, which fixes the order the router's
    fractions (and the float sums behind them) are computed in and the
    order retirements are reported in.  Every campaign makes the same two
    draws per live tick from its own generator, so no campaign's stream
    position depends on which others are live.
    """

    def __init__(self, stream: SharedArrivalStream, router: ArrivalRouter, seed: int):
        self.stream = stream
        self.router = router
        self.seed = seed
        self.live: list[tuple[_LiveCampaign, np.random.Generator]] = []
        self.market_rng = np.random.default_rng([seed, _MARKET_STREAM])

    def place(self, admitted: Sequence[_LiveCampaign]) -> None:
        self.live.extend(
            (c, _campaign_rng(self.seed, c.spec.campaign_id)) for c in admitted
        )
        self.live.sort(key=_by_campaign_id)

    def num_live(self) -> int:
        return len(self.live)

    def step(self, t: int, rate_factor: float = 1.0) -> tuple[int, int, int]:
        phases = self.phases
        if phases is not None:
            phase_started = time.perf_counter()
        live = self.live
        prices = np.array(
            [
                c.runtime.price(c.remaining, t - c.spec.submit_interval)
                for c, _ in live
            ]
        )
        accept_q, consider_q = self.router.fractions(prices)
        # Modulation scales the *rate*, so every sub-stream below
        # (per-campaign acceptances, market walk-aways) sees one scalar.
        mean_t = self.stream.mean(t) * rate_factor
        if phases is not None:
            now = time.perf_counter()
            phases.record("price", now - phase_started)
            phase_started = now
        walked = int(
            self.market_rng.poisson(
                mean_t * max(1.0 - float(consider_q.sum()), 0.0)
            )
        )
        # Each campaign draws its acceptances and an independent
        # considered-but-declined remainder; the draws walk private
        # generators in Python, and applying them (capping at open tasks,
        # charging the posted reward) runs through the exact-tested
        # kernels.apply_completions.
        n = len(live)
        accepted = np.empty(n, dtype=np.int64)
        remaining = np.empty(n, dtype=np.int64)
        declined = 0
        for i, (campaign, rng) in enumerate(live):
            accept, consider = float(accept_q[i]), float(consider_q[i])
            accepted[i] = rng.poisson(mean_t * accept)
            declined += int(rng.poisson(mean_t * max(consider - accept, 0.0)))
            remaining[i] = campaign.remaining
        done, cost = kernels.apply_completions(accepted, remaining, prices)
        for i, (campaign, _) in enumerate(live):
            d = int(done[i])
            if d == 0:
                continue
            # Semi-static budget campaigns pay through their per-completion
            # price sequence, not the kernel's done * price product.
            if isinstance(campaign.runtime, SemiStaticRuntime):
                campaign.total_cost += campaign.charge(d, float(prices[i]))
            else:
                campaign.total_cost += float(cost[i])
            campaign.remaining -= d
            if campaign.remaining == 0:
                campaign.finished_interval = t
        accepted_total = int(accepted.sum())
        considered = accepted_total + declined
        arrived = walked + considered
        if phases is not None:
            now = time.perf_counter()
            phases.record("split", now - phase_started)
            phase_started = now
        # Adaptive campaigns observe the realized marketplace arrivals
        # (walk-aways included).
        for campaign, _ in live:
            observe = getattr(campaign.runtime, "observe", None)
            if observe is not None:
                observe(t - campaign.spec.submit_interval, arrived)
        if phases is not None:
            phases.record("observe", time.perf_counter() - phase_started)
        return arrived, considered, accepted_total

    def retire(self, t: int) -> list[CampaignOutcome]:
        outcomes: list[CampaignOutcome] = []
        still_live: list[tuple[_LiveCampaign, np.random.Generator]] = []
        for entry in self.live:
            campaign = entry[0]
            if campaign.remaining == 0 or t + 1 >= campaign.spec.end_interval:
                outcomes.append(campaign.outcome())
            else:
                still_live.append(entry)
        self.live = still_live
        return outcomes

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        for i, (campaign, _) in enumerate(self.live):
            if campaign.spec.campaign_id == campaign_id:
                del self.live[i]
                return campaign.outcome(cancelled=True)
        return None

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        return [
            (c.spec.campaign_id, c.remaining, c.num_solves(), c.spec.adaptive)
            for c, _ in self.live
        ]

    def export_live(self) -> tuple[list[tuple[_LiveCampaign, dict | None]], dict]:
        entries = [(c, generator_state(rng)) for c, rng in self.live]
        return entries, generator_state(self.market_rng)

    def restore_live(
        self, placed: list[tuple[_LiveCampaign, dict | None]], rng_state: dict
    ) -> None:
        for lc, state in placed:
            if state is None:
                raise ValueError(
                    f"bundle lost the generator state of campaign "
                    f"{lc.spec.campaign_id!r}"
                )
        self.live = sorted(
            ((lc, generator_from_state(state)) for lc, state in placed),
            key=_by_campaign_id,
        )
        self.market_rng = generator_from_state(rng_state)


class MarketplaceEngine(EngineBase):
    """Discrete-time engine multiplexing campaigns over one worker stream.

    Each tick's policy-cache misses are solved in one stacked array pass
    (:mod:`repro.core.batch`).

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
        self.acceptance = acceptance
        self.router = router if router is not None else default_router(acceptance)
        self.cache = cache if cache is not None else PolicyCache()
        planner = CampaignPlanner(
            acceptance=acceptance,
            cache=self.cache,
            planning=planning,
            planning_means=resolve_planning_means(
                planning_means, stream.arrival_means
            ),
            truncation_eps=truncation_eps,
        )
        super().__init__(stream, planner)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def planning_slice(self, spec: CampaignSpec) -> np.ndarray:
        """The per-interval arrival forecast ``spec`` plans against."""
        return self.planner.planning_slice(spec)

    def planning_problem(self, spec: CampaignSpec) -> DeadlineProblem:
        """Build the deadline instance a campaign is solved against."""
        return self.planner.planning_problem(spec)

    # ------------------------------------------------------------------
    # The clock (shared EngineCore; this engine only supplies the backend)
    # ------------------------------------------------------------------
    def _make_backend(self, seed: int, rng: np.random.Generator | None) -> ClockBackend:
        """One backend per session, for the engine's arrival model."""
        if self.arrivals == "pooled":
            rng = rng if rng is not None else np.random.default_rng(seed)
            return _PooledBackend(self.stream, self.router, rng)
        if rng is not None:
            raise ValueError(
                "factored arrivals derive per-campaign generators from the "
                "seed; pass seed= instead of a Generator"
            )
        return _FactoredBackend(self.stream, self.router, seed)
