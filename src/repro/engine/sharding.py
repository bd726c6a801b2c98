"""Engine sharding: partition campaigns across parallel worker shards.

:class:`ShardedEngine` scales the marketplace engine across campaigns: the
submitted campaign set is partitioned over ``N`` worker shards by a stable
hash of the campaign id, and each tick's pricing/acceptance work is mapped
over the shards through a pluggable executor (serial loop, thread pool, or
any ``concurrent.futures.Executor``).  The clock itself is the shared
:class:`~repro.engine.clock.EngineCore`; this module only supplies the
*factored* arrival backend each session runs on, so the sharded engine
inherits tick stepping, mid-flight submission, and checkpoint/resume from
the same loop the unsharded engine uses.

**Deterministic stream splitting.**  The shared NHPP worker stream is
split by *Poisson factorization* rather than by handing realized workers
around: a worker arriving at rate ``lambda_t`` accepts campaign ``i`` with
the router's choice fraction ``q_i`` (see
:meth:`~repro.engine.routing.ArrivalRouter.fractions`), and thinning a
Poisson process by independent choices yields **independent** Poisson
processes — campaign ``i``'s acceptances are exactly
``Pois(lambda_t * q_i)``, drawn from a private per-campaign generator
keyed by ``(seed, campaign_id)``.  The walk-away remainder is drawn by the
coordinator, so the superposed arrival process is distributed exactly like
the unsharded stream.

Because every random decision is keyed by campaign (not by shard), the
realized run is **invariant to the shard count and executor**: the same
seed produces identical per-campaign outcomes for 1 shard, N shards,
serial, threaded, or process-parallel — sharding is purely a throughput
lever.  The choice fractions are computed once per tick from the
canonically-ordered global price vector, which is the only cross-shard
coordination each tick needs.  ``executor="process"``
(:mod:`repro.engine.procpool`) pushes the same factorization across
process boundaries: each worker process owns its shard's campaigns and
generators end-to-end and exchanges only per-tick aggregates with the
coordinator (the differential suite in
``tests/engine/test_executor_matrix.py`` asserts the invariance cell by
cell).
"""

from __future__ import annotations

import concurrent.futures
import time
import zlib
from typing import Callable, TypeVar

import numpy as np

from repro.core.batch import kernels
from repro.engine.cache import PolicyCache
from repro.engine.campaign import CampaignOutcome
from repro.engine.clock import ClockBackend, EngineBase, EngineResult
from repro.engine.planning import (
    CampaignPlanner,
    _LiveCampaign,
    resolve_planning_means,
)
from repro.engine.routing import ArrivalRouter, default_router
from repro.market.acceptance import AcceptanceModel
from repro.sim.policies import SemiStaticRuntime
from repro.sim.stream import SharedArrivalStream
from repro.util.rngstate import generator_from_state, generator_state

__all__ = ["ShardedEngine", "shard_of", "EXECUTORS"]

#: Built-in executor names (any ``concurrent.futures.Executor`` also works).
#: ``"process"`` runs each shard in its own worker process
#: (:mod:`repro.engine.procpool`) — same bit-identical results, true
#: multi-core parallelism.
EXECUTORS = ("serial", "thread", "process")

# Sub-stream tags keeping the coordinator's draws independent of every
# campaign's draws under one run seed.
_MARKET_STREAM = 0x5EED
_CAMPAIGN_STREAM = 0xCA4

_T = TypeVar("_T")


def shard_of(campaign_id: str, num_shards: int) -> int:
    """Stable shard assignment: CRC-32 of the campaign id, modulo shards.

    Uses CRC rather than :func:`hash` so the partition is reproducible
    across processes (Python string hashing is salted per process).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(campaign_id.encode()) % num_shards


def _campaign_rng(seed: int, campaign_id: str) -> np.random.Generator:
    """The private generator owning every random decision of one campaign."""
    return np.random.default_rng(
        [seed, _CAMPAIGN_STREAM, zlib.crc32(campaign_id.encode())]
    )


class _ShardCampaign:
    """One live campaign plus its private random stream (shard-internal)."""

    __slots__ = ("live", "rng")

    def __init__(self, live: _LiveCampaign, rng: np.random.Generator):
        self.live = live
        self.rng = rng


class _Shard:
    """One worker shard: the campaigns it owns and their per-tick work.

    All methods are called with the shard as the unit of parallelism —
    each touches only this shard's campaigns, so shards never contend.
    """

    __slots__ = ("index", "campaigns")

    def __init__(self, index: int):
        self.index = index
        self.campaigns: list[_ShardCampaign] = []

    def prices(self, t: int) -> list[tuple[str, float]]:
        """Posted ``(campaign_id, reward)`` pairs for interval ``t``."""
        return [
            (
                c.live.spec.campaign_id,
                c.live.runtime.price(c.live.remaining, t - c.live.spec.submit_interval),
            )
            for c in self.campaigns
        ]

    def step(
        self,
        t: int,
        mean_arrivals: float,
        fractions: dict[str, tuple[float, float]],
        prices: dict[str, float],
    ) -> tuple[int, int]:
        """Draw the tick's factored acceptances and apply completions.

        Each campaign draws ``Pois(lambda_t * accept_i)`` acceptances and
        an independent considered-but-declined remainder from its own
        generator — always the same two draws per live tick, so the
        consumed random stream is identical whatever the shard layout.
        The draws stay in Python (they walk each campaign's private
        generator); applying them — capping at open tasks and charging
        the posted reward — runs through the
        :func:`repro.core.batch.kernels.shard_tick` kernel, whose numpy
        and numba paths are exact-equality-tested.  Semi-static budget
        campaigns are charged through their per-completion price sequence
        (:meth:`_LiveCampaign.charge`) instead of the kernel's
        ``done * price`` product.
        Returns the shard's ``(considered, accepted)`` totals (accepted is
        counted before capping at the campaign's open tasks, matching
        :class:`~repro.engine.engine.MarketplaceEngine` accounting).
        """
        campaigns = self.campaigns
        n = len(campaigns)
        if n == 0:
            return 0, 0
        accepted = np.empty(n, dtype=np.int64)
        remaining = np.empty(n, dtype=np.int64)
        price_arr = np.empty(n)
        declined_total = 0
        for i, c in enumerate(campaigns):
            live = c.live
            cid = live.spec.campaign_id
            accept_q, consider_q = fractions[cid]
            accepted[i] = c.rng.poisson(mean_arrivals * accept_q)
            declined_total += int(
                c.rng.poisson(mean_arrivals * max(consider_q - accept_q, 0.0))
            )
            remaining[i] = live.remaining
            price_arr[i] = prices[cid]
        done, cost = kernels.shard_tick(accepted, remaining, price_arr)
        for i, c in enumerate(campaigns):
            d = int(done[i])
            if d:
                live = c.live
                if isinstance(live.runtime, SemiStaticRuntime):
                    live.total_cost += live.charge(d, float(price_arr[i]))
                else:
                    live.total_cost += float(cost[i])
                live.remaining -= d
                if live.remaining == 0:
                    live.finished_interval = t
        accepted_total = int(accepted.sum())
        return accepted_total + declined_total, accepted_total

    def observe(self, t: int, arrived: int) -> None:
        """Feed the tick's realized marketplace arrivals to adaptive campaigns."""
        for c in self.campaigns:
            observe = getattr(c.live.runtime, "observe", None)
            if observe is not None:
                observe(t - c.live.spec.submit_interval, arrived)

    def retire(self, t: int) -> list[CampaignOutcome]:
        """Drop finished/expired campaigns, returning their outcomes."""
        outcomes: list[CampaignOutcome] = []
        still_live: list[_ShardCampaign] = []
        for c in self.campaigns:
            live = c.live
            if live.remaining == 0 or t + 1 >= live.spec.end_interval:
                outcomes.append(live.outcome())
            else:
                still_live.append(c)
        self.campaigns = still_live
        return outcomes


class _FactoredBackend(ClockBackend):
    """Sharded mechanics: factored per-campaign draws mapped over shards.

    Owns the shard array, the coordinator's walk-away generator, and the
    (lazily created) thread pool for the ``"thread"`` executor — pool
    lifetime matches the serving session, so tick stepping does not spin
    a pool per interval.
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        router: ArrivalRouter,
        num_shards: int,
        seed: int,
        executor: str | concurrent.futures.Executor,
    ):
        self.stream = stream
        self.router = router
        self.num_shards = num_shards
        self.seed = seed
        self.executor = executor
        self.shards = [_Shard(i) for i in range(num_shards)]
        self.market_rng = np.random.default_rng([seed, _MARKET_STREAM])
        self._own_pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _pool(self) -> concurrent.futures.Executor | None:
        if isinstance(self.executor, concurrent.futures.Executor):
            return self.executor
        if self.executor == "thread" and self.num_shards > 1:
            if self._own_pool is None:
                self._own_pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.num_shards, thread_name_prefix="repro-shard"
                )
            return self._own_pool
        return None

    def _map(self, fn: Callable[[_Shard], _T]) -> list[_T]:
        pool = self._pool()
        if pool is None:
            return [fn(shard) for shard in self.shards]
        return list(pool.map(fn, self.shards))

    def _timed_map(self, fn: Callable[[_Shard], _T], phase: str) -> list[_T]:
        # Per-shard compute seconds, measured inside the worker (thread or
        # the serial loop) so the ops plane can tell a slow shard from a
        # slow coordinator.  Timing is observation-only: the mapped results
        # are returned unchanged, in shard order.
        phases = self.phases
        if phases is None:
            return self._map(fn)

        def timed(shard: _Shard) -> tuple[_T, float]:
            started = time.perf_counter()
            return fn(shard), time.perf_counter() - started

        results: list[_T] = []
        for shard_index, (result, elapsed) in enumerate(self._map(timed)):
            phases.record_shard(shard_index, phase, elapsed)
            results.append(result)
        return results

    def place(self, admitted) -> None:
        for live in admitted:
            cid = live.spec.campaign_id
            self.shards[shard_of(cid, self.num_shards)].campaigns.append(
                _ShardCampaign(live, _campaign_rng(self.seed, cid))
            )

    def num_live(self) -> int:
        return sum(len(s.campaigns) for s in self.shards)

    def step(self, t: int, rate_factor: float = 1.0) -> tuple[int, int, int]:
        phases = self.phases
        if phases is not None:
            phase_started = time.perf_counter()
        # Phase 1 — gather posted rewards, then compute the tick's choice
        # fractions over the *canonically ordered* global price vector so
        # float summation (and therefore every fraction) is independent of
        # the shard layout.
        posted = [
            pair
            for shard_prices in self._timed_map(lambda s: s.prices(t), "price")
            for pair in shard_prices
        ]
        posted.sort(key=lambda pair: pair[0])
        price_vec = np.array([price for _, price in posted])
        accept_q, consider_q = self.router.fractions(price_vec)
        fractions = {
            cid: (float(a), float(c))
            for (cid, _), a, c in zip(posted, accept_q, consider_q)
        }
        prices = {cid: float(price) for cid, price in posted}
        # Modulation scales the *rate*, so every factored sub-stream below
        # (per-campaign acceptances, coordinator walk-aways) sees the same
        # scalar and the split stays invariant to the shard layout.
        mean_t = self.stream.mean(t) * rate_factor
        if phases is not None:
            now = time.perf_counter()
            phases.record("price", now - phase_started)
            phase_started = now
        # The coordinator owns the walk-away remainder of the factored
        # arrival process (drawn every live tick so its stream position
        # never depends on the shard layout).
        walked = int(
            self.market_rng.poisson(
                mean_t * max(1.0 - float(consider_q.sum()), 0.0)
            )
        )
        # Phase 2 — factored acceptance draws + completions.
        step_totals = self._timed_map(
            lambda s: s.step(t, mean_t, fractions, prices), "split"
        )
        considered = sum(c for c, _ in step_totals)
        accepted = sum(a for _, a in step_totals)
        arrived = walked + considered
        if phases is not None:
            now = time.perf_counter()
            phases.record("split", now - phase_started)
            phase_started = now
        # Phase 3 — adaptive campaigns observe the realized marketplace
        # arrivals (walk-aways included).
        self._timed_map(lambda s: s.observe(t, arrived), "observe")
        if phases is not None:
            phases.record("observe", time.perf_counter() - phase_started)
        return arrived, considered, accepted

    def retire(self, t: int) -> list[CampaignOutcome]:
        retired = [
            outcome
            for shard_outcomes in self._map(lambda s: s.retire(t))
            for outcome in shard_outcomes
        ]
        retired.sort(key=lambda o: o.spec.campaign_id)
        return retired

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        shard = self.shards[shard_of(campaign_id, self.num_shards)]
        for i, c in enumerate(shard.campaigns):
            if c.live.spec.campaign_id == campaign_id:
                del shard.campaigns[i]
                return c.live.outcome(cancelled=True)
        return None

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        return sorted(
            (
                c.live.spec.campaign_id,
                c.live.remaining,
                c.live.num_solves(),
                c.live.spec.adaptive,
            )
            for shard in self.shards
            for c in shard.campaigns
        )

    def close(self) -> None:
        if self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None

    def export_live(self) -> tuple[list[tuple[_LiveCampaign, dict | None]], dict]:
        entries = [
            (c.live, generator_state(c.rng))
            for shard in self.shards
            for c in shard.campaigns
        ]
        return entries, generator_state(self.market_rng)

    def restore_live(
        self, placed: list[tuple[_LiveCampaign, dict | None]], rng_state: dict
    ) -> None:
        for lc, state in placed:
            if state is None:
                raise ValueError(
                    f"sharded bundle lost the generator state of campaign "
                    f"{lc.spec.campaign_id!r}"
                )
            shard = self.shards[shard_of(lc.spec.campaign_id, self.num_shards)]
            shard.campaigns.append(
                _ShardCampaign(lc, generator_from_state(state))
            )
        self.market_rng = generator_from_state(rng_state)


class ShardedEngine(EngineBase):
    """Multi-shard marketplace engine: same semantics, parallel campaigns.

    Parameters
    ----------
    stream:
        The shared marketplace arrival stream.
    acceptance:
        The marketplace's ``p(c)`` model.
    num_shards:
        Worker shards to partition the campaign set over.
    router:
        Arrival-choice model supplying the per-tick fractions; defaults
        like :class:`~repro.engine.engine.MarketplaceEngine`.
    cache:
        Shared policy cache (admission runs on the coordinator, so the
        cache needs no locking).  Session-scoped, as in the unsharded
        engine.
    planning, planning_means, truncation_eps:
        Forwarded to the shared :class:`CampaignPlanner` — identical
        meaning to the unsharded engine.
    executor:
        ``"serial"``, ``"thread"``, ``"process"``, or any
        ``concurrent.futures.Executor`` instance (e.g. a pre-warmed
        thread pool).  The executor choice never changes results, only
        wall-clock.  ``"process"`` gives each shard its own persistent
        worker process (:mod:`repro.engine.procpool`) that owns the
        shard's campaigns, generators, and tick loop end-to-end and
        exchanges only per-tick aggregates — the executor that actually
        escapes the GIL.  ``concurrent.futures.ProcessPoolExecutor``
        *instances* remain unsupported (a stateless pool cannot own
        mutable shard state; use ``executor="process"`` instead).
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        acceptance: AcceptanceModel,
        num_shards: int = 2,
        router: ArrivalRouter | None = None,
        cache: PolicyCache | None = None,
        planning: str = "stationary",
        planning_means: np.ndarray | None = None,
        truncation_eps: float | None = 1e-9,
        executor: str | concurrent.futures.Executor = "thread",
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if isinstance(executor, str) and executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS} or an Executor instance, "
                f"got {executor!r}"
            )
        if isinstance(executor, concurrent.futures.ProcessPoolExecutor):
            raise ValueError(
                "process pools are not supported: shards mutate shared state"
                " (use executor='process' for the shard-owning worker "
                "processes instead)"
            )
        self.acceptance = acceptance
        self.num_shards = num_shards
        self.router = router if router is not None else default_router(acceptance)
        self.cache = cache if cache is not None else PolicyCache()
        self.executor = executor
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
    # The clock (shared EngineCore; this engine only supplies the backend)
    # ------------------------------------------------------------------
    def _make_backend(self, seed: int, rng: np.random.Generator | None) -> ClockBackend:
        """One factored backend per session; all generators derive from ``seed``."""
        if rng is not None:
            raise ValueError(
                "ShardedEngine derives per-campaign generators from the seed; "
                "pass seed= instead of a Generator"
            )
        if self.executor == "process":
            # Imported lazily: procpool pulls _Shard/_campaign_rng from
            # this module, so a top-level import would be circular.
            from repro.engine.procpool import _ProcessBackend

            return _ProcessBackend(
                self.stream, self.router, self.num_shards, seed
            )
        return _FactoredBackend(
            self.stream, self.router, self.num_shards, seed, self.executor
        )

    def run(
        self,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        *,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ) -> EngineResult:
        """Run the clock until every submitted campaign has retired.

        The result is bit-identical for any ``num_shards`` and executor:
        same seed, same per-campaign outcomes (see module docstring).
        The outcome sink lives in the coordinating process — shards hand
        back per-tick retirement batches, never whole-run lists — so
        ``keep_outcomes``/``outcomes_path`` stream exactly as they do
        unsharded.
        """
        return super().run(
            seed=seed,
            rng=rng,
            keep_outcomes=keep_outcomes,
            outcomes_path=outcomes_path,
        )
