"""Tests for the marketplace engine clock, cache wiring, and re-planning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignSpec,
    MarketplaceEngine,
    PolicyCache,
    UniformRouter,
    generate_workload,
)
from repro.sim.stream import SharedArrivalStream


@pytest.fixture
def stream() -> SharedArrivalStream:
    """A busy 48-interval stream with a mild diurnal swing."""
    means = 900.0 + 500.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, 48))
    return SharedArrivalStream(means)


@pytest.fixture
def engine(stream, paper_acceptance) -> MarketplaceEngine:
    return MarketplaceEngine(stream, paper_acceptance)


def deadline_spec(**overrides) -> CampaignSpec:
    base = dict(
        campaign_id="dl-0",
        kind=DEADLINE,
        num_tasks=12,
        submit_interval=0,
        horizon_intervals=12,
        max_price=25,
        penalty_per_task=120.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def budget_spec(**overrides) -> CampaignSpec:
    base = dict(
        campaign_id="bg-0",
        kind=BUDGET,
        num_tasks=10,
        submit_interval=0,
        horizon_intervals=20,
        max_price=25,
        budget=140.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSubmission:
    def test_duplicate_ids_rejected(self, engine):
        engine.submit(deadline_spec())
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(deadline_spec())

    def test_campaign_beyond_stream_rejected(self, engine):
        with pytest.raises(ValueError, match="beyond"):
            engine.submit(deadline_spec(submit_interval=40, horizon_intervals=12))

    def test_unaffordable_budget_rejected_at_submission(self, engine):
        # 50 tasks cannot be paid from 1 cent at the cheapest viable price
        # (1 cent): refused here, not by the tick that would admit it.
        with pytest.raises(ValueError, match="cannot cover 50 tasks"):
            engine.submit(budget_spec(num_tasks=50, budget=1.0, max_price=10))
        # The rejected id is free again, and a budget exactly at the bound
        # is admitted.
        engine.submit(budget_spec(num_tasks=50, budget=50.0, max_price=10))
        assert engine.run(seed=1).num_campaigns == 1

    def test_budget_check_prices_the_cheapest_viable_grid_price(self, stream):
        # Workers refuse anything under 3 cents, so 10 tasks need 30.
        from repro.market.acceptance import EmpiricalAcceptance

        acceptance = EmpiricalAcceptance({1.0: 0.0, 2.0: 0.0, 3.0: 0.2, 25.0: 0.9})
        engine = MarketplaceEngine(stream, acceptance)
        with pytest.raises(ValueError, match="cheapest viable price 3.0"):
            engine.submit(budget_spec(budget=29.0))
        engine.submit(budget_spec(budget=30.0))
        with pytest.raises(ValueError, match="positive acceptance"):
            engine.submit(budget_spec(campaign_id="bg-1", max_price=2))
        assert engine.num_submitted == 1
        assert engine.planner.budget_shortfall(budget_spec(budget=30.0)) is None

    def test_invalid_planning_mode_rejected(self, stream, paper_acceptance):
        with pytest.raises(ValueError, match="planning"):
            MarketplaceEngine(stream, paper_acceptance, planning="psychic")

    def test_planning_means_shape_checked(self, stream, paper_acceptance):
        with pytest.raises(ValueError, match="planning_means"):
            MarketplaceEngine(
                stream, paper_acceptance, planning_means=np.ones(3)
            )


class TestSingleCampaign:
    def test_deadline_campaign_finishes_on_a_busy_market(self, engine):
        engine.submit(deadline_spec())
        result = engine.run(seed=1)
        (outcome,) = result.outcomes
        assert outcome.finished
        assert outcome.completed == 12
        assert outcome.total_cost > 0
        assert outcome.penalty == 0.0
        assert result.max_concurrent == 1

    def test_budget_campaign_stays_within_budget(self, engine):
        engine.submit(budget_spec())
        result = engine.run(seed=2)
        (outcome,) = result.outcomes
        assert outcome.within_budget
        assert outcome.total_cost <= 140.0 + 1e-9

    def test_two_price_budget_never_overspends(self, paper_acceptance):
        """Several completions in one tick must step the semi-static price
        sequence down per task, not all pay the posted top price —
        otherwise a two-price Algorithm 3 allocation busts its budget."""
        for seed in range(5):
            busy = MarketplaceEngine(
                SharedArrivalStream(np.full(24, 3000.0)), paper_acceptance
            )
            busy.submit(
                budget_spec(num_tasks=30, budget=285.0, horizon_intervals=24)
            )
            (outcome,) = busy.run(seed=seed).outcomes
            assert outcome.within_budget, f"seed {seed}: {outcome.total_cost}"
            assert outcome.total_cost <= 285.0 + 1e-9

    def test_unfinished_deadline_charges_penalty(self, paper_acceptance):
        # A near-dead marketplace: almost nobody arrives.
        quiet = MarketplaceEngine(
            SharedArrivalStream(np.full(6, 0.1)), paper_acceptance
        )
        quiet.submit(deadline_spec(horizon_intervals=6))
        (outcome,) = quiet.run(seed=3).outcomes
        assert not outcome.finished
        assert outcome.penalty == pytest.approx(120.0 * outcome.remaining)

    def test_early_stop_after_last_retirement(self, engine):
        engine.submit(deadline_spec(horizon_intervals=6))
        result = engine.run(seed=4)
        assert result.intervals_run <= 6

    def test_idle_gap_before_late_submission(self, engine):
        engine.submit(deadline_spec(submit_interval=30, horizon_intervals=6))
        result = engine.run(seed=5)
        assert result.intervals_run <= 6
        assert result.outcomes[0].finished


class TestPolicyCache:
    def test_identical_campaigns_solve_once(self, engine):
        engine.submit(
            [deadline_spec(campaign_id=f"dl-{i}") for i in range(5)]
        )
        result = engine.run(seed=6)
        stats = result.cache_stats
        assert stats.misses == 1
        assert stats.hits == 4
        assert sum(o.num_solves for o in result.outcomes) == 1
        hits = [o.cache_hit for o in result.outcomes]
        assert sum(hits) == 4

    def test_budget_allocations_cached_too(self, engine):
        engine.submit([budget_spec(campaign_id=f"bg-{i}") for i in range(3)])
        stats = engine.run(seed=7).cache_stats
        assert stats.misses == 1 and stats.hits == 2

    def test_stationary_planning_canonicalizes_submit_times(
        self, stream, paper_acceptance
    ):
        engine = MarketplaceEngine(stream, paper_acceptance, planning="stationary")
        engine.submit(
            [deadline_spec(campaign_id=f"dl-{i}", submit_interval=4 * i,
                           horizon_intervals=12) for i in range(4)]
        )
        stats = engine.run(seed=8).cache_stats
        assert stats.misses == 1 and stats.hits == 3

    def test_sliced_planning_distinguishes_submit_times(
        self, stream, paper_acceptance
    ):
        engine = MarketplaceEngine(stream, paper_acceptance, planning="sliced")
        engine.submit(
            [deadline_spec(campaign_id=f"dl-{i}", submit_interval=4 * i,
                           horizon_intervals=12) for i in range(4)]
        )
        stats = engine.run(seed=9).cache_stats
        assert stats.misses == 4

    def test_disabled_cache_solves_every_time(self, stream, paper_acceptance):
        engine = MarketplaceEngine(
            stream, paper_acceptance, cache=PolicyCache(max_entries=0)
        )
        engine.submit([deadline_spec(campaign_id=f"dl-{i}") for i in range(3)])
        result = engine.run(seed=10)
        assert result.cache_stats.hits == 0
        assert sum(o.num_solves for o in result.outcomes) == 3


class TestAdaptiveReplanning:
    def test_adaptive_campaign_resolves_midflight(self, stream, paper_acceptance):
        # Realized arrivals are half the planning forecast: the repricer
        # must notice and re-plan.
        engine = MarketplaceEngine(
            stream.scaled(0.5),
            paper_acceptance,
            planning_means=stream.arrival_means,
        )
        engine.submit(deadline_spec(adaptive=True, resolve_every=2))
        (outcome,) = engine.run(seed=11).outcomes
        assert outcome.num_solves >= 2
        assert not outcome.cache_hit

    def test_adaptive_outprices_static_in_a_drought(self, stream, paper_acceptance):
        """Under a 60% arrival shortfall the adaptive campaign finishes more."""

        def run(adaptive: bool) -> tuple[int, float]:
            engine = MarketplaceEngine(
                stream.scaled(0.4),
                paper_acceptance,
                planning_means=stream.arrival_means,
            )
            engine.submit(
                deadline_spec(
                    campaign_id="c", num_tasks=40, horizon_intervals=24,
                    adaptive=adaptive, resolve_every=1,
                )
            )
            (outcome,) = engine.run(seed=12).outcomes
            return outcome.completed, outcome.average_reward

        static_done, _ = run(adaptive=False)
        adaptive_done, adaptive_reward = run(adaptive=True)
        assert adaptive_done >= static_done
        assert adaptive_reward > 0


class TestMultiCampaignRuns:
    def test_smoke_50_concurrent_heterogeneous_campaigns(
        self, paper_acceptance
    ):
        """The acceptance-criterion run: >= 50 staggered heterogeneous
        campaigns, one shared stream, deterministic seed, policy cache
        demonstrably avoiding re-solves."""
        means = 1500.0 + 600.0 * np.sin(np.linspace(0.0, 6.0 * np.pi, 96))
        stream = SharedArrivalStream(means)
        engine = MarketplaceEngine(stream, paper_acceptance, planning="stationary")
        specs = generate_workload(55, stream.num_intervals, seed=13)
        engine.submit(specs)
        result = engine.run(seed=13)
        assert result.num_campaigns == 55
        kinds = {o.spec.kind for o in result.outcomes}
        sizes = {o.spec.num_tasks for o in result.outcomes}
        assert kinds == {DEADLINE, BUDGET} and len(sizes) >= 3
        assert result.max_concurrent >= 2
        assert result.total_completed > 0
        assert result.total_cost > 0
        assert result.completion_rate > 0.5
        assert result.cache_stats.hit_rate > 0
        assert result.cache_stats.hits + result.cache_stats.misses > 0
        assert result.campaigns_per_second > 0
        # Conservation: every submitted task is either completed or remaining.
        submitted = sum(s.num_tasks for s in specs)
        assert result.total_completed + result.total_remaining == submitted

    def test_deterministic_under_seed(self, paper_acceptance):
        def run() -> tuple:
            stream = SharedArrivalStream(np.full(48, 800.0))
            engine = MarketplaceEngine(stream, paper_acceptance)
            engine.submit(generate_workload(20, 48, seed=14))
            return engine.run(seed=14).outcomes

        assert run() == run()

    def test_uniform_router_contention_hurts_throughput(
        self, stream, paper_acceptance
    ):
        """Under attention-limited routing, 8 rivals finish less than solo."""

        def completions(num_campaigns: int) -> float:
            engine = MarketplaceEngine(
                stream, paper_acceptance, router=UniformRouter(paper_acceptance)
            )
            engine.submit(
                [
                    deadline_spec(campaign_id=f"dl-{i}", num_tasks=30,
                                  horizon_intervals=12)
                    for i in range(num_campaigns)
                ]
            )
            result = engine.run(seed=15)
            return result.total_completed / num_campaigns

        assert completions(8) < completions(1)

    def test_summary_mentions_key_metrics(self, engine):
        engine.submit([deadline_spec(campaign_id=f"dl-{i}") for i in range(3)])
        text = engine.run(seed=16).summary()
        assert "campaigns/sec" in text
        assert "hit rate" in text
        assert "completion" in text
