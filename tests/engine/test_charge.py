"""Completion charging: the one loop that applies a tick's acceptances.

Contracts under test:

* ``_LiveCampaign.charge`` caps completions at the open tasks and pays
  the posted reward per completion, exactly what the vectorised
  ``min(accepted, remaining)`` / ``done * price`` reference computes.
* Budget campaigns step through their semi-static price sequence one
  completion at a time, so a tick with several completions pays each
  task its own price and spend never passes the sequence's total.
* ``finished_interval`` is set by the completion that closes the last
  open task, and by nothing else.
* Both arrival models charge through this loop: budget campaigns stay
  within budget and no campaign completes more tasks than were accepted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.budget.semi_static import SemiStaticStrategy
from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignSpec,
    MarketplaceEngine,
    generate_workload,
)
from repro.engine.planning import POSTED, SEMI_STATIC, _LiveCampaign
from repro.market.acceptance import paper_acceptance_model
from repro.sim.policies import FixedPriceRuntime, SemiStaticRuntime
from repro.sim.stream import SharedArrivalStream

ARRIVALS = ("pooled", "factored")


def deadline_campaign(num_tasks: int = 12, price: float = 10.0) -> _LiveCampaign:
    spec = CampaignSpec(
        campaign_id="dl", kind=DEADLINE, num_tasks=num_tasks,
        submit_interval=0, horizon_intervals=12,
    )
    return _LiveCampaign(spec, FixedPriceRuntime(price), POSTED, False, 1)


def budget_campaign(prices: tuple[float, ...]) -> _LiveCampaign:
    spec = CampaignSpec(
        campaign_id="bg", kind=BUDGET, num_tasks=len(prices),
        submit_interval=0, horizon_intervals=12, budget=float(sum(prices)),
    )
    runtime = SemiStaticRuntime(SemiStaticStrategy(prices))
    return _LiveCampaign(spec, runtime, SEMI_STATIC, False, 1)


class TestChargeMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_vectorised_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        accepted = rng.integers(0, 30, n)
        remaining = rng.integers(0, 30, n)
        prices = rng.uniform(0.5, 20.0, n)
        ref_done = np.minimum(accepted, remaining)
        ref_cost = ref_done * prices
        for i in range(n):
            campaign = deadline_campaign(num_tasks=30)
            campaign.remaining = int(remaining[i])
            campaign.charge(int(accepted[i]), float(prices[i]), 7)
            done = int(remaining[i]) - campaign.remaining
            assert done == ref_done[i]
            assert done <= remaining[i]
            assert campaign.total_cost == ref_cost[i]
            closed = remaining[i] > 0 and done == remaining[i]
            assert campaign.finished_interval == (7 if closed else None)


class TestCharge:
    def test_zero_acceptances_change_nothing(self):
        campaign = deadline_campaign()
        campaign.charge(0, 10.0, 3)
        assert campaign.remaining == 12
        assert campaign.total_cost == 0.0
        assert campaign.finished_interval is None

    def test_overflow_is_capped_and_finishes_the_campaign(self):
        campaign = deadline_campaign(num_tasks=5)
        campaign.charge(3, 10.0, 2)
        assert campaign.finished_interval is None
        campaign.charge(40, 12.5, 4)
        assert campaign.remaining == 0
        assert campaign.total_cost == 3 * 10.0 + 2 * 12.5
        assert campaign.finished_interval == 4
        assert campaign.outcome().completed == 5

    def test_budget_steps_the_sequence_per_completion(self):
        # Three completions in one tick pay 9 + 9 + 7, not 3 x the posted 9.
        campaign = budget_campaign((9.0, 9.0, 7.0, 7.0, 5.0))
        campaign.charge(3, 9.0, 0)
        assert campaign.total_cost == 25.0
        assert campaign.remaining == 2
        assert campaign.runtime.price(campaign.remaining, 1) == 7.0

    def test_budget_spend_stops_at_the_sequence_total(self):
        prices = (9.0, 9.0, 7.0, 7.0, 5.0)
        campaign = budget_campaign(prices)
        campaign.charge(3, 9.0, 0)
        campaign.charge(50, 7.0, 1)
        assert campaign.total_cost == sum(prices)
        assert campaign.finished_interval == 1
        assert campaign.outcome().within_budget


class TestBothArrivalModels:
    @pytest.mark.parametrize("arrivals", ARRIVALS)
    def test_budget_campaigns_stay_within_budget(self, arrivals):
        """A busy market delivers several completions per tick under both
        models; each must step the two-price sequence down per task."""
        for seed in range(3):
            engine = MarketplaceEngine(
                SharedArrivalStream(np.full(24, 3000.0)),
                paper_acceptance_model(),
                arrivals=arrivals,
            )
            engine.submit([
                CampaignSpec(
                    campaign_id=f"bg-{i}", kind=BUDGET, num_tasks=30,
                    submit_interval=0, horizon_intervals=24, max_price=25,
                    budget=285.0,
                )
                for i in range(3)
            ])
            for outcome in engine.run(seed=seed).outcomes:
                assert outcome.completed > 0
                assert outcome.within_budget, f"seed {seed}: {outcome.total_cost}"
                assert outcome.total_cost <= 285.0 + 1e-9

    @pytest.mark.parametrize("arrivals", ARRIVALS)
    def test_completions_never_exceed_acceptances(self, arrivals):
        stream = SharedArrivalStream(
            900.0 + 400.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, 48))
        )
        engine = MarketplaceEngine(
            stream, paper_acceptance_model(), planning="stationary",
            arrivals=arrivals,
        )
        engine.submit(generate_workload(24, 48, seed=13, adaptive_fraction=0.25))
        result = engine.run(seed=4)
        completed = 0
        for outcome in result.outcomes:
            assert outcome.completed + outcome.remaining == outcome.spec.num_tasks
            assert (outcome.finished_interval is not None) == (outcome.remaining == 0)
            completed += outcome.completed
        assert 0 < completed <= result.total_accepted
