"""Tests for the runtime pricing-policy adapters.

The engine reads every live campaign's price through these each tick, so
the read paths are pinned value by value: a table read equals the solved
policy at the clamped ``(n, t)``, a semi-static read equals the sequence
position of the completed count, admission records each live
campaign's runtime kind in agreement with its runtime's class, and that
kind decides how the campaign is charged and counts its plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.budget.semi_static import SemiStaticStrategy
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.core.deadline.vectorized import solve_deadline
from repro.engine import BUDGET, DEADLINE, CampaignSpec, PolicyCache
from repro.engine.planning import (
    ADAPTIVE, POSTED, SEMI_STATIC, CampaignPlanner, _LiveCampaign,
)
from repro.market.acceptance import paper_acceptance_model
from repro.sim.policies import FixedPriceRuntime, SemiStaticRuntime, TablePolicyRuntime


class TestFixedPriceRuntime:
    def test_constant(self):
        runtime = FixedPriceRuntime(7.0)
        assert runtime.price(5, 0) == 7.0
        assert runtime.price(1, 99) == 7.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedPriceRuntime(-1.0)

    def test_repr(self):
        assert "7.0" in repr(FixedPriceRuntime(7.0))


class TestTablePolicyRuntime:
    def test_delegates_to_table(self, small_problem):
        policy = solve_deadline(small_problem)
        runtime = TablePolicyRuntime(policy)
        assert runtime.price(3, 1) == policy.price(3, 1)

    def test_clamps_out_of_range(self, small_problem):
        policy = solve_deadline(small_problem)
        runtime = TablePolicyRuntime(policy)
        last_t = small_problem.num_intervals - 1
        assert runtime.price(3, 10_000) == policy.price(3, last_t)
        assert runtime.price(10_000, 0) == policy.price(small_problem.num_tasks, 0)

    @pytest.mark.parametrize("problem", ["small_problem", "medium_problem"])
    def test_every_clamped_read_matches_the_policy(self, problem, request):
        problem = request.getfixturevalue(problem)
        policy = solve_deadline(problem)
        runtime = TablePolicyRuntime(policy)
        num_tasks, num_intervals = problem.num_tasks, problem.num_intervals
        for n in range(-1, num_tasks + 3):
            for t in range(num_intervals + 3):
                price = runtime.price(n, t)
                assert type(price) is float
                assert price == policy.price(
                    min(max(n, 1), num_tasks), min(t, num_intervals - 1)
                )

    def test_negative_interval_rejected(self, small_problem):
        runtime = TablePolicyRuntime(solve_deadline(small_problem))
        for remaining in (0, 3, 10_000):
            with pytest.raises(ValueError):
                runtime.price(remaining, -1)

    def test_repr(self, small_problem):
        assert "vectorized" in repr(TablePolicyRuntime(solve_deadline(small_problem)))


class TestSemiStaticRuntime:
    def test_price_by_completed_count(self):
        strategy = SemiStaticStrategy((9.0, 7.0, 5.0))
        runtime = SemiStaticRuntime(strategy)
        assert runtime.price(3, 0) == 9.0  # 0 completed
        assert runtime.price(2, 5) == 7.0  # 1 completed
        assert runtime.price(1, 9) == 5.0  # 2 completed

    def test_degenerate_remaining(self):
        strategy = SemiStaticStrategy((9.0, 5.0))
        runtime = SemiStaticRuntime(strategy)
        assert runtime.price(0, 0) == 5.0

    def test_every_remaining_count(self):
        prices = (9.0, 7.0, 5.0, 2.5)
        runtime = SemiStaticRuntime(SemiStaticStrategy(prices))
        num_tasks = len(prices)
        for remaining in (-3, -1, 0):
            assert runtime.price(remaining, 0) == prices[-1]
        for remaining in range(1, num_tasks + 1):
            assert runtime.price(remaining, 7) == prices[num_tasks - remaining]
        for remaining in (num_tasks + 1, num_tasks + 9, 10**6):
            assert runtime.price(remaining, 0) == prices[0]

    def test_repr(self):
        assert "2 prices" in repr(SemiStaticRuntime(SemiStaticStrategy((1.0, 2.0))))


def _spec(cid: str, kind: str = DEADLINE, adaptive: bool = False) -> CampaignSpec:
    return CampaignSpec(
        campaign_id=cid, kind=kind, num_tasks=6, submit_interval=2,
        horizon_intervals=5, max_price=12, penalty_per_task=20.0,
        budget=60.0 if kind == BUDGET else None, adaptive=adaptive,
    )


def _assert_kind_matches_class(live: _LiveCampaign) -> None:
    runtime = live.runtime
    assert (live.runtime_kind == ADAPTIVE) == isinstance(runtime, AdaptiveRepricer)
    assert (live.runtime_kind == SEMI_STATIC) == isinstance(
        runtime, SemiStaticRuntime
    )
    assert live.runtime_kind in (ADAPTIVE, SEMI_STATIC, POSTED)
    assert live.end_interval == live.spec.end_interval


class TestLiveCampaignKind:
    def test_the_kind_decides_charge_and_plan_count(self, small_problem):
        posted = _LiveCampaign(_spec("p"), FixedPriceRuntime(5.0), POSTED, False, 1)
        posted.charge(2, 5.0, 3)
        assert (posted.total_cost, posted.num_solves()) == (10.0, 1)

        strategy = SemiStaticStrategy((9.0, 7.0, 5.0, 5.0, 5.0, 5.0))
        staged = _LiveCampaign(
            _spec("s", BUDGET), SemiStaticRuntime(strategy), SEMI_STATIC, False, 1
        )
        # Each completion pays the sequence's next price, not the posted one.
        staged.charge(2, 100.0, 3)
        assert (staged.total_cost, staged.num_solves()) == (16.0, 1)

        repricer = AdaptiveRepricer(small_problem)
        adaptive = _LiveCampaign(
            _spec("a", adaptive=True), repricer, ADAPTIVE, False, 0
        )
        repricer.price(small_problem.num_tasks, 0)
        assert adaptive.num_solves() == repricer.num_solves == 1

        for live in (posted, staged, adaptive):
            _assert_kind_matches_class(live)

    def test_admission_passes_the_same_kind(self):
        planner = CampaignPlanner(
            paper_acceptance_model(), PolicyCache(), "stationary",
            np.full(16, 400.0),
        )
        specs = [
            _spec("d1"), _spec("b1", BUDGET), _spec("a1", adaptive=True),
            _spec("d2"), _spec("b2", BUDGET),
        ]
        live = planner.admit_many(specs)
        for campaign in live:
            _assert_kind_matches_class(campaign)
        assert [c.runtime_kind for c in live] == [
            POSTED, SEMI_STATIC, ADAPTIVE, POSTED, SEMI_STATIC,
        ]
        # One runtime per solved policy or allocation in a call.
        assert live[0].runtime is live[3].runtime
        assert live[1].runtime is live[4].runtime
