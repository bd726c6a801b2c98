"""Equivalence of the batched budget solver with scalar Algorithm 3."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BudgetRequest, solve_budget_batch
from repro.core.budget import static_lp
from repro.core.budget.static_lp import solve_budget_hull
from repro.market.acceptance import LogitAcceptance, paper_acceptance_model


def random_request(rng: np.random.Generator, acceptance) -> BudgetRequest:
    num_tasks = int(rng.integers(5, 300))
    max_price = int(rng.integers(10, 50))
    grid = np.arange(1.0, max_price + 1.0)
    # Budgets from barely-feasible to saturating the top price.
    per_task = float(rng.uniform(1.0, max_price))
    return BudgetRequest(
        num_tasks=num_tasks,
        budget=num_tasks * per_task,
        acceptance=acceptance,
        price_grid=grid,
    )


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_instances_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        acceptance = LogitAcceptance(
            s=float(rng.uniform(3.0, 20.0)),
            b=float(rng.uniform(-1.0, 2.0)),
            m=float(rng.uniform(100.0, 5000.0)),
        )
        requests = []
        for _ in range(10):
            request = random_request(rng, acceptance)
            try:  # keep only instances the scalar solver accepts
                solve_budget_hull(
                    request.num_tasks,
                    request.budget,
                    request.acceptance,
                    request.price_grid,
                )
            except ValueError:
                continue
            requests.append(request)
        assert requests, "workload generation produced no feasible instance"
        batch = solve_budget_batch(requests)
        for request, allocation in zip(requests, batch):
            scalar = solve_budget_hull(
                request.num_tasks,
                request.budget,
                request.acceptance,
                request.price_grid,
            )
            assert allocation == scalar  # dataclass equality: exact match

    @pytest.mark.parametrize("seed", range(4))
    def test_one_hull_serves_a_shared_marketplace(self, seed, monkeypatch):
        # Requests over one (acceptance, grid) build a single hull, and
        # every budget from barely feasible to saturating still gets the
        # scalar allocation from it.
        rng = np.random.default_rng(200 + seed)
        acceptance = LogitAcceptance(
            s=float(rng.uniform(2.0, 8.0)),
            b=float(rng.uniform(-1.0, 2.0)),
            m=float(rng.uniform(100.0, 1500.0)),
        )
        grid = np.arange(1.0, float(rng.integers(6, 20)))
        requests = []
        for per_task in rng.uniform(grid[0], grid[-1] + 2.0, 6):
            num_tasks = int(rng.integers(1, 40))
            requests.append(
                BudgetRequest(num_tasks, num_tasks * per_task, acceptance, grid)
            )
        builds = []
        hull = static_lp.lower_convex_hull
        monkeypatch.setattr(
            static_lp, "lower_convex_hull",
            lambda xs, ys: builds.append(1) or hull(xs, ys),
        )
        batch = solve_budget_batch(requests)
        assert len(builds) == 1
        for request, allocation in zip(requests, batch):
            assert allocation == solve_budget_hull(
                request.num_tasks, request.budget, acceptance, grid
            )
        assert any(len(allocation.prices) == 2 for allocation in batch)

    def test_mixed_marketplaces_in_one_batch(self):
        paper = paper_acceptance_model()
        other = LogitAcceptance(s=5.0, b=0.5, m=800.0)
        requests = [
            BudgetRequest(50, 600.0, paper, np.arange(1.0, 31.0)),
            BudgetRequest(80, 900.0, other, np.arange(1.0, 26.0)),
            BudgetRequest(20, 250.0, paper, np.arange(1.0, 31.0)),
        ]
        for request, allocation in zip(requests, solve_budget_batch(requests)):
            scalar = solve_budget_hull(
                request.num_tasks,
                request.budget,
                request.acceptance,
                request.price_grid,
            )
            assert allocation == scalar


class TestContract:
    def test_infeasible_budget_raises_like_scalar(self):
        request = BudgetRequest(
            100, 10.0, paper_acceptance_model(), np.arange(1.0, 31.0)
        )
        with pytest.raises(ValueError, match="cannot cover"):
            solve_budget_batch([request])

    def test_request_validation(self):
        acceptance = paper_acceptance_model()
        with pytest.raises(ValueError, match="num_tasks"):
            BudgetRequest(0, 10.0, acceptance, np.arange(1.0, 5.0))
        with pytest.raises(ValueError, match="budget"):
            BudgetRequest(5, -1.0, acceptance, np.arange(1.0, 5.0))
        with pytest.raises(ValueError, match="ascending"):
            BudgetRequest(5, 10.0, acceptance, np.array([3.0, 2.0]))
        for budget in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="budget must be finite"):
                BudgetRequest(5, budget, acceptance, np.arange(1.0, 5.0))

    def test_signature_matches_budget_signature(self):
        from repro.core.budget.static_lp import budget_signature

        request = BudgetRequest(
            40, 480.0, paper_acceptance_model(), np.arange(1.0, 31.0)
        )
        assert request.signature() == budget_signature(
            40, 480.0, request.acceptance, request.price_grid
        )

    def test_empty_batch(self):
        assert solve_budget_batch([]) == []
