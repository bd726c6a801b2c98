"""Tests for Algorithm 3 (convex hull), the LP cross-check, Theorems 7-8."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget.exact_dp import solve_budget_exact
from repro.core.budget.lp_solver import solve_budget_lp
from repro.core.budget.static_lp import solve_budget_hull
from repro.market.acceptance import paper_acceptance_model

GRID = np.arange(1.0, 31.0)


class TestSolveBudgetHull:
    def test_counts_and_budget(self, paper_acceptance):
        allocation = solve_budget_hull(200, 2500.0, paper_acceptance, GRID)
        assert allocation.num_tasks == 200
        assert allocation.total_cost <= 2500.0 + 1e-9
        assert len(allocation.prices) <= 2  # Theorem 7 structure

    def test_two_price_bracketing(self, paper_acceptance):
        allocation = solve_budget_hull(200, 2500.0, paper_acceptance, GRID)
        if len(allocation.prices) == 2:
            c1, c2 = allocation.prices
            assert c1 <= 2500.0 / 200 < c2

    def test_exact_multiple_single_price(self, paper_acceptance):
        # Budget exactly N * c for a hull price: one price suffices.
        allocation = solve_budget_hull(10, 10 * 30.0, paper_acceptance, GRID)
        assert allocation.total_cost <= 300.0 + 1e-9
        assert allocation.expected_arrivals <= 10 / paper_acceptance.probability(30.0) + 1e-6

    def test_price_sequence_descending(self, paper_acceptance):
        allocation = solve_budget_hull(20, 250.0, paper_acceptance, GRID)
        seq = allocation.price_sequence()
        assert len(seq) == 20
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_as_semi_static(self, paper_acceptance):
        allocation = solve_budget_hull(20, 250.0, paper_acceptance, GRID)
        strategy = allocation.as_semi_static()
        assert strategy.expected_arrivals(paper_acceptance) == pytest.approx(
            allocation.expected_arrivals
        )

    def test_infeasible_budget_rejected(self, paper_acceptance):
        with pytest.raises(ValueError, match="cannot cover"):
            solve_budget_hull(100, 50.0, paper_acceptance, GRID)

    def test_validation(self, paper_acceptance):
        with pytest.raises(ValueError):
            solve_budget_hull(0, 100.0, paper_acceptance, GRID)
        with pytest.raises(ValueError):
            solve_budget_hull(10, -1.0, paper_acceptance, GRID)
        with pytest.raises(ValueError):
            solve_budget_hull(10, 100.0, paper_acceptance, [2.0, 1.0])

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, paper_acceptance, budget):
        # NaN used to reach the hull search and raise IndexError.
        with pytest.raises(ValueError, match="budget must be finite"):
            solve_budget_hull(50, budget, paper_acceptance, GRID)


class TestAgainstLP:
    @given(st.floats(min_value=300.0, max_value=5000.0))
    @settings(max_examples=20, deadline=None)
    def test_hull_matches_lp_value(self, budget):
        # The hull construction solves the relaxed LP; its (integer-rounded)
        # objective must lie within one rounding step of the LP optimum.
        model = paper_acceptance_model()
        hull = solve_budget_hull(100, budget, model, GRID)
        lp = solve_budget_lp(100, budget, model, GRID)
        assert hull.expected_arrivals >= lp.expected_arrivals - 1e-6
        assert hull.expected_arrivals <= lp.expected_arrivals + hull.rounding_gap_bound + 1e-6

    def test_lp_support_on_hull(self, paper_acceptance):
        lp = solve_budget_lp(100, 1500.0, paper_acceptance, GRID)
        assert len(lp.prices) <= 2  # Theorem 7 via the LP solver
        assert sum(lp.weights) == pytest.approx(100.0, abs=1e-6)

    def test_lp_infeasible(self, paper_acceptance):
        with pytest.raises(ValueError):
            solve_budget_lp(100, 10.0, paper_acceptance, GRID)

    def test_lp_validation(self, paper_acceptance):
        with pytest.raises(ValueError):
            solve_budget_lp(0, 100.0, paper_acceptance, GRID)
        with pytest.raises(ValueError):
            solve_budget_lp(10, -5.0, paper_acceptance, GRID)


class TestTheorem8:
    @given(
        num_tasks=st.integers(min_value=2, max_value=25),
        budget_per_task=st.floats(min_value=2.0, max_value=25.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_gap_to_exact_optimum(self, num_tasks, budget_per_task):
        # The rounded hull solution exceeds the exact integer optimum by at
        # most 1/p(c1) - 1/p(c2) (Theorem 8).
        model = paper_acceptance_model()
        budget = num_tasks * budget_per_task
        hull = solve_budget_hull(num_tasks, budget, model, GRID)
        exact = solve_budget_exact(num_tasks, budget, model, GRID)
        assert hull.expected_arrivals >= exact.expected_arrivals - 1e-6
        assert (
            hull.expected_arrivals
            <= exact.expected_arrivals + hull.rounding_gap_bound + 1e-6
        )
