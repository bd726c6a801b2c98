"""Tests for DeadlineProblem / PenaltyScheme construction and accessors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.market.acceptance import paper_acceptance_model
from repro.market.rates import ConstantRate

from tests.conftest import make_problem


class TestPenaltyScheme:
    def test_linear_costs(self):
        scheme = PenaltyScheme(per_task=10.0)
        assert scheme.terminal_cost(0) == 0.0
        assert scheme.terminal_cost(3) == 30.0

    def test_extended_costs(self):
        # Section 3.3: cost = (n + alpha) * Penalty when n > 0, else 0.
        scheme = PenaltyScheme(per_task=10.0, existence=2.0)
        assert scheme.terminal_cost(0) == 0.0
        assert scheme.terminal_cost(1) == 30.0
        assert scheme.terminal_cost(5) == 70.0

    def test_vector_matches_scalar(self):
        scheme = PenaltyScheme(per_task=7.0, existence=1.5)
        vector = scheme.terminal_costs(4)
        assert vector.tolist() == [scheme.terminal_cost(n) for n in range(5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltyScheme(per_task=-1.0)
        with pytest.raises(ValueError):
            PenaltyScheme(per_task=1.0, existence=-0.5)
        with pytest.raises(ValueError):
            PenaltyScheme(per_task=1.0).terminal_cost(-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_penalties_rejected(self, value):
        # NaN passed the sign check and was solved: 1c posted, 10.8 of 20
        # tasks expected left.
        with pytest.raises(ValueError, match="per_task penalty must be finite"):
            PenaltyScheme(per_task=value)
        with pytest.raises(ValueError, match="existence penalty must be finite"):
            PenaltyScheme(per_task=1.0, existence=value)


class TestDeadlineProblem:
    def test_basic_properties(self, small_problem):
        assert small_problem.num_intervals == 4
        assert small_problem.num_prices == 15
        assert small_problem.total_arrivals() == pytest.approx(1500.0)

    def test_completion_means_shape_and_values(self, small_problem):
        means = small_problem.completion_means()
        assert means.shape == (4, 15)
        p = small_problem.acceptance.probability(float(small_problem.price_grid[2]))
        assert means[1, 2] == pytest.approx(250.0 * p)

    def test_from_rate_function(self):
        problem = DeadlineProblem.from_rate_function(
            num_tasks=5,
            rate=ConstantRate(100.0),
            horizon_hours=2.0,
            num_intervals=4,
            acceptance=paper_acceptance_model(),
            price_grid=[1.0, 2.0],
            penalty=PenaltyScheme(per_task=10.0),
        )
        assert np.allclose(problem.arrival_means, 50.0)

    def test_with_overrides(self, small_problem):
        new_penalty = PenaltyScheme(per_task=99.0)
        assert small_problem.with_penalty(new_penalty).penalty == new_penalty
        new_acc = paper_acceptance_model().with_params(m=500.0)
        assert small_problem.with_acceptance(new_acc).acceptance is new_acc
        new_means = np.array([1.0, 2.0])
        changed = small_problem.with_arrival_means(new_means)
        assert changed.num_intervals == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(num_tasks=0)
        with pytest.raises(ValueError):
            make_problem(arrival_means=[])
        with pytest.raises(ValueError):
            make_problem(arrival_means=[-1.0])
        with pytest.raises(ValueError):
            DeadlineProblem(
                num_tasks=2,
                arrival_means=np.array([1.0]),
                acceptance=paper_acceptance_model(),
                price_grid=np.array([2.0, 1.0]),  # not ascending
                penalty=PenaltyScheme(per_task=1.0),
            )
        with pytest.raises(ValueError):
            DeadlineProblem(
                num_tasks=2,
                arrival_means=np.array([1.0]),
                acceptance=paper_acceptance_model(),
                price_grid=np.array([-1.0, 1.0]),
                penalty=PenaltyScheme(per_task=1.0),
            )
        with pytest.raises(ValueError):
            make_problem(truncation_eps=2.0)
