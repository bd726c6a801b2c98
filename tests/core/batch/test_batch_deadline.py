"""Equivalence of the batched deadline kernel with the scalar solvers.

The batch fast path is only a fast path if it computes the *same tables*:
these property tests draw randomized instances (sizes, horizons, grids,
acceptance parameters, penalties, truncation settings) and assert the
stacked kernel reproduces ``solve_deadline`` (and, on small instances,
the literal Algorithm 1 of ``solve_deadline_simple``) — identical price
tables, values within float tolerance.  Against its own per-layer
reference (one ``_deadline_layer_numpy`` call per layer) the hoisted
sweep is bitwise equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import solve_deadline_batch
from repro.core.batch import deadline as batch_deadline
from repro.core.batch.deadline import group_key, solve_deadline_single
from repro.core.batch.kernels import _deadline_layer_numpy
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.simple_dp import solve_deadline_simple
from repro.core.deadline.vectorized import solve_deadline
from repro.market.acceptance import LogitAcceptance, paper_acceptance_model


def random_problem(rng: np.random.Generator, *, small: bool = False) -> DeadlineProblem:
    """One randomized deadline instance (small => Algorithm-1 tractable)."""
    num_tasks = int(rng.integers(3, 15 if small else 45))
    horizon = int(rng.integers(3, 8 if small else 20))
    num_prices = int(rng.integers(5, 15 if small else 35))
    eps = [1e-9, 1e-6, None][int(rng.integers(3))]
    acceptance = LogitAcceptance(
        s=float(rng.uniform(2.0, 10.0)),
        b=float(rng.uniform(-1.0, 3.0)),
        m=float(rng.uniform(50.0, 2000.0)),
    )
    return DeadlineProblem(
        num_tasks=num_tasks,
        arrival_means=rng.uniform(0.0, 120.0, horizon),
        acceptance=acceptance,
        price_grid=np.arange(1.0, num_prices + 1.0),
        penalty=PenaltyScheme(
            per_task=float(rng.uniform(10.0, 400.0)),
            existence=float(rng.choice([0.0, 1.5])),
        ),
        truncation_eps=eps,
    )


def shape_group(
    count: int,
    *,
    num_tasks: int = 40,
    num_prices: int = 30,
    horizon: int | None = None,
    levels=(900.0, 1400.0, 300.0, 2200.0),
    eps: float | None = 1e-9,
) -> list[DeadlineProblem]:
    """``count`` same-shaped instances with distinct forecasts and penalties.

    The default horizon spans three and a bit hoisted layer blocks of a
    group this wide.
    """
    if horizon is None:
        per_layer = 8 * count * num_prices * (num_tasks + 1)
        horizon = 3 * max(1, batch_deadline._BLOCK_BYTES // per_layer) + 2
    wave = 1.0 + 0.5 * np.sin(np.arange(horizon))
    return [
        DeadlineProblem(
            num_tasks=num_tasks,
            arrival_means=levels[i % len(levels)] * wave,
            acceptance=paper_acceptance_model(),
            price_grid=np.arange(1.0, num_prices + 1.0),
            penalty=PenaltyScheme(per_task=120.0 + 30.0 * i),
            truncation_eps=eps,
        )
        for i in range(count)
    ]


def zero_arrival_group() -> list[DeadlineProblem]:
    problems = shape_group(3)
    for p in problems:
        p.arrival_means[::3] = 0.0
    return problems


#: Instance groups that stress the hoisted sweep: block boundaries,
#: stacks of up to four, the log-space pmf, exact (untruncated) pmfs,
#: and intervals without arrivals.
HOISTING_CASES = {
    "one-instance-many-blocks": lambda: shape_group(1),
    "four-instances-many-blocks": lambda: shape_group(4, num_tasks=20, num_prices=12),
    "log-space-means": lambda: shape_group(
        2, num_tasks=30, horizon=12, levels=(150000.0, 40.0)
    ),
    "no-truncation": lambda: shape_group(3, eps=None),
    "zero-arrival-intervals": zero_arrival_group,
}


def layer_by_layer(problems) -> tuple[np.ndarray, np.ndarray]:
    """``(opt, price_index)`` swept one ``_deadline_layer_numpy`` call a layer."""
    n_tasks, n_intervals = problems[0].num_tasks, problems[0].num_intervals
    lam = np.stack([p.arrival_means for p in problems])
    prices = np.stack([p.price_grid for p in problems])
    probs = np.stack([p.acceptance_probabilities() for p in problems])
    opt = np.zeros((len(problems), n_tasks + 1, n_intervals + 1))
    price_index = np.zeros((len(problems), n_tasks + 1, n_intervals), dtype=int)
    opt[:, :, n_intervals] = [p.penalty.terminal_costs(n_tasks) for p in problems]
    for t in range(n_intervals - 1, -1, -1):
        means = lam[:, t][:, None] * probs
        opt_t, best = _deadline_layer_numpy(
            means, np.exp(-means), prices, opt[:, :, t + 1],
            problems[0].truncation_eps,
        )
        opt[:, :, t] = opt_t
        price_index[:, 1:, t] = best[:, 1:]
    return opt, price_index


def assert_same_policy(scalar, batch) -> None:
    """Identical price tables; values within float tolerance."""
    assert np.array_equal(scalar.price_index, batch.price_index)
    assert np.allclose(scalar.opt, batch.opt, rtol=1e-9, atol=1e-8)


class TestAgainstVectorizedSolver:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_instances_match(self, seed):
        rng = np.random.default_rng(seed)
        problems = [random_problem(rng) for _ in range(5)]
        batch = solve_deadline_batch(problems)
        for problem, policy in zip(problems, batch):
            assert_same_policy(solve_deadline(problem), policy)

    def test_mixed_shapes_group_and_restore_order(self):
        rng = np.random.default_rng(99)
        problems = [random_problem(rng) for _ in range(4)]
        # Duplicate each shape with a different penalty: same group, new
        # instance — exercises multi-instance groups and order restoration.
        problems += [
            p.with_penalty(PenaltyScheme(per_task=33.0)) for p in problems
        ]
        assert len({group_key(p) for p in problems}) < len(problems)
        batch = solve_deadline_batch(problems)
        for problem, policy in zip(problems, batch):
            assert policy.problem is problem
            assert_same_policy(solve_deadline(problem), policy)

    def test_engine_scale_means_match(self):
        # Marketplace-scale arrival means (large Poisson means exercise the
        # log-space pmf branch and deep truncation).
        acceptance = paper_acceptance_model()
        problems = [
            DeadlineProblem(
                num_tasks=30,
                arrival_means=np.full(10, level),
                acceptance=acceptance,
                price_grid=np.arange(1.0, 31.0),
                penalty=PenaltyScheme(per_task=150.0),
            )
            for level in (5.0, 300.0, 1500.0, 4000.0)
        ]
        for problem, policy in zip(problems, solve_deadline_batch(problems)):
            assert_same_policy(solve_deadline(problem), policy)

    def test_zero_arrival_intervals(self):
        acceptance = paper_acceptance_model()
        problem = DeadlineProblem(
            num_tasks=8,
            arrival_means=np.array([0.0, 40.0, 0.0, 12.0]),
            acceptance=acceptance,
            price_grid=np.arange(1.0, 16.0),
            penalty=PenaltyScheme(per_task=90.0),
        )
        (policy,) = solve_deadline_batch([problem])
        assert_same_policy(solve_deadline(problem), policy)


class TestHoistedSweep:
    @pytest.mark.parametrize("case", sorted(HOISTING_CASES))
    def test_bitwise_equal_to_the_per_layer_sweep(self, case):
        # Stacked or alone (the engine's one-instance entry point), each
        # instance gets the per-layer sweep's tables exactly, and the
        # scalar solver's price table.
        problems = HOISTING_CASES[case]()
        assert len({group_key(p) for p in problems}) == 1
        opt, price_index = layer_by_layer(problems)
        for b, policy in enumerate(solve_deadline_batch(problems)):
            single = solve_deadline_single(problems[b])
            for solved in (policy, single):
                assert np.array_equal(solved.opt, opt[b])  # exact
                assert np.array_equal(solved.price_index, price_index[b])
            scalar = solve_deadline(problems[b])
            assert np.array_equal(policy.price_index, scalar.price_index)


class TestAgainstAlgorithm1:
    @pytest.mark.parametrize("seed", range(4))
    def test_small_instances_match_the_literal_dp(self, seed):
        rng = np.random.default_rng(1000 + seed)
        problems = [random_problem(rng, small=True) for _ in range(3)]
        batch = solve_deadline_batch(problems)
        for problem, policy in zip(problems, batch):
            assert_same_policy(solve_deadline_simple(problem), policy)


class TestInterface:
    def test_empty_input(self):
        assert solve_deadline_batch([]) == []

    def test_single_instance_degrades_gracefully(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng)
        (policy,) = solve_deadline_batch([problem])
        assert policy.solver == "batch"
        assert_same_policy(solve_deadline(problem), policy)

    def test_policies_evaluate_like_scalar_ones(self):
        # The produced DeadlinePolicy supports the same downstream API
        # (forward evaluation) with the same numbers.
        rng = np.random.default_rng(11)
        problem = random_problem(rng)
        (policy,) = solve_deadline_batch([problem])
        scalar = solve_deadline(problem).evaluate()
        batched = policy.evaluate()
        assert batched.expected_cost == pytest.approx(scalar.expected_cost)
        assert batched.prob_all_done == pytest.approx(scalar.prob_all_done)
