"""Equivalence of the batched deadline kernel with the scalar solvers.

The batch fast path is only a fast path if it computes the *same tables*:
these property tests draw randomized instances (sizes, horizons, grids,
acceptance parameters, penalties, truncation settings) and assert the
stacked kernel reproduces ``solve_deadline`` (and, on small instances,
the literal Algorithm 1 of ``solve_deadline_simple``) — identical price
tables, values within float tolerance.  One layer alone reproduces the
scalar solver's layer costs.  Against its own per-layer reference (one
``_deadline_layer_numpy`` call per layer) the hoisted sweep is bitwise
equal, and it computes the layer-independent terms once per block.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.batch import kernels, solve_deadline_batch
from repro.core.batch import deadline as batch_deadline
from repro.core.batch.deadline import group_key, solve_deadline_single
from repro.core.batch.kernels import _deadline_layer_numpy
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.simple_dp import solve_deadline_simple
from repro.core.deadline.vectorized import _layer_costs, solve_deadline
from repro.market.acceptance import LogitAcceptance, paper_acceptance_model
from repro.util.poisson import poisson_pmf_vector


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


def random_layer(rng: np.random.Generator) -> tuple[list[DeadlineProblem], np.ndarray]:
    """Same-shaped one-interval instances and a random next-layer value table.

    Each instance has its own acceptance curve, price grid and arrival
    mean; the truncation threshold ranges from exact (``None``) to coarse,
    and past 20 tasks small means get their pmf cut.
    """
    batch = int(rng.integers(1, 5))
    num_tasks = int(rng.integers(1, 64))
    num_prices = int(rng.integers(1, 14))
    eps = [None, 1e-9, 1e-6, 1e-2][int(rng.integers(4))]
    problems = [
        DeadlineProblem(
            num_tasks=num_tasks,
            arrival_means=rng.uniform(0.0, 150.0, 1),
            acceptance=LogitAcceptance(
                s=float(rng.uniform(2.0, 10.0)),
                b=float(rng.uniform(-1.0, 3.0)),
                m=float(rng.uniform(1.0, 2000.0)),
            ),
            price_grid=np.sort(rng.uniform(0.5, 30.0, num_prices)),
            penalty=PenaltyScheme(per_task=100.0),
            truncation_eps=eps,
        )
        for _ in range(batch)
    ]
    opt_next = rng.uniform(0.0, 500.0, (batch, num_tasks + 1))
    opt_next[:, 0] = 0.0
    return problems, opt_next


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


class TestLayer:
    @pytest.mark.parametrize("seed", range(12))
    def test_layer_matches_the_scalar_layer_costs(self, seed):
        # One stacked layer against the scalar solver's per-price
        # convolutions: the same lowest-cost price at every state, the
        # same minimum cost to float tolerance.
        problems, opt_next = random_layer(np.random.default_rng(seed))
        lam_t = np.array([p.arrival_means[0] for p in problems])
        means = lam_t[:, None] * np.stack(
            [p.acceptance_probabilities() for p in problems]
        )
        prices = np.stack([p.price_grid for p in problems])
        opt_t, best = _deadline_layer_numpy(
            means, np.exp(-means), prices, opt_next,
            problems[0].truncation_eps,
        )
        for b, problem in enumerate(problems):
            costs = _layer_costs(problem, float(lam_t[b]), opt_next[b])
            assert np.array_equal(best[b, 1:], np.argmin(costs, axis=0)[1:])
            assert opt_t[b, 0] == 0.0
            assert np.allclose(opt_t[b], costs.min(axis=0), rtol=1e-9, atol=1e-8)

    def test_single_price_single_task_edge(self):
        # Nobody accepts (probability exp(-3)): carry on at opt_next[1];
        # otherwise the one task completes and pays the one price.
        means = np.array([[3.0]])
        opt_t, best = _deadline_layer_numpy(
            means, np.exp(-means), np.array([[2.0]]),
            np.array([[0.0, 7.0]]), 1e-9,
        )
        stay = np.exp(-3.0)
        assert best.tolist() == [[0, 0]]
        assert opt_t[0, 0] == 0.0
        assert opt_t[0, 1] == pytest.approx(7.0 * stay + 2.0 * (1.0 - stay), rel=1e-14)

    def test_log_space_means_take_the_log_space_pmf(self):
        # exp(-mean) underflows to zero past LOG_SPACE_MEAN, so the
        # recurrence alone would leave those pmf rows all zero; the terms
        # switch to the log-space pmf there, as the scalar pmf does.
        n_tasks = 1000
        row = np.array([650.0, kernels.LOG_SPACE_MEAN, 900.0])
        means = row[None, :]
        assert np.exp(-row[-1]) == 0.0
        pmf, _ = kernels.deadline_layer_terms(
            means, np.exp(-means), np.array([[1.0, 2.0, 3.0]]), None, n_tasks
        )
        for j, mean in enumerate(row):
            assert pmf[0, j].max() > 0.01  # the head covers the mode
            assert np.allclose(
                pmf[0, j], poisson_pmf_vector(n_tasks, float(mean)),
                rtol=1e-12, atol=0.0,
            )


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

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_mixes_equal_the_per_layer_sweep(self, seed):
        # Mixed shapes split into groups, two of them stacked: each
        # instance still gets its per-layer sweep's tables exactly.
        rng = np.random.default_rng(100 + seed)
        problems = [random_problem(rng) for _ in range(4)]
        problems += [
            p.with_penalty(PenaltyScheme(per_task=33.0)) for p in problems[:2]
        ]
        for problem, policy in zip(problems, solve_deadline_batch(problems)):
            opt, price_index = layer_by_layer([problem])
            assert np.array_equal(policy.opt, opt[0])  # exact
            assert np.array_equal(policy.price_index, price_index[0])

    @pytest.mark.parametrize("case", sorted(HOISTING_CASES))
    def test_terms_run_once_per_block_and_the_step_once_per_layer(
        self, case, monkeypatch
    ):
        problems = HOISTING_CASES[case]()
        first = problems[0]
        calls = {"deadline_layer_terms": 0, "deadline_layer_step": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(kernels, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(kernels, name, counted)
        solve_deadline_batch(problems)
        per_layer = 8 * len(problems) * first.num_prices * (first.num_tasks + 1)
        block = max(1, batch_deadline._BLOCK_BYTES // per_layer)
        blocks = -(-first.num_intervals // block)
        assert calls["deadline_layer_step"] == first.num_intervals
        assert calls["deadline_layer_terms"] == blocks
        assert 2 <= blocks < first.num_intervals  # crosses a block boundary


class TestRetainedMemory:
    def test_a_large_solve_leaves_no_memory_behind(self):
        # The layer step keeps nothing between calls, so client-chosen
        # task counts cannot grow the process: a cached (N+1) x (N+1)
        # gather index per state count would hold 8 * 302**2 bytes
        # (730 KB) here.  The table is still the scalar solver's.
        (warm,) = shape_group(1, num_tasks=300, num_prices=6, horizon=3)
        solve_deadline_single(warm)  # lazy imports and first-call state
        (problem,) = shape_group(1, num_tasks=301, num_prices=6, horizon=3)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            policy = solve_deadline_single(problem)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * (problem.num_tasks + 1) ** 2 // 4
        assert_same_policy(solve_deadline(problem), policy)


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
