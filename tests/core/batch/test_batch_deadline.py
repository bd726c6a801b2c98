"""Equivalence of the batched deadline kernel with the scalar solvers.

The batch fast path is only a fast path if it computes the *same tables*:
these property tests draw randomized instances (sizes, horizons, grids,
acceptance parameters, penalties, truncation settings) and assert the
stacked kernel reproduces ``solve_deadline`` (and, on small instances,
the literal Algorithm 1 of ``solve_deadline_simple``) — identical price
tables, values within float tolerance.  One layer alone reproduces the
scalar solver's layer costs.  Against its own per-layer reference (one
``_deadline_layer_numpy`` call per layer) the hoisted sweep is bitwise
equal, and it computes each distinct layer's terms once per run of
nearby uses, a block of layers per kernel call, holding a bounded share
of them whatever the horizon.  A solver's layer memo hands back exactly
what a cold solve computes, within its byte budget.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.batch import BatchPolicySolver, kernels, solve_deadline_batch
from repro.core.batch import deadline as batch_deadline
from repro.core.batch.deadline import (
    MEMO_BYTES,
    LayerTermsMemo,
    group_key,
    solve_deadline_single,
)
from repro.core.batch.kernels import _deadline_layer_numpy
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.simple_dp import solve_deadline_simple
from repro.core.deadline.vectorized import _layer_costs, solve_deadline
from repro.engine import DEADLINE, DEFAULT_TEMPLATES, PolicyCache
from repro.engine.planning import CampaignPlanner
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


def count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Count calls of the two layer kernels, and the layer rows the
    terms kernel computes, from here to the end of the test."""
    calls = {"deadline_layer_terms": 0, "deadline_layer_step": 0, "rows": 0}
    for name in ("deadline_layer_terms", "deadline_layer_step"):
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            if _name == "deadline_layer_terms":
                calls["rows"] += args[0].shape[0]
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def layer_keys(problems) -> set[tuple]:
    """The distinct layers of same-shaped instances, by the bytes their
    terms are computed from."""
    return {
        (
            p.acceptance_probabilities().tobytes(),
            p.price_grid.tobytes(),
            p.arrival_means[t].tobytes(),
        )
        for p in problems
        for t in range(p.num_intervals)
    }


def held_bytes(memo: LayerTermsMemo) -> int:
    return sum(pmf.nbytes + pay.nbytes for pmf, pay in memo._entries.values())


def assert_bitwise_equal(a, b) -> None:
    """Identical price tables and identical value bytes (signed zeros
    included)."""
    assert a.opt.tobytes() == b.opt.tobytes()
    assert np.array_equal(a.price_index, b.price_index)


def sliced_windows() -> list[DeadlineProblem]:
    """The default deadline templates planned against sliding windows of
    one diurnal forecast, as ``sliced`` planning builds them: 48
    submission waves spread over 192 intervals, each template once per
    wave, in wave order."""
    intervals, waves = 192, 48
    means = 1500.0 + 600.0 * np.sin(2.0 * np.pi * np.arange(intervals) / 32)
    planner = CampaignPlanner(
        paper_acceptance_model(), PolicyCache(), "sliced", means
    )
    templates = [t for t in DEFAULT_TEMPLATES if t.kind == DEADLINE]
    return [
        planner.planning_problem(template.spec(
            f"{template.name}-{wave}",
            submit_interval=round(
                (intervals - template.horizon_intervals) * wave / (waves - 1)
            ),
        ))
        for wave in range(waves)
        for template in templates
    ]


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
        # A fresh memo computes each distinct layer key once, a block of
        # keys per terms call (the zero-arrival group shares one key among
        # its zero layers); the same solve again through the same solver
        # computes nothing.  The step runs once per layer either way.
        problems = HOISTING_CASES[case]()
        first = problems[0]
        calls = count_kernel_calls(monkeypatch)
        solver = BatchPolicySolver()
        cold = solver.solve_deadline_many(problems)
        distinct = len(layer_keys(problems))
        per_layer = 8 * first.num_prices * (first.num_tasks + 1)
        block = max(1, batch_deadline._BLOCK_BYTES // per_layer)
        assert calls["deadline_layer_terms"] == -(-distinct // block)
        assert calls["rows"] == distinct == solver.memo.misses
        assert calls["deadline_layer_step"] == first.num_intervals
        assert 2 <= calls["deadline_layer_terms"]  # crosses a block boundary
        warm = solver.solve_deadline_many(problems)
        assert calls["deadline_layer_terms"] == -(-distinct // block)
        assert solver.memo.hits == distinct
        assert calls["deadline_layer_step"] == 2 * first.num_intervals
        for a, b in zip(cold, warm):
            assert a.opt.tobytes() == b.opt.tobytes()
            assert np.array_equal(a.price_index, b.price_index)


class TestLayerTermsMemo:
    @pytest.mark.parametrize(
        "case",
        sorted(HOISTING_CASES) + ["random-0", "random-1", "random-2", "interleaved"],
    )
    def test_a_warm_memo_solves_bitwise_as_a_cold_solve(self, case):
        # Solved twice through one solver, one group or instance at a
        # time in the interleaved case, every table is a cold solve's.
        if case in HOISTING_CASES:
            calls = [HOISTING_CASES[case]()]
        elif case.startswith("random"):
            rng = np.random.default_rng(300 + int(case[-1]))
            problems = [random_problem(rng) for _ in range(4)]
            problems += [
                p.with_penalty(PenaltyScheme(per_task=33.0)) for p in problems[:2]
            ]
            calls = [problems]
        else:
            rng = np.random.default_rng(77)
            shapes = [shape_group(2, num_tasks=12, num_prices=9, horizon=10),
                      [random_problem(rng) for _ in range(3)],
                      shape_group(1, num_tasks=30, num_prices=20, horizon=7)]
            calls = [[p] for group in zip(*shapes) for p in group]
            calls += [group for group in shapes]
        solver = BatchPolicySolver()
        for _ in range(2):
            for problems in calls:
                warm = solver.solve_deadline_many(problems)
                for problem, policy in zip(problems, warm, strict=True):
                    assert_bitwise_equal(policy, solve_deadline_single(problem))
        assert solver.memo.hits > 0

    def test_the_byte_count_is_the_held_entries_within_budget(self):
        # A call that repeats a key holds it once; past the budget the
        # least recently used entries go, and the count stays exact.
        solver = BatchPolicySolver()
        memo = solver.memo
        zeros = zero_arrival_group()
        solver.solve_deadline_many(zeros)
        assert len(memo) == len(layer_keys(zeros)) < sum(
            p.num_intervals for p in zeros
        )
        assert memo.nbytes == held_bytes(memo) <= MEMO_BYTES
        (wide,) = shape_group(1, num_tasks=80, num_prices=30, horizon=120)
        solver.solve_deadline_many([wide])
        entry = 2 * 8 * wide.num_prices * (wide.num_tasks + 1)
        assert memo.misses > len(memo)  # entries were evicted
        assert memo.nbytes == held_bytes(memo)
        assert MEMO_BYTES - entry < memo.nbytes <= MEMO_BYTES
        solver.solve_deadline_many(zeros)
        assert memo.nbytes == held_bytes(memo) <= MEMO_BYTES

    def test_signed_zero_means_are_different_keys(self):
        # 0.0 == -0.0, but their pmf rows differ in the sign of zeros (the
        # head is not cut at N <= 19), so each is its own key.
        positive = DeadlineProblem(
            num_tasks=6,
            arrival_means=np.array([0.0, 35.0]),
            acceptance=paper_acceptance_model(),
            price_grid=np.arange(1.0, 9.0),
            penalty=PenaltyScheme(per_task=70.0),
        )
        negative = DeadlineProblem(
            num_tasks=6,
            arrival_means=np.array([-0.0, 35.0]),
            acceptance=paper_acceptance_model(),
            price_grid=np.arange(1.0, 9.0),
            penalty=PenaltyScheme(per_task=70.0),
        )
        solver = BatchPolicySolver()
        solver.solve_deadline_many([positive])
        (policy,) = solver.solve_deadline_many([negative])
        assert (solver.memo.hits, solver.memo.misses) == (1, 3)
        pmfs = {pmf.tobytes() for pmf, _ in solver.memo._entries.values()}
        assert len(pmfs) == 3
        assert_bitwise_equal(policy, solve_deadline_single(negative))

    def test_entries_are_read_only(self):
        solver = BatchPolicySolver()
        solver.solve_deadline_many(zero_arrival_group())
        for pmf, pay in solver.memo._entries.values():
            for array in (pmf, pay):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0

    def test_reset_empties_the_memo(self):
        solver = BatchPolicySolver()
        solver.solve_deadline_many(shape_group(2))
        assert len(solver.memo) > 0
        solver.reset()
        memo = solver.memo
        assert (len(memo), memo.nbytes, memo.hits, memo.misses) == (0, 0, 0, 0)

    def test_sliding_windows_compute_at_most_a_quarter_of_their_layers(
        self, monkeypatch
    ):
        # Overlapping forecast windows share most layers: solved one at a
        # time through one solver, 3,024 layers need about 600 computed
        # (a fifth) within the budget.  A smaller budget thrashes (1.5
        # MiB computes 37%), and without reuse across solves nearly every
        # layer is computed.
        problems = sliced_windows()
        calls = count_kernel_calls(monkeypatch)
        solver = BatchPolicySolver()
        for problem in problems:
            solver.solve_deadline_many([problem])
        layers = sum(p.num_intervals for p in problems)
        assert layers == 3024
        assert calls["rows"] == solver.memo.misses
        assert calls["rows"] <= 0.25 * layers
        assert solver.memo.nbytes <= MEMO_BYTES


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

    @pytest.mark.parametrize("memo", [False, True], ids=["alone", "memo"])
    @pytest.mark.parametrize(
        "period,horizon", [(50, 600), (300, 600), (600, 600), (50, 2400)]
    )
    def test_a_recurring_forecast_holds_a_bounded_share_of_terms(
        self, memo, period, horizon, monkeypatch
    ):
        # A tiled profile repeats its means across the whole horizon.  A
        # call carries a layer's terms to its next use only while the uses
        # lie within MEMO_BYTES worth of layers (64 here), so the peak
        # beyond the returned tables stays within twice the budget (the
        # carried terms, plus the memo's own) whatever the horizon or the
        # period; carrying every recurring key to its last use would hold
        # 7.3 MiB at period 300.  A period within the carry is computed
        # once.
        wave = 900.0 + 400.0 * np.sin(2.0 * np.pi * np.arange(period) / period)
        problem = DeadlineProblem(
            num_tasks=100,
            arrival_means=np.tile(wave, horizon // period),
            acceptance=paper_acceptance_model(),
            price_grid=np.arange(1.0, 21.0),
            penalty=PenaltyScheme(per_task=150.0),
        )
        solver = BatchPolicySolver()

        def solve(problem):
            if memo:
                return solver.solve_deadline_many([problem])[0]
            return solve_deadline_single(problem)

        solve(shape_group(1, num_tasks=20, num_prices=5, horizon=4)[0])
        calls = count_kernel_calls(monkeypatch)
        gc.collect()
        tracemalloc.start()
        try:
            policy = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = policy.opt.nbytes + policy.price_index.nbytes
        assert peak - tables < 2 * MEMO_BYTES
        if period == 50:
            assert calls["rows"] == len({m.tobytes() for m in wave})
        assert_bitwise_equal(policy, solve_deadline_single(problem))


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
