"""Exact equality of the compiled kernels against the numpy reference.

The ``REPRO_KERNELS`` contract is *bit-identical results, whichever
backend runs*.  Float tolerance would let the two paths drift apart one
ulp at a time until engine traces diverge, so every comparison here is
**exact** (``np.array_equal``, no ``allclose``): the loop implementations
(what ``numba.njit`` compiles — tested un-jitted where numba is absent,
compiled where it is installed) must reproduce the numpy tensor
arithmetic operation for operation, over randomized shapes.

Also covered: the flag machinery itself — resolution, the warn-once
numpy fallback when numba is requested but absent, the scoped selector —
and end-to-end solver equality under each mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import kernels, solve_budget_batch, solve_deadline_batch
from repro.core.batch.budget import BudgetRequest
from repro.core.batch.kernels import (
    _deadline_layer_loops,
    _deadline_layer_numpy,
    _lower_hull_loops,
)
from repro.market.acceptance import LogitAcceptance
from repro.util.convexhull import lower_convex_hull

from tests.core.batch.test_batch_deadline import HOISTING_CASES, random_problem
from tests.kernel_modes import KERNEL_MODES, kernel_mode


def random_layer(rng: np.random.Generator) -> tuple:
    """One randomized deadline layer: (means, pmf0, prices, opt_next, eps)."""
    batch = int(rng.integers(1, 5))
    n_tasks = int(rng.integers(1, 24))
    n_prices = int(rng.integers(1, 14))
    lam_t = rng.uniform(0.0, 150.0, batch)
    probs = rng.uniform(1e-4, 1.0, (batch, n_prices))
    means = lam_t[:, None] * probs
    prices = np.sort(rng.uniform(0.5, 30.0, (batch, n_prices)), axis=1)
    opt_next = rng.uniform(0.0, 500.0, (batch, n_tasks + 1))
    opt_next[:, 0] = 0.0
    eps = [None, 1e-9, 1e-6, 1e-2][int(rng.integers(4))]
    return means, np.exp(-means), prices, opt_next, eps


class TestDeadlineLayerKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_loops_match_numpy_exactly(self, seed):
        means, pmf0, prices, opt_next, eps = random_layer(
            np.random.default_rng(seed)
        )
        ref_opt, ref_best = _deadline_layer_numpy(
            means, pmf0, prices, opt_next, eps
        )
        loop_opt, loop_best = _deadline_layer_loops(
            means, pmf0, prices, opt_next,
            eps if eps is not None else 0.0, eps is not None,
        )
        assert np.array_equal(ref_best, loop_best)
        assert np.array_equal(ref_opt, loop_opt)  # exact, not allclose

    def test_single_price_single_task_edge(self):
        means = np.array([[3.0]])
        args = (means, np.exp(-means), np.array([[2.0]]),
                np.array([[0.0, 7.0]]), 1e-9)
        ref = _deadline_layer_numpy(*args)
        loop = _deadline_layer_loops(*args[:4], 1e-9, True)
        assert np.array_equal(ref[0], loop[0])
        assert np.array_equal(ref[1], loop[1])

    def test_log_space_means_route_to_numpy(self):
        # A layer containing a mean >= 700 must take the numpy path even
        # under the numba backend (the exactness contract's escape hatch).
        rng = np.random.default_rng(5)
        lam_t = np.array([900.0])
        probs = rng.uniform(0.5, 1.0, (1, 3))
        prices = np.sort(rng.uniform(1.0, 9.0, (1, 3)), axis=1)
        opt_next = rng.uniform(0.0, 50.0, (1, 6))
        with kernel_mode("numpy"):
            ref = kernels.deadline_layer(lam_t, probs, prices, opt_next, 1e-9)
        with kernel_mode("numba"):
            out = kernels.deadline_layer(lam_t, probs, prices, opt_next, 1e-9)
        assert np.array_equal(ref[0], out[0])
        assert np.array_equal(ref[1], out[1])

    @pytest.mark.parametrize("case", sorted(HOISTING_CASES))
    def test_numba_mode_sends_every_layer_to_the_jit(self, case):
        # The hoisted sweep is numpy-only: under the numba backend each
        # layer is still one _deadline_layer_jit call, except layers with
        # log-space means, which take the numpy path.
        problems = HOISTING_CASES[case]()
        means = np.stack([p.completion_means() for p in problems])
        jit_layers = int(np.sum(~np.any(means >= kernels.LOG_SPACE_MEAN, axis=(0, 2))))
        with kernel_mode("numpy"):
            ref = solve_deadline_batch(problems)
        calls = []
        with kernel_mode("numba"):
            jit = kernels._deadline_layer_jit
            kernels._deadline_layer_jit = lambda *args: calls.append(1) or jit(*args)
            try:
                out = solve_deadline_batch(problems)
            finally:
                kernels._deadline_layer_jit = jit
        assert len(calls) == jit_layers > 0
        # Only the log-space case has layers the jit must not take.
        all_layers = jit_layers == problems[0].num_intervals
        assert all_layers == (case != "log-space-means")
        for a, b in zip(ref, out):
            assert np.array_equal(a.opt, b.opt)
            assert np.array_equal(a.price_index, b.price_index)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_batch_solver_identical_across_modes(self, seed):
        rng = np.random.default_rng(100 + seed)
        problems = [random_problem(rng) for _ in range(4)]
        with kernel_mode("numpy"):
            ref = solve_deadline_batch(problems)
        with kernel_mode("numba"):
            out = solve_deadline_batch(problems)
        for a, b in zip(ref, out):
            assert np.array_equal(a.opt, b.opt)
            assert np.array_equal(a.price_index, b.price_index)


class TestHullKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_loops_match_python_hull(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        xs = np.unique(rng.uniform(0.0, 50.0, n))
        # Mix smooth, duplicate, and exactly-collinear y values so the
        # <=0 collinear-drop rule is exercised.
        ys = np.round(rng.uniform(0.0, 20.0, xs.size), 1)
        assert list(_lower_hull_loops(xs, ys)) == lower_convex_hull(
            xs.tolist(), ys.tolist()
        )

    def test_collinear_points_dropped_identically(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        ys = np.array([4.0, 3.0, 2.0, 1.0, 0.0])  # one straight line
        assert list(_lower_hull_loops(xs, ys)) == lower_convex_hull(
            xs.tolist(), ys.tolist()
        )

    def test_dispatcher_falls_back_on_unsorted_xs(self):
        xs = [3.0, 1.0, 2.0]
        ys = [1.0, 5.0, 0.5]
        with kernel_mode("numba"):
            got = kernels.lower_hull_indices(np.array(xs), np.array(ys))
        assert got == lower_convex_hull(xs, ys)

    @pytest.mark.parametrize("seed", range(4))
    def test_budget_batch_identical_across_modes(self, seed):
        rng = np.random.default_rng(200 + seed)
        acceptance = LogitAcceptance(
            s=float(rng.uniform(2.0, 8.0)),
            b=float(rng.uniform(-1.0, 2.0)),
            m=float(rng.uniform(100.0, 1500.0)),
        )
        grid = np.arange(1.0, float(rng.integers(6, 20)))
        requests = [
            BudgetRequest(
                num_tasks=int(rng.integers(1, 40)),
                budget=float(rng.uniform(40.0, 4000.0) + 40.0 * 40),
                acceptance=acceptance,
                price_grid=grid,
            )
            for _ in range(5)
        ]
        with kernel_mode("numpy"):
            ref = solve_budget_batch(requests)
        with kernel_mode("numba"):
            out = solve_budget_batch(requests)
        assert ref == out


class TestKernelFlag:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_kernels("cuda")

    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_kernels()
        with kernels.use_kernels("numpy"):
            assert kernels.active_kernels() == "numpy"

    def test_env_var_read_on_none(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "numpy")
        with kernels.use_kernels(None):
            assert kernels.active() == "numpy"

    def test_unset_env_var_selects_numpy_even_with_numba(self, monkeypatch):
        # The default is the numpy reference, not "auto": numba runs only
        # when asked for, even where it is installed.
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
        with kernels.use_kernels(None):
            assert kernels.active() == "numpy"

    def test_auto_resolves_to_an_available_backend(self):
        with kernels.use_kernels("auto"):
            assert kernels.active() in kernels.available_kernels()

    def test_use_kernels_restores_previous_selection(self):
        before = kernels.active()
        with kernels.use_kernels("numpy"):
            assert kernels.active() == "numpy"
        assert kernels.active() == before

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba is installed here")
    def test_numba_request_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert kernels.set_kernels("numba") == "numpy"
        kernels.set_kernels(None)

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba is installed here")
    def test_auto_without_numba_is_numpy(self):
        with kernels.use_kernels("auto"):
            assert kernels.active() == "numpy"
