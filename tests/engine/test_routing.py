"""Tests for the arrival routers splitting the shared worker stream."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.routing import LogitRouter, UniformRouter
from repro.market.acceptance import EmpiricalAcceptance, paper_acceptance_model


@pytest.fixture
def logit_router(paper_acceptance):
    return LogitRouter(paper_acceptance)


@pytest.fixture
def uniform_router(paper_acceptance):
    return UniformRouter(paper_acceptance)


class TestInvariants:
    @pytest.mark.parametrize("router_name", ["logit_router", "uniform_router"])
    def test_counts_are_consistent(self, router_name, request, rng):
        router = request.getfixturevalue(router_name)
        prices = [5.0, 15.0, 25.0]
        considered, accepted = router.split(5000, prices, rng)
        assert considered.shape == accepted.shape == (3,)
        assert np.all(accepted <= considered)
        assert considered.sum() <= 5000

    @pytest.mark.parametrize("router_name", ["logit_router", "uniform_router"])
    def test_zero_arrivals(self, router_name, request, rng):
        router = request.getfixturevalue(router_name)
        considered, accepted = router.split(0, [10.0, 20.0], rng)
        assert considered.tolist() == [0, 0]
        assert accepted.tolist() == [0, 0]

    @pytest.mark.parametrize("router_name", ["logit_router", "uniform_router"])
    def test_no_live_campaigns(self, router_name, request, rng):
        router = request.getfixturevalue(router_name)
        considered, accepted = router.split(100, [], rng)
        assert considered.size == 0 and accepted.size == 0

    @pytest.mark.parametrize("router_name", ["logit_router", "uniform_router"])
    def test_negative_arrivals_rejected(self, router_name, request, rng):
        router = request.getfixturevalue(router_name)
        with pytest.raises(ValueError, match="arrived"):
            router.split(-1, [10.0], rng)

    def test_deterministic_under_seed(self, logit_router):
        a = logit_router.split(1000, [5.0, 15.0], np.random.default_rng(3))
        b = logit_router.split(1000, [5.0, 15.0], np.random.default_rng(3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestLogitRouter:
    def test_single_campaign_reduces_to_acceptance_model(self, logit_router, rng):
        """Alone on the marketplace, choice probability equals Eq. 3's p(c)."""
        price, arrived, reps = 15.0, 2000, 60
        p = logit_router.model.probability(price)
        totals = [logit_router.split(arrived, [price], rng)[1][0] for _ in range(reps)]
        mean = np.mean(totals)
        expected = arrived * p
        # 6-sigma band around the binomial mean.
        sigma = np.sqrt(arrived * p * (1 - p) / reps)
        assert abs(mean - expected) < 6 * sigma

    def test_higher_price_attracts_more_workers(self, logit_router, rng):
        considered, _ = logit_router.split(200_000, [5.0, 25.0], rng)
        assert considered[1] > considered[0]

    def test_contention_cannibalizes_acceptance(self, logit_router):
        """K identical campaigns together draw less than K times one alone."""
        price, arrived = 20.0, 1_000_000
        solo = logit_router.split(arrived, [price], np.random.default_rng(0))[1][0]
        tenfold = logit_router.split(
            arrived, [price] * 10, np.random.default_rng(0)
        )[1]
        assert tenfold.sum() < 10 * solo
        # ... but each individual campaign still gets close to its solo share
        # (the competing mass M dominates a handful of rivals).
        assert tenfold.sum() > 9 * solo

    def test_requires_logit_model(self):
        table = EmpiricalAcceptance({5.0: 0.01, 30.0: 0.05})
        with pytest.raises(TypeError, match="LogitAcceptance"):
            LogitRouter(table)


class TestUniformRouter:
    def test_attention_split_is_uniform(self, uniform_router, rng):
        considered, _ = uniform_router.split(90_000, [5.0, 15.0, 25.0], rng)
        assert considered.sum() == 90_000
        assert np.all(np.abs(considered - 30_000) < 1_500)

    def test_acceptance_follows_price(self, uniform_router, rng):
        p_model = paper_acceptance_model()
        considered, accepted = uniform_router.split(200_000, [5.0, 25.0], rng)
        for i, price in enumerate([5.0, 25.0]):
            expected = considered[i] * p_model.probability(price)
            assert accepted[i] == pytest.approx(expected, rel=0.25, abs=30)

    def test_works_with_empirical_model(self, rng):
        router = UniformRouter(EmpiricalAcceptance({1.0: 0.0, 30.0: 0.5}))
        considered, accepted = router.split(10_000, [1.0, 30.0], rng)
        assert accepted[0] == 0
        assert accepted[1] > 0


class _CountingGenerator:
    """Duck-typed generator proxy counting the router's draw calls."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.multinomial_calls = 0
        self.binomial_calls = 0

    def multinomial(self, n, pvals):
        self.multinomial_calls += 1
        return self._rng.multinomial(n, pvals)

    def binomial(self, n, p):
        self.binomial_calls += 1
        return self._rng.binomial(n, p)


class TestUniformRouterDrawDiscipline:
    """Regression for conditional RNG consumption (the ``if p > 0`` skip).

    The router must issue the *same sequence of generator calls* whatever
    the posted prices, otherwise every later draw of an engine run shifts
    depending on whether some price happened to hit zero acceptance —
    silently decorrelating runs that differ only in one campaign's policy.
    """

    ZERO_BELOW_10 = EmpiricalAcceptance({10.0: 0.0, 30.0: 0.5})

    def test_zero_acceptance_price_still_draws(self):
        router = UniformRouter(self.ZERO_BELOW_10)
        with_zero = _CountingGenerator()
        router.split(500, [5.0, 20.0], with_zero)
        without_zero = _CountingGenerator()
        router.split(500, [15.0, 20.0], without_zero)
        assert with_zero.multinomial_calls == without_zero.multinomial_calls == 1
        assert with_zero.binomial_calls == without_zero.binomial_calls == 1

    def test_zero_acceptance_price_accepts_nothing(self, rng):
        router = UniformRouter(self.ZERO_BELOW_10)
        considered, accepted = router.split(10_000, [5.0, 25.0], rng)
        assert accepted[0] == 0
        assert considered[0] > 0  # attention was still spent
        assert accepted[1] > 0


class TestLogitWeightHelper:
    def test_split_and_fractions_share_the_same_weights(self, logit_router):
        """The realized split's choice law must equal the factored
        fractions — the pooled and factored arrival models realize one
        choice model through them."""
        prices = [4.0, 12.0, 27.0]
        accept, consider = logit_router.fractions(prices)
        arrived = 2_000_000
        considered, accepted = logit_router.split(
            arrived, prices, np.random.default_rng(6)
        )
        np.testing.assert_array_equal(considered, accepted)
        np.testing.assert_allclose(accepted / arrived, accept, atol=5e-4)
        assert consider == pytest.approx(list(accept))
