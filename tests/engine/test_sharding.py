"""The factored arrival model: determinism, validation, lifecycle.

Under ``arrivals="factored"`` every random decision is keyed by campaign:
each live campaign draws its acceptances from a private generator and a
market generator draws the walk-away remainder, so the same seed must
reproduce the same per-campaign outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CampaignSpec,
    LogitRouter,
    MarketplaceEngine,
    PolicyCache,
    UniformRouter,
    generate_workload,
)
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream


@pytest.fixture
def stream() -> SharedArrivalStream:
    means = 1400.0 + 500.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, 72))
    return SharedArrivalStream(means)


def run_factored(stream, seed=5, router=None):
    engine = MarketplaceEngine(
        stream,
        paper_acceptance_model(),
        router=router,
        cache=PolicyCache(max_entries=256),
        planning="stationary",
        arrivals="factored",
    )
    engine.submit(generate_workload(36, stream.num_intervals, seed=17))
    return engine.run(seed=seed)


def outcome_key(result):
    return [
        (
            o.spec.campaign_id,
            o.completed,
            o.remaining,
            round(o.total_cost, 9),
            round(o.penalty, 9),
            o.finished_interval,
        )
        for o in result.outcomes
    ]


class TestFactoredDeterminism:
    def test_same_seed_reproducible(self, stream):
        assert outcome_key(run_factored(stream)) == outcome_key(
            run_factored(stream)
        )

    def test_different_seeds_differ(self, stream):
        assert outcome_key(run_factored(stream, seed=5)) != outcome_key(
            run_factored(stream, seed=6)
        )

    def test_uniform_router_considers_more_than_it_converts(self, stream):
        # The declined draw lands in ``considered``: uniform attention
        # spreads looks evenly, and many of them decline.
        result = run_factored(stream, router=UniformRouter(paper_acceptance_model()))
        assert result.total_considered > result.total_accepted > 0
        assert result.total_arrivals >= result.total_considered


class TestValidation:
    def test_submit_checks_match_the_pooled_engine(self, stream):
        engine = MarketplaceEngine(
            stream, paper_acceptance_model(), planning="stationary",
            arrivals="factored",
        )
        spec = CampaignSpec(
            campaign_id="dl-0",
            kind="deadline",
            num_tasks=10,
            submit_interval=0,
            horizon_intervals=12,
        )
        engine.submit(spec)
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(spec)
        with pytest.raises(ValueError, match="beyond"):
            engine.submit(
                CampaignSpec(
                    campaign_id="dl-late",
                    kind="deadline",
                    num_tasks=10,
                    submit_interval=70,
                    horizon_intervals=12,
                )
            )

    def test_bad_constructor_arguments(self, stream):
        acceptance = paper_acceptance_model()
        for arrivals in ("sharded", "Pooled", "", None):
            with pytest.raises(ValueError, match="arrivals must be one of"):
                MarketplaceEngine(stream, acceptance, arrivals=arrivals)

    def test_factored_sessions_take_a_seed_not_a_generator(self, stream):
        engine = MarketplaceEngine(
            stream, paper_acceptance_model(), arrivals="factored"
        )
        with pytest.raises(ValueError, match="pass seed="):
            engine.start(seed=5, rng=np.random.default_rng(5))


class TestLifecycle:
    def make_engine(self, stream):
        engine = MarketplaceEngine(
            stream, paper_acceptance_model(), planning="stationary",
            arrivals="factored",
        )
        engine.submit(generate_workload(12, stream.num_intervals, seed=17))
        return engine

    def test_close_is_idempotent(self, stream):
        engine = self.make_engine(stream)
        engine.close()  # no session yet
        core = engine.start(seed=5)
        core.tick()
        engine.close()
        engine.close()
        assert engine.core is None

    def test_tick_after_close_is_rejected(self, stream):
        engine = self.make_engine(stream)
        engine.start(seed=5)
        engine.tick()
        engine.close()
        with pytest.raises(RuntimeError, match="no active serving session"):
            engine.tick()

    def test_run_after_a_closed_session_matches_a_fresh_engine(self, stream):
        engine = self.make_engine(stream)
        core = engine.start(seed=5)
        for _ in range(6):
            core.tick()
        engine.close()
        again = engine.run(seed=5)
        fresh = self.make_engine(stream).run(seed=5)
        assert outcome_key(again) == outcome_key(fresh)
        assert again.total_arrivals == fresh.total_arrivals


class TestRouterFractions:
    def test_logit_single_campaign_reduces_to_acceptance_probability(self):
        model = paper_acceptance_model()
        router = LogitRouter(model)
        accept, consider = router.fractions([12.0])
        assert accept[0] == pytest.approx(model.probability(12.0))
        assert np.array_equal(accept, consider)

    def test_logit_fractions_leave_walkaway_mass(self):
        router = LogitRouter(paper_acceptance_model())
        accept, _ = router.fractions([5.0, 10.0, 20.0])
        assert np.all(accept > 0)
        assert accept.sum() < 1.0
        assert accept[2] > accept[0]  # higher reward draws more workers

    def test_uniform_fractions(self):
        model = paper_acceptance_model()
        router = UniformRouter(model)
        accept, consider = router.fractions([5.0, 25.0])
        assert consider == pytest.approx([0.5, 0.5])
        assert accept[0] == pytest.approx(0.5 * model.probability(5.0))
        assert np.all(accept <= consider)

    def test_empty_price_vector(self):
        router = LogitRouter(paper_acceptance_model())
        accept, consider = router.fractions([])
        assert accept.size == 0 and consider.size == 0
