"""Shard determinism and the factored arrival split.

The contract under test: the shard count never changes results.  The
same seed must produce identical per-campaign outcomes for one shard or
many — because every random decision is keyed by campaign, not by shard
layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CampaignSpec,
    LogitRouter,
    PolicyCache,
    ShardedEngine,
    UniformRouter,
    generate_workload,
    shard_of,
)
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream


@pytest.fixture
def stream() -> SharedArrivalStream:
    means = 1400.0 + 500.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, 72))
    return SharedArrivalStream(means)


def run_sharded(stream, num_shards, router=None, seed=5):
    engine = ShardedEngine(
        stream,
        paper_acceptance_model(),
        num_shards=num_shards,
        router=router,
        cache=PolicyCache(max_entries=256),
        planning="stationary",
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


class TestShardDeterminism:
    def test_one_vs_many_shards_identical_outcomes(self, stream):
        one = run_sharded(stream, 1)
        three = run_sharded(stream, 3)
        five = run_sharded(stream, 5)
        assert outcome_key(one) == outcome_key(three) == outcome_key(five)
        assert one.total_completed == three.total_completed
        assert one.total_arrivals == three.total_arrivals == five.total_arrivals
        assert one.total_accepted == three.total_accepted

    # 2 and 4 are the shard-scaling benchmark's layouts; 64 shards over 36
    # campaigns leaves most shards empty on every tick.
    @pytest.mark.parametrize("num_shards", [2, 4, 8, 64])
    def test_every_shard_count_matches_one_shard(self, stream, num_shards):
        one = run_sharded(stream, 1)
        many = run_sharded(stream, num_shards)
        assert outcome_key(many) == outcome_key(one)
        assert many.total_arrivals == one.total_arrivals
        assert many.total_considered == one.total_considered
        assert many.total_accepted == one.total_accepted

    def test_same_seed_reproducible(self, stream):
        assert outcome_key(run_sharded(stream, 2)) == outcome_key(
            run_sharded(stream, 2)
        )

    def test_different_seeds_differ(self, stream):
        assert outcome_key(run_sharded(stream, 2, seed=5)) != outcome_key(
            run_sharded(stream, 2, seed=6)
        )

    def test_uniform_router_is_also_shard_invariant(self, stream):
        router = UniformRouter(paper_acceptance_model())
        one = run_sharded(stream, 1, router=router)
        four = run_sharded(stream, 4, router=router)
        assert outcome_key(one) == outcome_key(four)
        # Uniform attention considers more workers than it converts.
        assert one.total_considered > one.total_accepted

    def test_result_reports_shard_count(self, stream):
        result = run_sharded(stream, 4)
        assert result.num_shards == 4
        assert "across 4 shards" in result.summary()


class TestShardAssignment:
    def test_stable_and_in_range(self):
        ids = [f"camp-{i}" for i in range(200)]
        first = [shard_of(cid, 7) for cid in ids]
        assert first == [shard_of(cid, 7) for cid in ids]
        assert set(first) <= set(range(7))
        assert len(set(first)) > 1  # actually spreads

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_of("x", 0)

    @pytest.mark.parametrize("num_shards", [1, 3, 64])
    def test_live_campaigns_sit_in_their_hash_shard(self, stream, num_shards):
        engine = ShardedEngine(
            stream, paper_acceptance_model(), num_shards=num_shards,
            planning="stationary",
        )
        engine.submit(generate_workload(36, stream.num_intervals, seed=17))
        core = engine.start(seed=5)
        seen_live = False
        while not core.done:
            core.tick()
            shards = core.backend.shards
            assert [shard.index for shard in shards] == list(range(num_shards))
            placed = []
            for shard in shards:
                for c in shard.campaigns:
                    cid = c.live.spec.campaign_id
                    assert shard_of(cid, num_shards) == shard.index
                    placed.append(cid)
            # Every live campaign is in exactly one shard.
            live = [cid for cid, *_ in core.backend.live_stats()]
            assert sorted(placed) == live
            seen_live = seen_live or bool(placed)
        engine.close()
        assert seen_live


class TestValidation:
    def test_submit_checks_match_the_unsharded_engine(self, stream):
        engine = ShardedEngine(stream, paper_acceptance_model(), num_shards=2)
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
        with pytest.raises(ValueError, match="num_shards"):
            ShardedEngine(stream, acceptance, num_shards=0)


class TestLifecycle:
    def make_engine(self, stream):
        engine = ShardedEngine(
            stream, paper_acceptance_model(), num_shards=3,
            planning="stationary",
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


class TestStreamSplit:
    def test_split_preserves_total_mean(self, stream):
        shards = stream.split(4)
        assert len(shards) == 4
        total = sum(s.arrival_means for s in shards)
        assert np.allclose(total, stream.arrival_means)

    def test_split_validation(self, stream):
        with pytest.raises(ValueError, match="num_shards"):
            stream.split(0)
