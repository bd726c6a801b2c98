"""Property-based arrival-splitting invariants (hypothesis).

Two guarantees underpin the shard matrix's bit-identical contract:

* **Stream level** — :meth:`SharedArrivalStream.split` is a faithful
  Poisson split: for arbitrary mean vectors and shard counts, the
  per-interval means are conserved (superposition of the parts is
  distributed like the whole) and every part carries the same thinned
  rate.  Asserted for arbitrary inputs, not hand-picked cases.

* **Draw level** — the engine's finer-grained splitting
  (:meth:`repro.engine.sharding._Shard.step`) consumes **exactly two
  Poisson draws per live campaign per tick from that campaign's private
  generator**, whatever the routed fractions (including zero-mass edge
  cases) and however campaigns are laid out across shards.  This draw
  discipline is *why* the shard layout can never shift any random
  stream: every layout derives the same per-campaign generators and
  consumes them at the same rate.  Extends the PR 3 counting-generator pattern from the
  router to the shard tick.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import CampaignSpec
from repro.engine.planning import _LiveCampaign
from repro.engine.sharding import _Shard, _ShardCampaign, shard_of
from repro.sim.stream import SharedArrivalStream

means_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)
shard_counts = st.integers(min_value=1, max_value=9)


class TestSplitProperties:
    @settings(max_examples=200, deadline=None)
    @given(means=means_vectors, num_shards=shard_counts)
    def test_split_conserves_per_interval_means(self, means, num_shards):
        stream = SharedArrivalStream(np.array(means))
        parts = stream.split(num_shards)
        assert len(parts) == num_shards
        total = sum(p.arrival_means for p in parts)
        # atol floor: hypothesis finds subnormal rates (~1e-313) where
        # division can't round-trip; far below any physical arrival rate.
        np.testing.assert_allclose(
            total, stream.arrival_means, rtol=1e-12, atol=1e-300
        )

    @settings(max_examples=200, deadline=None)
    @given(means=means_vectors, num_shards=shard_counts)
    def test_split_parts_share_one_thinned_rate(self, means, num_shards):
        stream = SharedArrivalStream(np.array(means))
        parts = stream.split(num_shards)
        expected = stream.arrival_means / num_shards
        for part in parts:
            assert np.array_equal(part.arrival_means, expected)
            assert part.num_intervals == stream.num_intervals

    @settings(max_examples=100, deadline=None)
    @given(means=means_vectors)
    def test_split_one_is_the_identity(self, means):
        stream = SharedArrivalStream(np.array(means))
        (only,) = stream.split(1)
        assert np.array_equal(only.arrival_means, stream.arrival_means)
        # ...and an independent copy, not an alias into the original.
        assert only.arrival_means is not stream.arrival_means


class _CountingPoisson:
    """Duck-typed generator proxy counting a campaign's Poisson draws."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def poisson(self, lam):
        self.calls += 1
        return self._rng.poisson(lam)


class _InertRuntime:
    """Minimal non-semi-static runtime; step() only isinstance-checks it."""


def _shard_with(campaign_ids, num_tasks=1_000_000):
    """One shard owning fresh campaigns with counting generators."""
    shard = _Shard(0)
    counters = {}
    for cid in campaign_ids:
        spec = CampaignSpec(
            campaign_id=cid, kind="deadline", num_tasks=num_tasks,
            submit_interval=0, horizon_intervals=64,
        )
        live = _LiveCampaign(
            spec, _InertRuntime(), cache_hit=False, initial_solves=0
        )
        counters[cid] = _CountingPoisson(seed=hash(cid) & 0xFFFF)
        shard.campaigns.append(_ShardCampaign(live, counters[cid]))
    return shard, counters


fraction_pairs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=12,
)


class TestShardDrawDiscipline:
    @settings(max_examples=150, deadline=None)
    @given(pairs=fraction_pairs,
           mean=st.floats(min_value=0.0, max_value=5e4,
                          allow_nan=False, allow_infinity=False),
           ticks=st.integers(min_value=1, max_value=4))
    def test_exactly_two_draws_per_campaign_per_tick(self, pairs, mean, ticks):
        # accept <= consider by construction (accept, accept + slack).
        cids = [f"prop-{i:02d}" for i in range(len(pairs))]
        shard, counters = _shard_with(cids)
        fractions = {
            cid: (a, min(a + slack, 1.0))
            for cid, (a, slack) in zip(cids, pairs)
        }
        prices = {cid: 10.0 for cid in cids}
        for t in range(ticks):
            shard.step(t, mean, fractions, prices)
        for cid in cids:
            assert counters[cid].calls == 2 * ticks, (
                f"{cid}: draw discipline broken — random streams would "
                "shift with the routed fractions"
            )

    @settings(max_examples=50, deadline=None)
    @given(num_shards=st.integers(min_value=1, max_value=7))
    def test_draw_count_is_independent_of_shard_layout(self, num_shards):
        # The same 12 campaigns, dealt across any number of shards, consume
        # the same two draws each — layout only changes *which* shard makes
        # them.
        cids = [f"layout-{i:02d}" for i in range(12)]
        shards = {}
        counters = {}
        for cid in cids:
            index = shard_of(cid, num_shards)
            if index not in shards:
                shards[index], _ = _shard_with([])
            shard, owned = _shard_with([cid])
            shards[index].campaigns.extend(shard.campaigns)
            counters.update(owned)
        fractions = {cid: (0.01, 0.02) for cid in cids}
        prices = {cid: 10.0 for cid in cids}
        for shard in shards.values():
            shard.step(0, 1000.0, fractions, prices)
        assert all(counters[cid].calls == 2 for cid in cids)

    def test_zero_fraction_campaign_still_draws_twice(self):
        # The regression this guards: skipping "pointless" zero-rate draws
        # would silently decorrelate runs that differ only in one
        # campaign's routed mass.
        shard, counters = _shard_with(["zero", "busy"])
        fractions = {"zero": (0.0, 0.0), "busy": (0.2, 0.4)}
        prices = {"zero": 5.0, "busy": 5.0}
        considered, accepted = shard.step(0, 2000.0, fractions, prices)
        assert counters["zero"].calls == 2
        assert counters["busy"].calls == 2
        assert accepted <= considered

    def test_empty_shard_draws_nothing(self):
        shard, _ = _shard_with([])
        assert shard.step(0, 1000.0, {}, {}) == (0, 0)
