"""Property-based draw discipline of the factored arrival model (hypothesis).

The factored model's determinism rests on one guarantee: a tick of a
factored session (:meth:`repro.engine.clock.EngineCore.tick`) consumes
**exactly two Poisson draws per live campaign per tick from that
campaign's private generator**, whatever the routed fractions (including
zero-mass edge cases).  This draw discipline is *why* no campaign's random stream
can shift with what the other campaigns post: every campaign consumes
its own generator at the same rate.  Extends the PR 3
counting-generator pattern from the router to the factored tick.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import CampaignSpec, MarketplaceEngine
from repro.engine.planning import POSTED, _LiveCampaign
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream


class _CountingPoisson:
    """Duck-typed generator proxy counting a campaign's Poisson draws."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def poisson(self, lam):
        self.calls += 1
        return self._rng.poisson(lam)


class _InertRuntime:
    """Minimal non-semi-static runtime posting one flat reward."""

    def price(self, remaining, interval):
        return 10.0


class _FixedRouter:
    """Router stub answering preset ``(accept, consider)`` fractions."""

    def __init__(self, accept, consider):
        self.answer = (np.asarray(accept, float), np.asarray(consider, float))

    def fractions(self, prices):
        return self.answer


def _session_with(fractions, mean, num_tasks=1_000_000):
    """A started factored session whose live campaigns draw through counters.

    ``fractions`` maps campaign id to its routed ``(accept, consider)``;
    ids are kept in sorted order, the order a factored session keeps its
    live list in.  Returns the session, the live campaigns and their
    counters.
    """
    cids = sorted(fractions)
    router = _FixedRouter(
        [fractions[cid][0] for cid in cids], [fractions[cid][1] for cid in cids]
    )
    engine = MarketplaceEngine(
        SharedArrivalStream(np.full(64, mean)),
        paper_acceptance_model(),
        router=router,
        arrivals="factored",
    )
    core = engine.start(seed=0)
    counters = {}
    for cid in cids:
        spec = CampaignSpec(
            campaign_id=cid, kind="deadline", num_tasks=num_tasks,
            submit_interval=0, horizon_intervals=64,
        )
        live = _LiveCampaign(
            spec, _InertRuntime(), POSTED, cache_hit=False, initial_solves=0
        )
        counters[cid] = live.rng = _CountingPoisson(seed=hash(cid) & 0xFFFF)
        core.live.append(live)
    return core, list(core.live), counters


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


class TestFactoredDrawDiscipline:
    @settings(max_examples=150, deadline=None)
    @given(pairs=fraction_pairs,
           mean=st.floats(min_value=0.0, max_value=5e4,
                          allow_nan=False, allow_infinity=False),
           ticks=st.integers(min_value=1, max_value=4))
    def test_exactly_two_draws_per_campaign_per_tick(self, pairs, mean, ticks):
        # accept <= consider by construction (accept, accept + slack).
        fractions = {
            f"prop-{i:02d}": (a, min(a + slack, 1.0))
            for i, (a, slack) in enumerate(pairs)
        }
        core, _, counters = _session_with(fractions, mean)
        for _ in range(ticks):
            core.tick()
        for cid in fractions:
            assert counters[cid].calls == 2 * ticks, (
                f"{cid}: draw discipline broken — random streams would "
                "shift with the routed fractions"
            )

    @settings(max_examples=100, deadline=None)
    @given(pairs=fraction_pairs,
           mean=st.floats(min_value=0.0, max_value=5e4,
                          allow_nan=False, allow_infinity=False),
           num_tasks=st.integers(min_value=1, max_value=40))
    def test_tick_accounting_is_consistent(self, pairs, mean, num_tasks):
        fractions = {
            f"acct-{i:02d}": (a, min(a + slack, 1.0))
            for i, (a, slack) in enumerate(pairs)
        }
        core, campaigns, _ = _session_with(fractions, mean, num_tasks=num_tasks)
        report = core.tick()
        assert 0 <= report.accepted <= report.considered <= report.arrived
        completed = 0
        for campaign in campaigns:
            done = num_tasks - campaign.remaining
            completed += done
            assert 0 <= done <= num_tasks  # capped at the open tasks
            assert campaign.total_cost == done * 10.0  # the posted reward
            assert (campaign.finished_interval == 0) == (campaign.remaining == 0)
        assert completed <= report.accepted

    def test_zero_fraction_campaign_still_draws_twice(self):
        # The regression this guards: skipping "pointless" zero-rate draws
        # would silently decorrelate runs that differ only in one
        # campaign's routed mass.
        core, _, counters = _session_with(
            {"zero": (0.0, 0.0), "busy": (0.2, 0.4)}, mean=2000.0
        )
        report = core.tick()
        assert counters["zero"].calls == 2
        assert counters["busy"].calls == 2
        assert report.accepted <= report.considered <= report.arrived
