"""Adaptive campaigns' first plans, seeded from the policy cache at admission.

``CampaignPlanner.admit_many`` offers each adaptive campaign the cached
policy of its signature, if any, as its first plan.  The seed must be
invisible: the same tables and outcomes, and cache counters and LRU order
as if adaptive campaigns never looked at the cache.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.deadline.adaptive as adaptive_module
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.engine import DEADLINE, CampaignSpec, MarketplaceEngine, PolicyCache
from repro.engine import generate_workload
from repro.engine.planning import CampaignPlanner
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream

#: A periodic forecast: the slices at submit intervals 0 and 32 round to
#: the same 9-digit signature but differ in the last bits.
FORECAST = 1500.0 + 600.0 * np.sin(2.0 * np.pi * np.arange(64) / 32)


def deadline_spec(cid: str, submit: int, num_tasks: int = 6, adaptive=False):
    return CampaignSpec(
        campaign_id=cid, kind=DEADLINE, num_tasks=num_tasks,
        submit_interval=submit, horizon_intervals=5, max_price=12,
        penalty_per_task=20.0, adaptive=adaptive,
    )


def make_planner() -> CampaignPlanner:
    return CampaignPlanner(paper_acceptance_model(), PolicyCache(), "sliced", FORECAST)


def first_plan_dp_runs(live) -> int:
    """DP runs the campaign's repricer needs for its first price."""
    live.runtime.price(live.spec.num_tasks, 0)
    return live.runtime.num_dp_solves


class TestAdmissionSeed:
    def test_cache_counters_and_lru_order_are_untouched(self):
        static = [deadline_spec("a", 0), deadline_spec("b", 3, num_tasks=7)]
        # "x" is a's twin and "z" b's, a tick later; "y" has no twin.
        ticks = [
            static + [deadline_spec("x", 0, adaptive=True),
                      deadline_spec("y", 9, adaptive=True)],
            [deadline_spec("z", 3, num_tasks=7, adaptive=True)],
        ]
        with_adaptive, static_only = make_planner(), make_planner()
        admitted = [lc for tick in ticks for lc in with_adaptive.admit_many(tick)]
        static_only.admit_many(static)
        for planner in (with_adaptive, static_only):
            assert planner.cache.stats.hits == 0
            assert planner.cache.stats.misses == 2
        # A counting lookup of "x" would have moved a's entry behind b's.
        assert list(with_adaptive.cache._entries) == list(static_only.cache._entries)
        assert list(with_adaptive.cache._entries) == [
            static_only.cache_signature(spec) for spec in static
        ]
        runs = {lc.spec.campaign_id: first_plan_dp_runs(lc)
                for lc in admitted if lc.spec.adaptive}
        assert runs == {"x": 0, "y": 1, "z": 0}

    def test_a_near_twin_from_another_submit_interval_is_not_seeded(self):
        planner = make_planner()
        twin, near = deadline_spec("a", 0), deadline_spec("n", 32, adaptive=True)
        assert planner.cache_signature(twin) == planner.cache_signature(near)
        assert not np.array_equal(
            planner.planning_slice(twin), planner.planning_slice(near)
        )
        live = planner.admit_many([twin, near])
        assert first_plan_dp_runs(live[1]) == 1

    def test_a_disabled_cache_seeds_nothing(self):
        planner = CampaignPlanner(
            paper_acceptance_model(), PolicyCache(0), "sliced", FORECAST
        )
        live = planner.admit_many(
            [deadline_spec("a", 0), deadline_spec("x", 0, adaptive=True)]
        )
        assert first_plan_dp_runs(live[1]) == 1


class TestEngineRuns:
    def run(self, monkeypatch, seed_first_plans: bool):
        dp_runs = []
        solve = adaptive_module.solve_deadline

        def counted(problem):
            dp_runs.append(problem)
            return solve(problem)

        with monkeypatch.context() as patch:
            patch.setattr(adaptive_module, "solve_deadline", counted)
            if not seed_first_plans:
                patch.setattr(
                    AdaptiveRepricer, "seed_first_plan", lambda self, policy: False
                )
            engine = MarketplaceEngine(
                SharedArrivalStream(FORECAST), paper_acceptance_model(),
                planning="sliced",
            )
            engine.submit(generate_workload(
                60, FORECAST.size, seed=4, adaptive_fraction=0.5, submit_waves=6,
            ))
            result = engine.run(seed=4)
            engine.close()
        return result, len(dp_runs)

    def test_seeded_first_plans_change_nothing_but_dp_runs(self, monkeypatch):
        seeded, seeded_runs = self.run(monkeypatch, seed_first_plans=True)
        plain, plain_runs = self.run(monkeypatch, seed_first_plans=False)
        assert seeded_runs < plain_runs
        assert seeded.checksum == plain.checksum
        assert seeded.cache_stats == plain.cache_stats
        assert [
            (o.spec.campaign_id, o.total_cost, o.completed, o.num_solves)
            for o in seeded.outcomes
        ] == [
            (o.spec.campaign_id, o.total_cost, o.completed, o.num_solves)
            for o in plain.outcomes
        ]
        assert any(o.spec.adaptive and o.num_solves > 1 for o in seeded.outcomes)


@pytest.mark.parametrize("planning", ["sliced", "stationary"])
def test_every_adaptive_table_matches_a_fresh_suffix_solve(planning):
    """End to end: whatever slices and seeds produced, each table a live
    repricer holds is the fresh solve of its suffix problem."""
    engine = MarketplaceEngine(
        SharedArrivalStream(FORECAST), paper_acceptance_model(), planning=planning,
    )
    engine.submit(generate_workload(
        40, FORECAST.size, seed=6, adaptive_fraction=0.6, submit_waves=5,
    ))
    core = engine.start(seed=6)
    checked: set = set()
    while not core.done:
        core.tick()
        for live in core.live:
            repricer = live.runtime
            if not isinstance(repricer, AdaptiveRepricer):
                continue
            problem = repricer.problem
            for key, table in repricer.export_state()["cache"].items():
                if (live.spec.campaign_id, key) in checked:
                    continue
                anchor, factor = key
                suffix = problem.with_arrival_means(
                    problem.arrival_means[anchor:] * factor
                )
                np.testing.assert_array_equal(
                    table, adaptive_module.solve_deadline(suffix).price_index
                )
                checked.add((live.spec.campaign_id, key))
    engine.close()
    assert len(checked) > 20
