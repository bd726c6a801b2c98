"""The cache's batch drain and the engine's one admission path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.deadline.adaptive as adaptive_module
from repro.core.batch import BatchPolicySolver
from repro.core.deadline import vectorized
from repro.engine import CampaignSpec, MarketplaceEngine, PolicyCache, generate_workload
from repro.engine.planning import CampaignPlanner
from repro.market.acceptance import paper_acceptance_model
from repro.sim.policies import SemiStaticRuntime, TablePolicyRuntime
from repro.sim.stream import SharedArrivalStream


MEANS = 1200.0 + 400.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, 64))


@pytest.fixture
def stream() -> SharedArrivalStream:
    return SharedArrivalStream(MEANS)


class TestGetOrSolveMany:
    def solve_many(self, requests):
        self.calls.append(list(requests))
        return [f"policy-{r}" for r in requests]

    def setup_method(self):
        self.calls = []

    def test_all_misses_solved_in_one_call(self):
        cache = PolicyCache()
        out = cache.get_or_solve_many(
            [("a", 1), ("b", 2), ("c", 3)], self.solve_many
        )
        assert out == [("policy-1", False), ("policy-2", False), ("policy-3", False)]
        assert self.calls == [[1, 2, 3]]
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_cached_entries_answered_without_solving(self):
        cache = PolicyCache()
        cache.get_or_solve_many([("a", 0)], lambda requests: ["old-a"])
        out = cache.get_or_solve_many([("a", 1), ("b", 2)], self.solve_many)
        assert out == [("old-a", True), ("policy-2", False)]
        assert self.calls == [[2]]
        assert cache.stats.hits == 1 and cache.stats.misses == 2  # incl. old miss

    def test_duplicates_within_batch_solved_once_scored_as_hits(self):
        cache = PolicyCache()
        out = cache.get_or_solve_many(
            [("a", 1), ("a", 1), ("b", 2), ("a", 1)], self.solve_many
        )
        assert [hit for _, hit in out] == [False, True, False, True]
        assert self.calls == [[1, 2]]
        assert cache.stats.misses == 2 and cache.stats.hits == 2
        # ...and the entries are stored for later lookups.
        assert "a" in cache and "b" in cache

    def test_disabled_cache_solves_every_item(self):
        cache = PolicyCache(max_entries=0)
        out = cache.get_or_solve_many(
            [("a", 1), ("a", 1), ("b", 2)], self.solve_many
        )
        assert [hit for _, hit in out] == [False, False, False]
        assert self.calls == [[1, 1, 2]]
        assert cache.stats.misses == 3 and len(cache) == 0

    def test_eviction_respects_capacity(self):
        cache = PolicyCache(max_entries=2)
        cache.get_or_solve_many([("a", 1), ("b", 2), ("c", 3)], self.solve_many)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "a" not in cache and "c" in cache

    def test_length_mismatch_rejected(self):
        cache = PolicyCache()
        with pytest.raises(ValueError, match="returned"):
            cache.get_or_solve_many([("a", 1)], lambda requests: [])

    def test_empty_items(self):
        cache = PolicyCache()
        assert cache.get_or_solve_many([], self.solve_many) == []
        assert self.calls == []


class TestBatchPolicySolverStats:
    def test_counters_accumulate(self):
        from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
        from repro.market.acceptance import paper_acceptance_model

        solver = BatchPolicySolver()
        assert solver.stats.batches == 0
        assert solver.stats.mean_batch_size == 0.0
        problems = [
            DeadlineProblem(
                num_tasks=6,
                arrival_means=np.full(4, 30.0 + i),
                acceptance=paper_acceptance_model(),
                price_grid=np.arange(1.0, 11.0),
                penalty=PenaltyScheme(per_task=50.0),
            )
            for i in range(3)
        ]
        solver.solve_deadline_many(problems)
        solver.solve_deadline_many(problems[:1])
        stats = solver.stats
        assert stats.batches == 2
        assert stats.instances == 4
        assert stats.largest_batch == 3
        assert stats.mean_batch_size == pytest.approx(2.0)
        solver.solve_deadline_many([])  # empty drains are not counted
        assert solver.stats.batches == 2


#: Campaign shapes a generated tick draws from: two deadline shapes that
#: stack into one tensor group (they differ only in penalty), one that
#: does not, and two budget shapes over one marketplace.
SHAPES = (
    dict(kind="deadline", num_tasks=4, horizon_intervals=3, max_price=6,
         penalty_per_task=40.0),
    dict(kind="deadline", num_tasks=4, horizon_intervals=3, max_price=6,
         penalty_per_task=90.0),
    dict(kind="deadline", num_tasks=7, horizon_intervals=4, max_price=8,
         penalty_per_task=60.0),
    dict(kind="budget", num_tasks=5, horizon_intervals=3, max_price=8,
         budget=30.0),
    dict(kind="budget", num_tasks=8, horizon_intervals=4, max_price=8,
         budget=70.0),
)


@st.composite
def tick_specs(draw) -> list[CampaignSpec]:
    """One admission tick: repeated shapes, adaptive and budget specs."""
    specs = []
    for i in range(draw(st.integers(1, 8))):
        shape = SHAPES[draw(st.integers(0, len(SHAPES) - 1))]
        adaptive = shape["kind"] == "deadline" and draw(st.booleans())
        specs.append(CampaignSpec(
            campaign_id=f"c{i}", submit_interval=draw(st.integers(0, 2)),
            adaptive=adaptive, resolve_every=2, **shape,
        ))
    return specs


def admitted_policy(campaign):
    """What a live campaign prices with, in comparable form."""
    runtime = campaign.runtime
    if isinstance(runtime, TablePolicyRuntime):
        return ("table", runtime.policy.price_index.tobytes(),
                runtime.policy.opt.tobytes())
    if isinstance(runtime, SemiStaticRuntime):
        return ("semi-static", runtime.strategy)
    return ("adaptive", runtime.problem.signature())


class TestOnePath:
    @settings(max_examples=40, deadline=None)
    @given(
        specs=tick_specs(),
        cache_entries=st.sampled_from([0, 256]),
        planning=st.sampled_from(["sliced", "stationary"]),
    )
    def test_admit_many_matches_one_at_a_time(self, specs, cache_entries, planning):
        # One tick's admit_many gives every campaign the policy, hit flag
        # and solve count that admitting the specs one at a time gives,
        # and leaves the same cache counters and batch-solver instances.
        def planner() -> CampaignPlanner:
            return CampaignPlanner(
                paper_acceptance_model(), PolicyCache(max_entries=cache_entries),
                planning, MEANS,
            )

        together, apart = planner(), planner()
        batched = together.admit_many(specs)
        single = [apart.admit(spec) for spec in specs]
        for a, b in zip(batched, single, strict=True):
            assert a.spec == b.spec
            assert (a.cache_hit, a.initial_solves) == (b.cache_hit, b.initial_solves)
            assert admitted_policy(a) == admitted_policy(b)
        assert together.cache.stats == apart.cache.stats
        misses = together.cache.stats.misses
        assert together.batch_solver.stats.instances == misses
        assert apart.batch_solver.stats.instances == misses


class TestEngineBatchAdmission:
    def outcome_key(self, result):
        return [
            (
                o.spec.campaign_id,
                o.completed,
                o.remaining,
                round(o.total_cost, 9),
                o.finished_interval,
                o.cache_hit,
                o.num_solves,
            )
            for o in result.outcomes
        ]

    def run(self, stream):
        engine = MarketplaceEngine(
            stream, paper_acceptance_model(), planning="stationary"
        )
        engine.submit(generate_workload(40, stream.num_intervals, seed=13))
        return engine.run(seed=13)

    def test_kernel_matches_the_scalar_oracle(self, stream, monkeypatch):
        # Every admission miss and every adaptive re-solve runs the batched
        # kernel; with both sent back to the vectorized scalar solver, a
        # sliced run with adaptive campaigns must retire identical outcomes.
        def sliced_run():
            engine = MarketplaceEngine(
                stream,
                paper_acceptance_model(),
                cache=PolicyCache(max_entries=256),
                planning="sliced",
            )
            engine.submit(generate_workload(
                40, stream.num_intervals, seed=13, adaptive_fraction=0.5
            ))
            return engine.run(seed=13)

        kernel = sliced_run()
        assert kernel.batch_stats.instances == kernel.cache_stats.misses > 0
        monkeypatch.setattr(
            BatchPolicySolver, "solve_deadline_many",
            lambda solver, problems: [vectorized.solve_deadline(p) for p in problems],
        )
        monkeypatch.setattr(adaptive_module, "solve_deadline", vectorized.solve_deadline)
        oracle = sliced_run()
        assert any(o.spec.adaptive and o.num_solves > 1 for o in oracle.outcomes)
        assert self.outcome_key(kernel) == self.outcome_key(oracle)
        assert kernel.checksum == oracle.checksum

    def test_batch_stats_reported(self, stream):
        result = self.run(stream)
        assert result.batch_stats is not None
        # Every admission miss, one-campaign ticks included, is solved by
        # the batch solver.
        assert 0 < result.batch_stats.instances == result.cache_stats.misses
        assert "batch solver" in result.summary()
