"""The cache's batch drain and the engine's batched admission path."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.deadline.adaptive as adaptive_module
import repro.engine.planning as planning_module
from repro.core.batch import BatchPolicySolver
from repro.core.deadline import vectorized
from repro.engine import MarketplaceEngine, PolicyCache, generate_workload
from repro.engine.planning import CampaignPlanner
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream


@pytest.fixture
def stream() -> SharedArrivalStream:
    means = 1200.0 + 400.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, 64))
    return SharedArrivalStream(means)


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
        cache.get_or_solve(("a"), lambda: "old-a")
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


def admit_one_by_one(monkeypatch) -> None:
    """Send every tick's admissions through ``CampaignPlanner.admit``."""
    monkeypatch.setattr(
        CampaignPlanner,
        "admit_many",
        lambda planner, specs: [planner.admit(spec) for spec in specs],
    )


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

    def run(self, stream, cache_entries=256):
        engine = MarketplaceEngine(
            stream,
            paper_acceptance_model(),
            cache=PolicyCache(max_entries=cache_entries),
            planning="stationary",
        )
        engine.submit(generate_workload(40, stream.num_intervals, seed=13))
        return engine.run(seed=13)

    def test_batch_and_scalar_paths_agree_exactly(self, stream, monkeypatch):
        batch = self.run(stream)
        admit_one_by_one(monkeypatch)
        scalar = self.run(stream)
        assert self.outcome_key(batch) == self.outcome_key(scalar)
        assert batch.cache_stats.hits == scalar.cache_stats.hits
        assert batch.cache_stats.misses == scalar.cache_stats.misses

    def test_batch_and_scalar_agree_with_cache_disabled(self, stream, monkeypatch):
        batch = self.run(stream, cache_entries=0)
        admit_one_by_one(monkeypatch)
        scalar = self.run(stream, cache_entries=0)
        assert self.outcome_key(batch) == self.outcome_key(scalar)
        assert batch.cache_stats.misses == scalar.cache_stats.misses

    @pytest.mark.parametrize("batch_admission", [True, False])
    def test_kernel_matches_the_scalar_oracle(
        self, stream, monkeypatch, batch_admission
    ):
        # Batched admission (True), one-by-one CampaignPlanner.admit
        # (False), and every adaptive re-solve run the batched kernel; with
        # the engine's single-instance solves sent back to the vectorized
        # scalar solver, a sliced run with adaptive campaigns must retire
        # identical outcomes.
        if not batch_admission:
            admit_one_by_one(monkeypatch)

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
        monkeypatch.setattr(planning_module, "solve_deadline", vectorized.solve_deadline)
        monkeypatch.setattr(adaptive_module, "solve_deadline", vectorized.solve_deadline)
        oracle = sliced_run()
        assert any(o.spec.adaptive and o.num_solves > 1 for o in oracle.outcomes)
        assert self.outcome_key(kernel) == self.outcome_key(oracle)
        assert kernel.checksum == oracle.checksum
        if not batch_admission:
            assert kernel.batch_stats.instances == 0

    def test_batch_stats_reported(self, stream):
        result = self.run(stream)
        assert result.batch_stats is not None
        # Single-spec ticks fall back to scalar admission, so the batch
        # solver sees at most (and usually most of) the cache misses.
        assert 0 < result.batch_stats.instances <= result.cache_stats.misses
        assert "batch solver" in result.summary()
