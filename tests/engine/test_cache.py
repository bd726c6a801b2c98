"""Tests for the policy cache (LRU memoization behind signatures)."""

from __future__ import annotations

import pytest

from repro.engine.cache import PolicyCache


def resolve(cache: PolicyCache, signature, policy):
    """One ``(policy, was_hit)`` lookup whose miss solves to ``policy``."""
    [result] = cache.get_or_solve_many(
        [(signature, policy)], lambda requests: list(requests)
    )
    return result


class TestGetOrSolve:
    def test_miss_then_hit(self):
        cache = PolicyCache()
        calls = []

        def solve_many(requests):
            calls.append(list(requests))
            return ["policy"] * len(requests)

        value, hit = cache.get_or_solve_many([("sig", None)], solve_many)[0]
        assert (value, hit) == ("policy", False)
        value, hit = cache.get_or_solve_many([("sig", None)], solve_many)[0]
        assert (value, hit) == ("policy", True)
        assert len(calls) == 1

    def test_distinct_signatures_solve_separately(self):
        cache = PolicyCache()
        a, _ = resolve(cache, ("n", 1), "a")
        b, _ = resolve(cache, ("n", 2), "b")
        assert (a, b) == ("a", "b")
        assert len(cache) == 2

    def test_stats_counters(self):
        cache = PolicyCache()
        resolve(cache, "x", 1)
        resolve(cache, "x", 1)
        resolve(cache, "y", 2)
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.entries == 2

    def test_hit_rate_zero_before_lookups(self):
        assert PolicyCache().stats.hit_rate == 0.0


class TestBounds:
    def test_lru_eviction(self):
        cache = PolicyCache(max_entries=2)
        resolve(cache, "a", 1)
        resolve(cache, "b", 2)
        resolve(cache, "a", 1)  # refresh a; b is now LRU
        resolve(cache, "c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = PolicyCache(max_entries=0)
        resolve(cache, "a", 1)
        _, hit = resolve(cache, "a", 1)
        assert not hit
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            PolicyCache(max_entries=-1)

    def test_clear_resets(self):
        cache = PolicyCache()
        resolve(cache, "a", 1)
        resolve(cache, "a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
