"""Tests for the adaptive re-solving policy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch.deadline import solve_deadline_batch, solve_deadline_single
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.core.deadline.vectorized import solve_deadline
from repro.sim.policies import TablePolicyRuntime
from repro.sim.simulator import DeadlineSimulation

from tests.conftest import make_problem


@pytest.fixture
def problem():
    return make_problem(
        num_tasks=10,
        arrival_means=[2000.0, 1500.0, 2500.0, 1800.0],
        max_price=15.0,
        penalty=100.0,
    )


class TestNeutralBehaviour:
    def test_matches_static_table_without_observations(self, problem):
        static = solve_deadline(problem)
        adaptive = AdaptiveRepricer(problem)
        for n in (1, 5, 10):
            assert adaptive.price(n, 0) == static.price(n, 0)

    def test_matches_static_when_arrivals_on_forecast(self, problem):
        static = solve_deadline(problem)
        adaptive = AdaptiveRepricer(problem)
        for t in range(problem.num_intervals):
            price_static = static.price(5, t)
            price_adaptive = adaptive.price(5, t)
            assert price_adaptive == price_static
            adaptive.observe(t, float(problem.arrival_means[t]))


class TestAdaptation:
    def test_underdelivery_raises_prices(self, problem):
        static = solve_deadline(problem)
        adaptive = AdaptiveRepricer(problem)
        adaptive.price(10, 0)
        adaptive.observe(0, 0.3 * float(problem.arrival_means[0]))
        adaptive.observe(1, 0.3 * float(problem.arrival_means[1]))
        # Mid-horizon with a big backlog and a learned shortfall.
        assert adaptive.price(10, 2) >= static.price(10, 2)
        assert adaptive.predictor.factor < 1.0

    def test_cache_limits_solves(self, problem):
        adaptive = AdaptiveRepricer(problem)
        for t in range(problem.num_intervals):
            adaptive.price(5, t)
            adaptive.observe(t, float(problem.arrival_means[t]))
        first_pass = adaptive.num_solves
        for t in range(problem.num_intervals):
            adaptive.price(5, t)
        assert adaptive.num_solves == first_pass  # all cached

    def test_resolve_every_reduces_solves(self, problem):
        every = AdaptiveRepricer(problem, resolve_every=1)
        coarse = AdaptiveRepricer(problem, resolve_every=2)
        for t in range(problem.num_intervals):
            every.price(5, t)
            coarse.price(5, t)
            # Feed diverging observations so factors keep moving.
            every.observe(t, 0.5 * float(problem.arrival_means[t]))
            coarse.observe(t, 0.5 * float(problem.arrival_means[t]))
        assert coarse.num_solves <= every.num_solves


class TestEndToEnd:
    def test_rescues_consistent_shortfall(self, problem):
        # True market delivers 40% of the forecast; the static table
        # (trained on the forecast) strands tasks, the adaptive one adapts.
        true_means = problem.arrival_means * 0.4
        sim = DeadlineSimulation(problem.num_tasks, true_means, problem.acceptance)
        static_runtime = TablePolicyRuntime(solve_deadline(problem))
        static_left = []
        adaptive_left = []
        for i in range(30):
            static_left.append(
                sim.run(static_runtime, np.random.default_rng(i)).remaining
            )
            adaptive_left.append(
                sim.run(AdaptiveRepricer(problem), np.random.default_rng(i)).remaining
            )
        assert np.mean(adaptive_left) <= np.mean(static_left)

    def test_validation(self, problem):
        with pytest.raises(ValueError):
            AdaptiveRepricer(problem, resolve_every=0)
        with pytest.raises(ValueError):
            AdaptiveRepricer(problem, factor_quantum=0.0)
        with pytest.raises(ValueError):
            AdaptiveRepricer(problem).price(0, 0)

    @pytest.mark.parametrize("quantum", [math.nan, math.inf, -math.inf, -0.05])
    def test_factor_quantum_must_be_positive_and_finite(self, problem, quantum):
        # NaN used to fail only at the first price ("cannot convert float
        # NaN to integer"), and inf priced from a NaN forecast.
        with pytest.raises(ValueError, match="factor_quantum must be positive"):
            AdaptiveRepricer(problem, factor_quantum=quantum)

    def test_repr(self, problem):
        assert "AdaptiveRepricer" in repr(AdaptiveRepricer(problem))


class _PinnedFactor:
    """A predictor stand-in whose correction factor the test sets."""

    factor = 1.0

    def export_state(self):
        return self.factor, 0

    def import_state(self, factor, observations):
        self.factor = factor


def fresh_suffix_table(problem, anchor, factor):
    """The price table of a suffix DP solved from scratch."""
    suffix = problem.with_arrival_means(problem.arrival_means[anchor:] * factor)
    return solve_deadline_single(suffix).price_index


def table_of(repricer, key):
    return repricer.export_state()["cache"][key]


def held_buffers(cache: dict) -> int:
    """Distinct memory buffers behind a suffix-table cache's tables."""
    owners = set()
    for table in cache.values():
        while isinstance(table, np.ndarray) and table.base is not None:
            table = table.base
        owners.add(id(table))
    return len(owners)


class TestSuffixSlicing:
    @settings(max_examples=40, deadline=None)
    @given(
        num_tasks=st.integers(1, 8),
        means=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=10),
        max_price=st.integers(2, 12),
        penalty=st.floats(0.0, 200.0),
        eps=st.sampled_from([1e-9, None]),
        # m = 1 makes most workers accept, so completion means pass the
        # kernel's log-space threshold.
        m=st.sampled_from([2000.0, 1.0]),
        quanta=st.data(),
    )
    def test_every_slice_equals_a_fresh_solve(
        self, num_tasks, means, max_price, penalty, eps, m, quanta
    ):
        problem = make_problem(
            num_tasks=num_tasks, arrival_means=means, max_price=max_price,
            penalty=penalty, truncation_eps=eps, m=m,
        )
        predictor = _PinnedFactor()
        repricer = AdaptiveRepricer(problem, predictor=predictor)
        factors = []
        for anchor in range(problem.num_intervals):
            # A few quantized factors, so most anchors repeat an earlier one.
            predictor.factor = quanta.draw(st.integers(1, 4)) * 0.25
            factors.append(repricer._quantized_factor())
            repricer.price(num_tasks, anchor)
        cache = repricer.export_state()["cache"]
        assert sorted(cache) == list(enumerate(factors))
        bases = {}
        for (anchor, factor), table in sorted(cache.items()):
            fresh = fresh_suffix_table(problem, anchor, factor)
            assert table.dtype == fresh.dtype
            # A later anchor is a view of its factor's earliest table.
            assert np.shares_memory(table, bases.setdefault(factor, table))
            np.testing.assert_array_equal(table, fresh)
        assert repricer.num_solves == problem.num_intervals
        # Only each factor's first anchor runs a DP; the rest slice it.
        assert repricer.num_dp_solves == len(set(factors))

    def test_an_earlier_anchor_solves_and_becomes_the_base(self, problem):
        predictor = _PinnedFactor()
        repricer = AdaptiveRepricer(problem, predictor=predictor)
        repricer.price(5, 2)  # anchor 2 first: nothing earlier to slice
        repricer.price(5, 0)  # anchor 0 is earlier than the cached base
        repricer.price(5, 1)  # sliced from anchor 0
        repricer.price(5, 3)  # sliced from anchor 0
        assert (repricer.num_solves, repricer.num_dp_solves) == (4, 2)
        for anchor in range(4):
            np.testing.assert_array_equal(
                table_of(repricer, (anchor, 1.0)),
                fresh_suffix_table(problem, anchor, 1.0),
            )

    def test_a_repricer_holds_one_buffer_per_dp_run(self, problem):
        predictor = _PinnedFactor()
        repricer = AdaptiveRepricer(problem, predictor=predictor)
        for anchor in range(problem.num_intervals):
            predictor.factor = (1.0, 0.5)[anchor % 2]
            repricer.price(5, anchor)
        assert repricer.num_solves == problem.num_intervals
        assert held_buffers(repricer.export_state()["cache"]) == 2
        assert repricer.num_dp_solves == 2
        # A bundle restores every table as its own array.
        state = repricer.export_state()
        state["cache"] = {key: t.copy() for key, t in state["cache"].items()}
        restored = AdaptiveRepricer(problem, predictor=_PinnedFactor())
        restored.import_state(state)
        assert held_buffers(restored.export_state()["cache"]) == 2
        # A restored later anchor is a view of its factor's earliest table.
        assert np.shares_memory(
            table_of(restored, (2, 1.0)), table_of(restored, (0, 1.0))
        )

    def test_restored_tables_are_sliced(self, problem):
        predictor = _PinnedFactor()
        first = AdaptiveRepricer(problem, predictor=predictor)
        first.price(5, 0)
        predictor.factor = 0.5
        first.price(5, 1)
        restored = AdaptiveRepricer(problem, predictor=predictor)
        restored.import_state(first.export_state())
        predictor.factor = 1.0
        restored.price(5, 2)  # factor 1.0: slice of the restored anchor 0
        predictor.factor = 0.5
        restored.price(5, 3)  # factor 0.5: slice of the restored anchor 1
        assert (restored.num_solves, restored.num_dp_solves) == (4, 0)
        for key in ((2, 1.0), (3, 0.5)):
            np.testing.assert_array_equal(
                table_of(restored, key), fresh_suffix_table(problem, *key)
            )


class TestFirstPlanSeed:
    def run_neutral(self, repricer, problem):
        for t in range(problem.num_intervals):
            repricer.price(5, t)
            repricer.observe(t, float(problem.arrival_means[t]))

    def test_an_exact_static_twin_replaces_the_first_dp(self, problem):
        other = make_problem(num_tasks=7, arrival_means=[900.0, 1200.0, 800.0, 700.0])
        twin, _ = solve_deadline_batch([problem, other])
        plain = AdaptiveRepricer(problem)
        seeded = AdaptiveRepricer(problem)
        assert seeded.seed_first_plan(twin)
        self.run_neutral(plain, problem)
        self.run_neutral(seeded, problem)
        assert plain.num_dp_solves == 1
        assert seeded.num_dp_solves == 0
        assert seeded.num_solves == plain.num_solves == problem.num_intervals
        tables, seeded_tables = (
            r.export_state()["cache"] for r in (plain, seeded)
        )
        assert sorted(tables) == sorted(seeded_tables)
        for key, table in tables.items():
            np.testing.assert_array_equal(seeded_tables[key], table)

    def test_a_twin_one_ulp_away_is_refused(self, problem):
        means = problem.arrival_means.copy()
        means[1] = np.nextafter(means[1], np.inf)
        near = problem.with_arrival_means(means)
        # A 9-digit signature cannot tell the two apart; the seed check can.
        assert near.signature() == problem.signature()
        repricer = AdaptiveRepricer(problem)
        assert not repricer.seed_first_plan(solve_deadline_single(near))
        repricer.price(5, 0)
        assert repricer.num_dp_solves == 1

    @pytest.mark.parametrize("field", ["num_tasks", "grid", "penalty", "eps"])
    def test_a_twin_of_another_problem_is_refused(self, problem, field):
        kwargs = dict(
            num_tasks=10, arrival_means=problem.arrival_means,
            max_price=15.0, penalty=100.0,
        )
        kwargs.update({
            "num_tasks": {"num_tasks": 9},
            "grid": {"max_price": 14.0},
            "penalty": {"penalty": 101.0},
            "eps": {"truncation_eps": None},
        }[field])
        other = make_problem(**kwargs)
        assert not AdaptiveRepricer(problem).seed_first_plan(
            solve_deadline_single(other)
        )

    def test_the_seed_is_not_checkpointed(self, problem):
        seeded = AdaptiveRepricer(problem)
        seeded.seed_first_plan(solve_deadline_single(problem))
        plain = AdaptiveRepricer(problem)
        for repricer in (seeded, plain):
            repricer.price(5, 0)
        a, b = seeded.export_state(), plain.export_state()
        assert a.keys() == b.keys()
        assert a["num_solves"] == b["num_solves"] == 1
        assert list(a["cache"]) == list(b["cache"]) == [(0, 1.0)]


class TestImportValidation:
    @staticmethod
    def priced(problem):
        """A repricer holding tables at keys (0, 1.0) and (1, 0.5)."""
        predictor = _PinnedFactor()
        repricer = AdaptiveRepricer(problem, predictor=predictor)
        repricer.price(5, 0)
        predictor.factor = 0.5
        repricer.price(5, 1)
        return repricer

    def saved(self, problem):
        return self.priced(problem).export_state()

    def test_a_valid_state_restores(self, problem):
        original = self.priced(problem)
        restored = AdaptiveRepricer(problem, predictor=_PinnedFactor())
        restored.import_state(original.export_state())
        for n in range(1, problem.num_tasks + 1):
            assert restored.price(n, 1) == original.price(n, 1)

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            (lambda t: t[:, :1], "shape"),
            (lambda t: t[:-1], "shape"),
            (lambda t: t.astype(float), "integer array"),
            (lambda t: np.full_like(t, 15), "outside the 15-price grid"),
            (lambda t: np.full_like(t, -1), "outside the 15-price grid"),
        ],
        ids=["one-column", "one-row-short", "float", "past-grid", "negative"],
    )
    def test_a_bad_table_is_rejected(self, problem, corrupt, match):
        state = self.saved(problem)
        state["cache"][(1, 0.5)] = corrupt(state["cache"][(1, 0.5)])
        restored = AdaptiveRepricer(problem)
        with pytest.raises(ValueError, match=match):
            restored.import_state(state)
        # A rejected state leaves the repricer as it was.
        assert restored.export_state()["cache"] == {}

    def test_a_table_off_its_base_slice_is_rejected(self, problem):
        repricer = AdaptiveRepricer(problem, predictor=_PinnedFactor())
        repricer.price(5, 0)
        repricer.price(5, 1)  # (1, 1.0): the trailing columns of (0, 1.0)
        state = repricer.export_state()
        table = state["cache"][(1, 1.0)].copy()
        table[-1, -1] = 1 - min(table[-1, -1], 1)  # still on the grid
        state["cache"][(1, 1.0)] = table
        restored = AdaptiveRepricer(problem)
        with pytest.raises(ValueError, match="not the slice"):
            restored.import_state(state)
        assert restored.export_state()["cache"] == {}

    @pytest.mark.parametrize(
        "key,match",
        [
            ((-1, 0.5), "outside the horizon"),
            ((4, 0.5), "outside the horizon"),
            ((1, 0.0), "positive and finite"),
            ((1, -0.5), "positive and finite"),
            ((1, math.nan), "positive and finite"),
            ((1, math.inf), "positive and finite"),
        ],
    )
    def test_a_bad_key_is_rejected(self, problem, key, match):
        state = self.saved(problem)
        state["cache"][key] = state["cache"].pop((1, 0.5))
        state["active_key"] = key
        with pytest.raises(ValueError, match=match):
            AdaptiveRepricer(problem).import_state(state)

    def test_a_missing_active_key_is_rejected(self, problem):
        state = self.saved(problem)
        state["active_key"] = (2, 0.5)
        with pytest.raises(ValueError, match="missing from the restored"):
            AdaptiveRepricer(problem).import_state(state)
