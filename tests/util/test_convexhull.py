"""Tests for the lower convex hull used by Algorithm 3."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.convexhull import hull_segment_for, lower_convex_hull


def hull_by_definition(xs, ys) -> list[int]:
    """Lower-hull vertices as defined: strictly below every chord over them.

    O(n^3) over all spanning pairs, in increasing ``x``; assumes distinct
    ``x``.  The first and last points span nothing and are always kept.
    """

    def below_every_chord(i: int) -> bool:
        return all(
            (xs[i] - xs[j]) * (ys[k] - ys[j]) - (ys[i] - ys[j]) * (xs[k] - xs[j]) > 0
            for j in range(len(xs)) if xs[j] < xs[i]
            for k in range(len(xs)) if xs[k] > xs[i]
        )

    return sorted(
        (i for i in range(len(xs)) if below_every_chord(i)), key=lambda i: xs[i]
    )


class TestLowerConvexHull:
    def test_line_keeps_endpoints_only(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [0.0, 1.0, 2.0, 3.0]
        assert lower_convex_hull(xs, ys) == [0, 3]

    def test_convex_curve_keeps_everything(self):
        xs = list(range(6))
        ys = [(x - 2.5) ** 2 for x in xs]
        assert lower_convex_hull(xs, ys) == list(range(6))

    def test_interior_point_above_chord_dropped(self):
        xs = [0.0, 1.0, 2.0]
        ys = [0.0, 5.0, 0.0]
        assert lower_convex_hull(xs, ys) == [0, 2]

    def test_duplicate_x_keeps_lower(self):
        xs = [0.0, 1.0, 1.0, 2.0]
        ys = [0.0, 3.0, -1.0, 0.0]
        hull = lower_convex_hull(xs, ys)
        assert 2 in hull  # the y=-1 point
        assert 1 not in hull

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_hull_by_definition(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.permutation(np.unique(rng.uniform(0.0, 50.0, int(rng.integers(1, 40)))))
        # ys on a grid: on a coarse one, equal lowest heights put exactly
        # collinear runs on the hull, which the strict-corner rule drops.
        step = [0.1, 2.5, 5.0][seed % 3]
        ys = np.round(rng.uniform(0.0, 20.0, xs.size) / step) * step
        xs, ys = xs.tolist(), ys.tolist()
        assert lower_convex_hull(xs, ys) == hull_by_definition(xs, ys)

    def test_unsorted_input_returns_indices_in_x_order(self):
        # x order is 1, 2, 0; the middle point (2.0, 0.5) lies below the
        # chord from (1.0, 5.0) to (3.0, 1.0), so all three are vertices.
        assert lower_convex_hull([3.0, 1.0, 2.0], [1.0, 5.0, 0.5]) == [1, 2, 0]

    def test_single_point(self):
        assert lower_convex_hull([3.0], [7.0]) == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lower_convex_hull([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lower_convex_hull([1.0, 2.0], [1.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_hull_lies_below_all_points(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hull = lower_convex_hull(xs, ys)
        hull_x = np.array([xs[i] for i in hull])
        hull_y = np.array([ys[i] for i in hull])
        # Hull x strictly increasing.
        assert np.all(np.diff(hull_x) > 0)
        # Every input point lies on or above the piecewise-linear hull.
        for x, y in points:
            if x < hull_x[0] or x > hull_x[-1]:
                continue
            interp = np.interp(x, hull_x, hull_y)
            assert y >= interp - 1e-6 * (1 + abs(interp))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=3,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hull_is_convex(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hull = lower_convex_hull(xs, ys)
        hull_x = [xs[i] for i in hull]
        hull_y = [ys[i] for i in hull]
        # Slopes along the lower hull must be strictly increasing.
        slopes = [
            (hull_y[i + 1] - hull_y[i]) / (hull_x[i + 1] - hull_x[i])
            for i in range(len(hull_x) - 1)
        ]
        assert all(b > a - 1e-9 for a, b in zip(slopes, slopes[1:]))


class TestHullSegmentFor:
    def test_bracketing(self):
        xs = [0.0, 2.0, 5.0, 9.0]
        assert hull_segment_for(xs, 3.0) == (1, 2)
        assert hull_segment_for(xs, 2.0) == (1, 2)

    def test_below_first(self):
        assert hull_segment_for([1.0, 2.0], 0.5) == (0, 0)

    def test_at_or_beyond_last(self):
        assert hull_segment_for([1.0, 2.0], 2.0) == (1, 1)
        assert hull_segment_for([1.0, 2.0], 9.0) == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hull_segment_for([], 1.0)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            hull_segment_for([1.0, 1.0, 2.0], 1.5)
