"""Non-Homogeneous Poisson Process counting process (Section 2.1).

The number of worker arrivals in any window ``[S, T]`` is Poisson with mean
``Lambda(S, T) = ∫_S^T lambda(t) dt`` (Eq. 1).  This module provides

* :func:`interval_means` — the per-interval means ``lambda_t`` of Eq. 4 that
  the deadline MDP consumes, over :func:`interval_count` intervals,
* :class:`NHPP` — exact sampling of arrival *times* (needed by the
  event-driven simulator), via the classic two-step recipe: draw the count
  in each bin, then place the arrival times by the order-statistics
  property (uniform within a constant-rate bin), and
* :meth:`NHPP.thin` — Bernoulli thinning with acceptance probability ``p``:
  a thinned NHPP is again an NHPP with rate ``lambda(t) * p``
  (Section 2.1's "Thinned NHPP").
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.market.rates import PiecewiseConstantRate, RateFunction, ScaledRate
from repro.util.validation import require_in_range, require_positive

__all__ = ["NHPP", "interval_count", "interval_means"]


def interval_count(horizon_hours: float, interval_minutes: float) -> int:
    """How many ``interval_minutes`` intervals cover ``horizon_hours``, rounded.

    Raises ``ValueError`` unless the count is finite and at least 1: each
    length can be finite and positive while their ratio overflows
    (``1e308`` hours) or rounds to zero (a horizon under half an interval).
    """
    ratio = math.nan
    if interval_minutes > 0:
        ratio = horizon_hours * 60.0 / interval_minutes
    if not (math.isfinite(ratio) and round(ratio) >= 1):
        raise ValueError(
            f"a {horizon_hours:g} h horizon in {interval_minutes:g} min "
            f"intervals gives {ratio:g} intervals; need a finite count >= 1"
        )
    return int(round(ratio))


def interval_means(
    rate: RateFunction, horizon: float, num_intervals: int, start: float = 0.0
) -> np.ndarray:
    """Return ``lambda_t = ∫ over interval t of lambda(s) ds`` (Eq. 4).

    The deadline horizon ``[start, start + horizon]`` is split into
    ``num_intervals`` equal intervals; entry ``t`` is the expected number of
    marketplace arrivals during interval ``t``.
    """
    require_positive("horizon", horizon)
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got {num_intervals}")
    width = horizon / num_intervals
    return np.array(
        [
            rate.integral(start + i * width, start + (i + 1) * width)
            for i in range(num_intervals)
        ]
    )


class NHPP:
    """A Non-Homogeneous Poisson Process over a rate function.

    Parameters
    ----------
    rate:
        The arrival-rate function ``lambda(t)`` (arrivals per hour).
    """

    def __init__(self, rate: RateFunction):
        self.rate_function = rate

    def mean(self, s: float, t: float) -> float:
        """Expected number of arrivals in ``[s, t]`` (Eq. 1)."""
        return self.rate_function.integral(s, t)

    def sample_count(self, s: float, t: float, rng: np.random.Generator) -> int:
        """Draw the number of arrivals in ``[s, t]``."""
        return int(rng.poisson(self.mean(s, t)))

    def sample_arrivals(
        self,
        s: float,
        t: float,
        rng: np.random.Generator,
        resolution: float = 1.0 / 3.0,
    ) -> np.ndarray:
        """Draw sorted arrival times in ``[s, t]``.

        For a :class:`PiecewiseConstantRate` (possibly scaled) the sampling
        is exact: per constant-rate bin, draw a Poisson count and place that
        many points uniformly (order-statistics property of the Poisson
        process).  For other rate functions, the window is discretized into
        sub-windows of width ``resolution`` hours and the rate treated as
        constant within each — exact in the limit, and indistinguishable at
        the 20-minute granularity the paper's data has anyway.
        """
        if t < s:
            raise ValueError(f"need t >= s, got [{s}, {t}]")
        if t == s:
            return np.empty(0)
        edges = self._bin_edges(s, t, resolution)
        times: list[np.ndarray] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mean = self.rate_function.integral(lo, hi)
            count = int(rng.poisson(mean))
            if count:
                times.append(rng.uniform(lo, hi, size=count))
        if not times:
            return np.empty(0)
        all_times = np.concatenate(times)
        all_times.sort()
        return all_times

    def _bin_edges(self, s: float, t: float, resolution: float) -> np.ndarray:
        """Sub-window edges within ``[s, t]`` aligned to rate breakpoints."""
        base = self.rate_function
        if isinstance(base, ScaledRate):
            base = base.base
        if isinstance(base, PiecewiseConstantRate):
            inner = base.edges[(base.edges > s) & (base.edges < t)]
            return np.concatenate([[s], inner, [t]])
        require_positive("resolution", resolution)
        n = max(1, int(np.ceil((t - s) / resolution)))
        return np.linspace(s, t, n + 1)

    def thin(self, p: float) -> "NHPP":
        """Return the thinned process with rate ``lambda(t) * p``.

        Section 2.1: composing the marketplace NHPP with an independent
        Bernoulli(p) acceptance process yields an NHPP with rate
        ``lambda'(t) = lambda(t) p``.
        """
        require_in_range("p", p, 0.0, 1.0)
        return NHPP(ScaledRate(self.rate_function, p))

    def thin_arrivals(
        self, arrivals: Sequence[float], p: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Bernoulli-subsample concrete arrival times with probability ``p``."""
        require_in_range("p", p, 0.0, 1.0)
        arr = np.asarray(arrivals, dtype=float)
        if arr.size == 0:
            return arr
        keep = rng.random(arr.size) < p
        return arr[keep]
