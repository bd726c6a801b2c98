"""One marketplace-wide worker-arrival stream, sampled interval by interval.

The paper's simulations give every batch its own Poisson draw of the
marketplace; a *multi-campaign* marketplace (``repro.engine``) instead has
one NHPP worker stream that all live campaigns compete over.
:class:`SharedArrivalStream` factors the interval-level sampling step out of
:class:`~repro.sim.simulator.DeadlineSimulation` so both the single-batch
simulator and the engine draw arrivals from the same mechanics: interval
``t`` delivers ``Pois(lambda_t)`` workers (Eq. 4), where ``lambda_t`` comes
from integrating a rate function over the interval.
"""

from __future__ import annotations

import numpy as np

from repro.market.nhpp import interval_means
from repro.market.rates import RateFunction

__all__ = ["SharedArrivalStream"]


class SharedArrivalStream:
    """Interval-discretized NHPP worker arrivals for one marketplace.

    Parameters
    ----------
    arrival_means:
        ``lambda_t`` for every interval of the stream's horizon: expected
        marketplace-wide worker arrivals per interval (Eq. 4).
    """

    def __init__(self, arrival_means: np.ndarray):
        means = np.asarray(arrival_means, dtype=float)
        if means.ndim != 1 or means.size == 0:
            raise ValueError("arrival_means must be a non-empty 1-D array")
        if np.any(means < 0):
            raise ValueError("arrival_means must be non-negative")
        self.arrival_means = means

    @classmethod
    def from_rate_function(
        cls,
        rate: RateFunction,
        horizon_hours: float,
        num_intervals: int,
        start_hour: float = 0.0,
    ) -> "SharedArrivalStream":
        """Build a stream by integrating ``rate`` over a discretized horizon."""
        return cls(interval_means(rate, horizon_hours, num_intervals, start=start_hour))

    @property
    def num_intervals(self) -> int:
        """Number of intervals the stream covers."""
        return int(self.arrival_means.size)

    @property
    def total_mean(self) -> float:
        """Expected arrivals over the whole horizon, ``sum_t lambda_t``."""
        return float(self.arrival_means.sum())

    def mean(self, interval: int) -> float:
        """Expected arrivals ``lambda_t`` in one interval."""
        if not 0 <= interval < self.num_intervals:
            raise ValueError(
                f"interval must lie in 0..{self.num_intervals - 1}, got {interval}"
            )
        return float(self.arrival_means[interval])

    def sample(
        self, interval: int, rng: np.random.Generator, scale: float = 1.0
    ) -> int:
        """Draw the realized worker-arrival count for one interval.

        ``scale`` modulates the interval's rate without touching the
        stream itself — scaling a Poisson rate yields a Poisson process at
        the scaled rate, which is how the engine applies scenario-driven
        demand shocks (:mod:`repro.scenario`) to one tick at a time while
        campaign *planning* keeps seeing the unmodulated forecast.
        """
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        return int(rng.poisson(self.mean(interval) * scale))

    def scaled(self, factor: float) -> "SharedArrivalStream":
        """A copy with every interval mean multiplied by ``factor``.

        Models marketplace-level surges and droughts (the Fig. 10 holiday)
        without touching what any campaign *planned* against.
        """
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return SharedArrivalStream(self.arrival_means * factor)

    def __repr__(self) -> str:
        return (
            f"SharedArrivalStream({self.num_intervals} intervals, "
            f"E[total]={self.total_mean:,.0f})"
        )
