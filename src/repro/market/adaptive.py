"""Adaptive arrival-rate prediction (the paper's Section 5.2.5 future work).

Fig. 10 shows both strategies degrade when a day deviates *consistently*
from the trained pattern (the 1/1 holiday); the paper suggests "predicting
the arrival-rate in the next few hours based on the arrival-rate in the
last few hours" as the fix and leaves it to future work.  This module
implements that predictor.

:class:`AdaptiveRatePredictor` keeps a multiplicative correction factor on
top of a baseline (periodic) per-interval forecast: after each interval it
observes the realized arrival count, computes the realized/predicted ratio,
and folds it into an exponentially weighted moving average.  Because the
baseline already carries the diurnal shape, a *level* correction is exactly
what a consistent deviation (holiday, outage, surge) needs, while pure
Poisson noise averages out.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.validation import (
    require_in_range,
    require_nonnegative,
    require_positive,
)

__all__ = ["AdaptiveRatePredictor"]


class AdaptiveRatePredictor:
    """EWMA level-correction of a baseline per-interval arrival forecast.

    Parameters
    ----------
    baseline_means:
        The trained forecast ``lambda_t`` per interval (Eq. 4).
    smoothing:
        EWMA weight on the newest observation's ratio; 0 never adapts,
        1 trusts only the last interval.
    min_factor, max_factor:
        Clamp on the correction factor, guarding against division blow-ups
        in near-empty intervals.
    """

    def __init__(
        self,
        baseline_means: np.ndarray,
        smoothing: float = 0.4,
        min_factor: float = 0.1,
        max_factor: float = 10.0,
    ):
        means = np.asarray(baseline_means, dtype=float)
        if means.ndim != 1 or means.size == 0:
            raise ValueError("baseline_means must be a non-empty 1-D array")
        if np.any(means < 0):
            raise ValueError("baseline_means must be non-negative")
        require_in_range("smoothing", smoothing, 0.0, 1.0)
        require_positive("min_factor", min_factor)
        if max_factor < min_factor:
            raise ValueError("max_factor must be >= min_factor")
        self.baseline_means = means
        self.smoothing = smoothing
        self.min_factor = min_factor
        self.max_factor = max_factor
        self._factor = 1.0
        self._observations = 0

    @property
    def factor(self) -> float:
        """Current multiplicative correction (1.0 before any observation)."""
        return self._factor

    @property
    def num_observations(self) -> int:
        """Intervals observed so far."""
        return self._observations

    def observe(self, interval: int, arrivals: float) -> float:
        """Fold one interval's realized arrival count into the correction.

        Returns the updated factor.  Intervals whose baseline forecast is
        (near) zero carry no level information and are skipped.
        """
        if not 0 <= interval < self.baseline_means.size:
            raise ValueError(
                f"interval must lie in 0..{self.baseline_means.size - 1}, got {interval}"
            )
        if arrivals < 0:
            raise ValueError(f"arrivals must be non-negative, got {arrivals}")
        predicted = float(self.baseline_means[interval])
        if predicted <= 1e-9:
            return self._factor
        ratio = arrivals / predicted
        self._factor = (1.0 - self.smoothing) * self._factor + self.smoothing * ratio
        self._factor = float(np.clip(self._factor, self.min_factor, self.max_factor))
        self._observations += 1
        return self._factor

    def corrected_means(self, from_interval: int = 0) -> np.ndarray:
        """The remaining horizon's forecast under the current correction."""
        if not 0 <= from_interval <= self.baseline_means.size:
            raise ValueError(
                f"from_interval must lie in 0..{self.baseline_means.size}, got {from_interval}"
            )
        return self.baseline_means[from_interval:] * self._factor

    def reset(self) -> None:
        """Forget all observations (factor back to 1.0)."""
        self._factor = 1.0
        self._observations = 0

    def export_state(self) -> tuple[float, int]:
        """The mutable state ``(factor, num_observations)`` for checkpoints."""
        return (self._factor, self._observations)

    def import_state(self, factor: float, observations: int) -> None:
        """Restore state captured by :meth:`export_state` (checkpoint resume).

        A finite factor is clamped to ``[min_factor, max_factor]``; a
        factor that is not a finite number (a string included), or a
        negative observation count, raises ``ValueError``.
        """
        if not isinstance(factor, (int, float)) or not math.isfinite(factor):
            raise ValueError(
                f"restored factor must be a finite number, got {factor!r}"
            )
        observations = require_nonnegative(
            "restored observations", int(observations)
        )
        self._factor = float(np.clip(factor, self.min_factor, self.max_factor))
        self._observations = observations
