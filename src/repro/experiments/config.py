"""The paper's default experimental setting (Section 5.2), in one place.

Unless a figure says otherwise, every simulation in Section 5.2 uses:

* ``N = 200`` tasks, deadline ``T = 24`` hours,
* worker arrival rates read off 20-minute mturk-tracker bins (we use the
  calibrated synthetic trace — see DESIGN.md substitutions),
* the Eq. 13 acceptance model (Data Collection task, 2-minute completion),
* the dynamic strategy trained at 20-minute decision intervals,
* prices on the integer-cent grid, and
* a 99.9% completion-confidence target for price selection.

The deadline window starts on a representative plain weekday of the trace
(day 7, a Wednesday): day 0 is the synthetic trace's New-Year holiday,
reserved for the Fig. 10 sensitivity experiment.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.market.acceptance import LogitAcceptance, paper_acceptance_model
from repro.market.nhpp import interval_count
from repro.market.rates import RateFunction
from repro.market.tracker import SyntheticTrackerTrace

__all__ = ["PaperSetting", "default_setting"]

#: Day of the synthetic trace the default deadline window starts on.
DEFAULT_START_DAY = 7

#: Expected-remaining-tasks bound standing in for the paper's "99.9%
#: confidence" target when calibrating the dynamic strategy's penalty
#: (by Markov's inequality E[remaining] <= 0.01 implies >= 99% completion;
#: the reported completion probabilities come out >= 99.9% in practice).
DEFAULT_REMAINING_BOUND = 0.01


@dataclasses.dataclass(frozen=True)
class PaperSetting:
    """The Section 5.2 defaults, overridable per experiment.

    Attributes
    ----------
    num_tasks:
        Batch size ``N`` (200).
    horizon_hours:
        Deadline ``T`` in hours (24).
    interval_minutes:
        Decision-interval granularity the dynamic model is trained at (20).
    max_price:
        Largest admissible reward in cents (the grid is ``1..max_price`` —
        marketplaces do not accept zero-reward postings).
    confidence:
        Completion-confidence target for the fixed baseline (0.999).
    start_day:
        Trace day the window starts on.
    trace_seed:
        Seed of the synthetic tracker trace.
    penalty_per_task:
        Default terminal penalty when an experiment does not calibrate one.
    """

    num_tasks: int = 200
    horizon_hours: float = 24.0
    interval_minutes: float = 20.0
    max_price: int = 50
    confidence: float = 0.999
    start_day: int = DEFAULT_START_DAY
    trace_seed: int = 20140101
    penalty_per_task: float = 200.0

    @property
    def num_intervals(self) -> int:
        """Number of decision intervals over the horizon."""
        return interval_count(self.horizon_hours, self.interval_minutes)

    @property
    def start_hour(self) -> float:
        """Absolute trace hour the window starts at."""
        return self.start_day * 24.0

    def price_grid(self) -> np.ndarray:
        """Integer-cent price grid ``1 .. max_price``."""
        return np.arange(1, self.max_price + 1, dtype=float)

    def acceptance(self) -> LogitAcceptance:
        """The Eq. 13 acceptance model."""
        return paper_acceptance_model()

    def trace(self) -> SyntheticTrackerTrace:
        """The synthetic 4-week marketplace trace."""
        return SyntheticTrackerTrace(seed=self.trace_seed)

    def rate_function(self) -> RateFunction:
        """The trace's observed piecewise-constant rate."""
        return self.trace().rate_function()

    def problem(
        self,
        penalty: PenaltyScheme | None = None,
        acceptance: LogitAcceptance | None = None,
        rate: RateFunction | None = None,
        num_tasks: int | None = None,
        horizon_hours: float | None = None,
        start_hour: float | None = None,
    ) -> DeadlineProblem:
        """Assemble the deadline instance, with per-experiment overrides."""
        horizon = horizon_hours if horizon_hours is not None else self.horizon_hours
        num_intervals = interval_count(horizon, self.interval_minutes)
        return DeadlineProblem.from_rate_function(
            num_tasks=num_tasks if num_tasks is not None else self.num_tasks,
            rate=rate if rate is not None else self.rate_function(),
            horizon_hours=horizon,
            num_intervals=num_intervals,
            acceptance=acceptance if acceptance is not None else self.acceptance(),
            price_grid=self.price_grid(),
            penalty=penalty
            if penalty is not None
            else PenaltyScheme(per_task=self.penalty_per_task),
            start_hour=start_hour if start_hour is not None else self.start_hour,
        )


def default_setting() -> PaperSetting:
    """The unmodified Section 5.2 configuration."""
    return PaperSetting()
