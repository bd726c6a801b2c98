"""Problem specification for the fixed-deadline MDP (Section 3.1).

:class:`DeadlineProblem` bundles everything the solvers need — the batch
size, the discretized horizon with per-interval arrival means (Eq. 4), the
acceptance model, the admissible price grid (integer cents on Mechanical
Turk), the terminal penalty scheme (Section 3.3), and the truncation
threshold (Section 3.2) — and precomputes the per-(interval, price) Poisson
means ``lambda_t * p(c)`` every solver iterates over.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from repro.market.acceptance import AcceptanceModel
from repro.market.nhpp import interval_means
from repro.market.rates import RateFunction

__all__ = ["PenaltyScheme", "DeadlineProblem", "deadline_signature"]


@dataclasses.dataclass(frozen=True)
class PenaltyScheme:
    """Terminal cost for unfinished tasks (Section 3.3).

    The basic scheme charges ``n * per_task`` for ``n`` unfinished tasks.
    The extended scheme of Section 3.3 charges ``(n + existence) * per_task``
    whenever ``n > 0``, additionally penalizing the mere *existence* of
    unfinished work — Theorem 2's correspondence then also bounds
    ``Pr(remaining > 0)``.

    Attributes
    ----------
    per_task:
        The ``Penalty`` parameter: cost per unfinished task.
    existence:
        The ``alpha`` parameter of the extended penalty; 0 recovers the
        basic linear scheme.
    """

    per_task: float
    existence: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN and inf fail too.
        if not 0 <= self.per_task < math.inf:
            raise ValueError(
                f"per_task penalty must be finite and non-negative, got {self.per_task}"
            )
        if not 0 <= self.existence < math.inf:
            raise ValueError(
                f"existence penalty must be finite and non-negative, got {self.existence}"
            )

    def terminal_cost(self, remaining: int) -> float:
        """Return ``cost{(n, N_T)}`` for ``n = remaining`` unfinished tasks."""
        if remaining < 0:
            raise ValueError(f"remaining must be non-negative, got {remaining}")
        if remaining == 0:
            return 0.0
        return (remaining + self.existence) * self.per_task

    def terminal_costs(self, max_remaining: int) -> np.ndarray:
        """Vector of terminal costs for ``n = 0 .. max_remaining``."""
        n = np.arange(max_remaining + 1, dtype=float)
        costs = (n + self.existence) * self.per_task
        costs[0] = 0.0
        return costs


def deadline_signature(
    num_tasks: int,
    arrival_means: Sequence[float],
    acceptance: AcceptanceModel,
    price_grid: Sequence[float],
    penalty: PenaltyScheme,
    truncation_eps: float | None,
    precision: int = 9,
) -> tuple:
    """:meth:`DeadlineProblem.signature` of an instance, from its parts.

    Lets a caller key a policy cache without constructing (and
    validating) the problem; the engine's planner builds one only when
    the key misses and the instance must be solved.
    """
    return (
        "deadline",
        num_tasks,
        tuple(round(float(x), precision) for x in arrival_means),
        acceptance.signature(),
        tuple(round(float(c), precision) for c in price_grid),
        (float(penalty.per_task), float(penalty.existence)),
        truncation_eps,
    )


@dataclasses.dataclass(frozen=True)
class DeadlineProblem:
    """A fixed-deadline pricing instance.

    Attributes
    ----------
    num_tasks:
        Batch size ``N``.
    arrival_means:
        ``lambda_t`` for ``t = 0 .. N_T - 1``: expected *marketplace* worker
        arrivals in each interval (Eq. 4).
    acceptance:
        The ``p(c)`` model.
    price_grid:
        Admissible rewards, ascending (integer cents in the paper; any
        ascending grid is accepted).
    penalty:
        Terminal penalty scheme.
    truncation_eps:
        Poisson tail threshold for the Section 3.2 truncation; ``None``
        disables truncation (exact sums up to ``N`` plus the exact
        absorbing tail).
    """

    num_tasks: int
    arrival_means: np.ndarray
    acceptance: AcceptanceModel
    price_grid: np.ndarray
    penalty: PenaltyScheme
    truncation_eps: float | None = 1e-9

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {self.num_tasks}")
        means = np.asarray(self.arrival_means, dtype=float)
        if means.ndim != 1 or means.size == 0:
            raise ValueError("arrival_means must be a non-empty 1-D array")
        if np.any(means < 0):
            raise ValueError("arrival_means must be non-negative")
        grid = np.asarray(self.price_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("price_grid must be a non-empty 1-D array")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("price_grid must be strictly ascending")
        if grid[0] < 0:
            raise ValueError("prices must be non-negative")
        if self.truncation_eps is not None and not 0 < self.truncation_eps < 1:
            raise ValueError(
                f"truncation_eps must lie in (0, 1) or be None, got {self.truncation_eps}"
            )
        object.__setattr__(self, "arrival_means", means)
        object.__setattr__(self, "price_grid", grid)

    @classmethod
    def from_rate_function(
        cls,
        num_tasks: int,
        rate: RateFunction,
        horizon_hours: float,
        num_intervals: int,
        acceptance: AcceptanceModel,
        price_grid: Sequence[float],
        penalty: PenaltyScheme,
        start_hour: float = 0.0,
        truncation_eps: float | None = 1e-9,
    ) -> "DeadlineProblem":
        """Build a problem by integrating a rate function over the horizon."""
        means = interval_means(rate, horizon_hours, num_intervals, start=start_hour)
        return cls(
            num_tasks=num_tasks,
            arrival_means=means,
            acceptance=acceptance,
            price_grid=np.asarray(price_grid, dtype=float),
            penalty=penalty,
            truncation_eps=truncation_eps,
        )

    @property
    def num_intervals(self) -> int:
        """``N_T``, the number of decision intervals."""
        return int(self.arrival_means.size)

    @property
    def num_prices(self) -> int:
        """Size of the action space ``C``."""
        return int(self.price_grid.size)

    def acceptance_probabilities(self) -> np.ndarray:
        """``p(c)`` for every grid price."""
        return self.acceptance.probabilities(self.price_grid)

    def completion_means(self) -> np.ndarray:
        """Matrix ``M[t, j] = lambda_t * p(price_grid[j])`` (Eq. 5 means)."""
        return np.outer(self.arrival_means, self.acceptance_probabilities())

    def total_arrivals(self) -> float:
        """``Lambda(0, T)``: expected marketplace arrivals over the horizon."""
        return float(self.arrival_means.sum())

    def signature(self, precision: int = 9) -> tuple:
        """Hashable canonical key identifying this instance up to rounding.

        Two problems with equal signatures are solved by the same policy
        table, so a policy cache (:mod:`repro.engine`) can share one solve
        between them.  Arrival means and grid prices are rounded to
        ``precision`` decimals to absorb float noise from rate integration.
        """
        return deadline_signature(
            self.num_tasks,
            self.arrival_means,
            self.acceptance,
            self.price_grid,
            self.penalty,
            self.truncation_eps,
            precision,
        )

    def with_penalty(self, penalty: PenaltyScheme) -> "DeadlineProblem":
        """Return a copy with a different penalty scheme (for calibration)."""
        return dataclasses.replace(self, penalty=penalty)

    def with_acceptance(self, acceptance: AcceptanceModel) -> "DeadlineProblem":
        """Return a copy with a different acceptance model (sensitivity runs)."""
        return dataclasses.replace(self, acceptance=acceptance)

    def with_arrival_means(self, arrival_means: np.ndarray) -> "DeadlineProblem":
        """Return a copy with different arrival means (sensitivity runs)."""
        return dataclasses.replace(self, arrival_means=np.asarray(arrival_means, float))
