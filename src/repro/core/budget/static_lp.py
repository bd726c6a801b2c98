"""Algorithm 3: the convex-hull two-price budget allocation (Theorems 7-8).

The relaxed LP — minimize ``sum_c n_c / p(c)`` subject to ``sum_c n_c = N``,
``sum_c n_c c <= B``, ``n_c >= 0`` — has an optimal solution supported on at
most two prices, both vertices of the lower convex hull of the points
``(c, 1/p(c))`` (Theorem 7).  Algorithm 3 therefore: build the hull, find
the hull segment straddling the per-task budget ``B/N``, and split the ``N``
tasks between its endpoints; rounding up the cheap-side count keeps the
allocation within budget, at an ``E[W]`` excess of at most
``1/p(c1) - 1/p(c2)`` over the integer optimum (Theorem 8).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from repro.core.budget.semi_static import SemiStaticStrategy
from repro.market.acceptance import AcceptanceModel
from repro.util.convexhull import hull_segment_for, lower_convex_hull

__all__ = [
    "BudgetHull",
    "StaticAllocation",
    "budget_signature",
    "check_budget_instance",
    "solve_budget_hull",
]


def budget_signature(
    num_tasks: int,
    budget: float,
    acceptance: AcceptanceModel,
    price_grid: Sequence[float],
    precision: int = 9,
) -> tuple:
    """Hashable canonical key for a fixed-budget allocation instance.

    The analogue of :meth:`repro.core.deadline.model.DeadlineProblem.signature`
    for the Section 4 solvers: two instances with equal signatures share one
    optimal :class:`StaticAllocation`, which is what lets the
    :mod:`repro.engine` policy cache skip re-running Algorithm 3 for the
    near-identical budget campaigns a marketplace sees.
    """
    return (
        "budget",
        int(num_tasks),
        round(float(budget), precision),
        acceptance.signature(),
        tuple(round(float(c), precision) for c in np.asarray(price_grid, dtype=float)),
    )


@dataclasses.dataclass(frozen=True)
class StaticAllocation:
    """A static budget allocation: ``counts[i]`` tasks priced ``prices[i]``.

    Attributes
    ----------
    prices:
        Distinct prices used, ascending (at most two from Algorithm 3).
    counts:
        Tasks at each price; sums to ``N``.
    expected_arrivals:
        ``E[W] = sum_i counts[i] / p(prices[i])`` (Theorem 5).
    total_cost:
        ``sum_i counts[i] * prices[i]`` — within the budget by construction.
    rounding_gap_bound:
        The Theorem 8 bound on this allocation's ``E[W]`` excess over the
        integer optimum (0 when the LP solution was already integral).
    """

    prices: tuple[float, ...]
    counts: tuple[int, ...]
    expected_arrivals: float
    total_cost: float
    rounding_gap_bound: float

    def __post_init__(self) -> None:
        if len(self.prices) != len(self.counts):
            raise ValueError("prices and counts must have equal length")
        if any(k < 0 for k in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def num_tasks(self) -> int:
        return int(sum(self.counts))

    def price_sequence(self) -> tuple[float, ...]:
        """Expanded per-task price list, descending (the static posting)."""
        seq: list[float] = []
        for price, count in sorted(zip(self.prices, self.counts), reverse=True):
            seq.extend([price] * count)
        return tuple(seq)

    def as_semi_static(self) -> SemiStaticStrategy:
        """View as a semi-static strategy (descending price order).

        Built on the first call and shared after it (the strategy is
        immutable): the engine prices every campaign a cached allocation
        admits with it.
        """
        strategy = self.__dict__.get("_semi_static")
        if strategy is None:
            strategy = SemiStaticStrategy(self.price_sequence())
            object.__setattr__(self, "_semi_static", strategy)
        return strategy


def check_budget_instance(
    num_tasks: int, budget: float, price_grid: Sequence[float]
) -> np.ndarray:
    """Algorithm 3's input check; returns the price grid as a float array.

    ``N`` must be positive, ``B`` finite (NaN has no hull segment) and
    non-negative, and the grid non-empty, 1-D and strictly ascending.
    Raises :class:`ValueError` naming the field.
    """
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks}")
    if not 0 <= budget < math.inf:
        raise ValueError(f"budget must be finite and non-negative, got {budget}")
    grid = np.asarray(price_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("price_grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("price_grid must be strictly ascending")
    return grid


class BudgetHull:
    """Algorithm 3's hull over one ``(acceptance, grid)``, for any ``(N, B)``.

    Keeps the viable prices (``p(c) > 0``: no other price can appear in a
    finite-``E[W]`` solution) and the lower convex hull of their points
    ``(c, 1/p(c))``; :meth:`allocate` does the per-instance split.  The
    grid is one :func:`check_budget_instance` returned.  Raises
    :class:`ValueError` if no grid price is viable.
    """

    def __init__(self, acceptance: AcceptanceModel, grid: np.ndarray):
        probs = acceptance.probabilities(grid)
        viable = probs > 0
        if not np.any(viable):
            raise ValueError("no grid price has positive acceptance probability")
        self.grid = grid[viable]
        self.inv_p = 1.0 / probs[viable]
        hull = lower_convex_hull(self.grid.tolist(), self.inv_p.tolist())
        self.hull_prices = self.grid[hull]
        self.hull_inv_p = self.inv_p[hull]

    def allocate(self, num_tasks: int, budget: float) -> StaticAllocation:
        """Split ``N`` tasks across the hull segment straddling ``B/N``.

        Raises :class:`ValueError` if the budget cannot cover ``N`` tasks
        at the cheapest viable price.
        """
        if budget < num_tasks * self.grid[0]:
            raise ValueError(
                f"budget {budget} cannot cover {num_tasks} tasks even at the "
                f"cheapest viable price {self.grid[0]}"
            )
        per_task = budget / num_tasks
        i1, i2 = hull_segment_for(self.hull_prices.tolist(), per_task)
        if i1 == i2:
            # Budget at/beyond a hull endpoint: one price for everything.
            price = float(self.hull_prices[i1])
            ew = num_tasks * float(self.hull_inv_p[i1])
            return StaticAllocation(
                prices=(price,),
                counts=(num_tasks,),
                expected_arrivals=ew,
                total_cost=num_tasks * price,
                rounding_gap_bound=0.0,
            )
        c1, c2 = float(self.hull_prices[i1]), float(self.hull_prices[i2])
        # n1 = ceil((c2 N - B) / (c2 - c1)) cheap-side tasks keeps cost <= B.
        n1 = math.ceil((c2 * num_tasks - budget) / (c2 - c1))
        n1 = min(max(n1, 0), num_tasks)
        n2 = num_tasks - n1
        ew = n1 * float(self.hull_inv_p[i1]) + n2 * float(self.hull_inv_p[i2])
        exact = (c2 * num_tasks - budget) / (c2 - c1)
        gap = 0.0 if exact == n1 else float(self.hull_inv_p[i1] - self.hull_inv_p[i2])
        return StaticAllocation(
            prices=(c1, c2),
            counts=(n1, n2),
            expected_arrivals=ew,
            total_cost=n1 * c1 + n2 * c2,
            rounding_gap_bound=gap,
        )


def solve_budget_hull(
    num_tasks: int,
    budget: float,
    acceptance: AcceptanceModel,
    price_grid: Sequence[float],
) -> StaticAllocation:
    """Run Algorithm 3: the near-optimal static allocation of ``N`` tasks.

    ``budget`` is ``B`` in price units and ``price_grid`` the candidate
    prices, ascending (integer cents in the paper).  Raises
    :class:`ValueError` if an input fails :func:`check_budget_instance`,
    no price is viable, or ``B`` cannot cover ``N`` tasks at the cheapest
    viable price.
    """
    grid = check_budget_instance(num_tasks, budget, price_grid)
    return BudgetHull(acceptance, grid).allocate(num_tasks, budget)
