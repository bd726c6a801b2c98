"""Batched fixed-budget allocation: one convex hull, many budgets.

Algorithm 3 (:func:`repro.core.budget.static_lp.solve_budget_hull`) spends
its time on the acceptance probabilities and the lower convex hull of
``(c, 1/p(c))`` — both of which depend only on the *marketplace*, not on
any single campaign's ``(N, B)``.  :func:`solve_budget_batch` therefore
groups requests by ``(acceptance signature, price grid)``, builds each
group's hull once, and resolves every instance against it with the same
segment-search and rounding arithmetic as the scalar solver — so the
returned :class:`~repro.core.budget.static_lp.StaticAllocation` objects
are identical to what per-instance Algorithm 3 produces.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from repro.core.budget.static_lp import StaticAllocation, budget_signature
from repro.market.acceptance import AcceptanceModel
from repro.util.convexhull import hull_segment_for, lower_convex_hull

__all__ = ["BudgetRequest", "solve_budget_batch"]


@dataclasses.dataclass(frozen=True)
class BudgetRequest:
    """One fixed-budget instance queued for a batch solve.

    Attributes
    ----------
    num_tasks:
        Batch size ``N``.
    budget:
        Total budget ``B`` in price units.
    acceptance:
        The marketplace ``p(c)`` model.
    price_grid:
        Candidate prices, ascending.
    """

    num_tasks: int
    budget: float
    acceptance: AcceptanceModel
    price_grid: np.ndarray

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {self.num_tasks}")
        if self.budget < 0:
            raise ValueError(f"budget must be non-negative, got {self.budget}")
        grid = np.asarray(self.price_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("price_grid must be a non-empty 1-D array")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("price_grid must be strictly ascending")
        object.__setattr__(self, "price_grid", grid)

    def signature(self, precision: int = 9) -> tuple:
        """The cache key this request resolves under (see ``budget_signature``)."""
        return budget_signature(
            self.num_tasks, self.budget, self.acceptance, self.price_grid, precision
        )


class _HullGroup:
    """The per-(acceptance, grid) work shared by every instance in a group."""

    def __init__(self, request: BudgetRequest):
        grid = request.price_grid
        probs = request.acceptance.probabilities(grid)
        viable = probs > 0
        if not np.any(viable):
            raise ValueError("no grid price has positive acceptance probability")
        self.grid = grid[viable]
        self.inv_p = 1.0 / probs[viable]
        hull = lower_convex_hull(self.grid.tolist(), self.inv_p.tolist())
        self.hull_prices = self.grid[hull]
        self.hull_inv_p = self.inv_p[hull]

    def solve(self, num_tasks: int, budget: float) -> StaticAllocation:
        """Algorithm 3's per-instance tail, against the shared hull."""
        if budget < num_tasks * self.grid[0]:
            raise ValueError(
                f"budget {budget} cannot cover {num_tasks} tasks even at the "
                f"cheapest viable price {self.grid[0]}"
            )
        per_task = budget / num_tasks
        i1, i2 = hull_segment_for(self.hull_prices.tolist(), per_task)
        if i1 == i2:
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


def _marketplace_key(request: BudgetRequest, precision: int = 9) -> tuple:
    """Grouping key: instances over the same hull share one build."""
    return (
        request.acceptance.signature(),
        tuple(round(float(c), precision) for c in request.price_grid),
    )


def solve_budget_batch(
    requests: Sequence[BudgetRequest],
) -> list[StaticAllocation]:
    """Run Algorithm 3 for many instances, building each hull only once.

    Parameters
    ----------
    requests:
        Fixed-budget instances; any mix of marketplaces.  Requests over
        the same ``(acceptance, price_grid)`` reuse one probability
        evaluation and one convex hull.

    Returns
    -------
    list[StaticAllocation]
        Allocations in request order, identical to running
        :func:`~repro.core.budget.static_lp.solve_budget_hull` per
        instance.

    Raises
    ------
    ValueError
        If any instance's budget cannot cover its batch at the cheapest
        viable price (same contract as the scalar solver).
    """
    groups: dict[tuple, _HullGroup] = {}
    out: list[StaticAllocation] = []
    for request in requests:
        key = _marketplace_key(request)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _HullGroup(request)
        out.append(group.solve(request.num_tasks, request.budget))
    return out
