"""Batched fixed-budget allocation: one convex hull, many budgets.

Algorithm 3 (:func:`repro.core.budget.static_lp.solve_budget_hull`) spends
its time on the acceptance probabilities and the lower convex hull of
``(c, 1/p(c))`` — both of which depend only on the *marketplace*, not on
any one campaign's ``(N, B)``.  :func:`solve_budget_batch` therefore
groups requests by ``(acceptance signature, price grid)``, builds one
:class:`~repro.core.budget.static_lp.BudgetHull` per group, and
allocates every instance against it — the same class the scalar solver
builds per instance, so the returned
:class:`~repro.core.budget.static_lp.StaticAllocation` objects are
identical to what per-instance Algorithm 3 produces.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.budget.static_lp import (
    BudgetHull,
    StaticAllocation,
    budget_signature,
    check_budget_instance,
)
from repro.market.acceptance import AcceptanceModel

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
        grid = check_budget_instance(self.num_tasks, self.budget, self.price_grid)
        object.__setattr__(self, "price_grid", grid)

    def signature(self, precision: int = 9) -> tuple:
        """The cache key this request resolves under (see ``budget_signature``)."""
        return budget_signature(
            self.num_tasks, self.budget, self.acceptance, self.price_grid, precision
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
    hulls: dict[tuple, BudgetHull] = {}
    out: list[StaticAllocation] = []
    for request in requests:
        key = _marketplace_key(request)
        hull = hulls.get(key)
        if hull is None:
            hull = hulls[key] = BudgetHull(request.acceptance, request.price_grid)
        out.append(hull.allocate(request.num_tasks, request.budget))
    return out
