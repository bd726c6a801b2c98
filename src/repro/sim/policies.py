"""Runtime pricing-policy interface for the simulator.

A runtime policy answers one question each decision interval: *with ``n``
tasks still open at interval ``t``, what reward do we post?*  The solved
:class:`~repro.core.deadline.policy.DeadlinePolicy` tables, the fixed-price
baseline, and the budget solutions all adapt to this interface, so the
simulator treats them uniformly.
"""

from __future__ import annotations

import abc

from repro.core.budget.semi_static import SemiStaticStrategy
from repro.core.deadline.policy import DeadlinePolicy

__all__ = [
    "PricingRuntime",
    "FixedPriceRuntime",
    "TablePolicyRuntime",
    "SemiStaticRuntime",
]


class PricingRuntime(abc.ABC):
    """Callable pricing rule consulted once per decision interval."""

    @abc.abstractmethod
    def price(self, remaining: int, interval: int) -> float:
        """Reward to post with ``remaining`` open tasks at ``interval``."""


class FixedPriceRuntime(PricingRuntime):
    """The Faridani baseline at runtime: one price, never changed."""

    def __init__(self, fixed_price: float):
        if fixed_price < 0:
            raise ValueError(f"price must be non-negative, got {fixed_price}")
        self.fixed_price = float(fixed_price)

    def price(self, remaining: int, interval: int) -> float:
        return self.fixed_price

    def __repr__(self) -> str:
        return f"FixedPriceRuntime({self.fixed_price})"


class TablePolicyRuntime(PricingRuntime):
    """Adapter exposing a solved ``Price(n, t)`` table to the simulator.

    When the realized horizon outruns the table (the simulator is asked for
    an interval beyond ``N_T - 1``, which cannot happen in a deadline run
    but can in open-ended what-if runs), the last column is reused, and
    ``remaining`` is clamped to ``1 .. N``; a negative interval raises
    ``ValueError``.

    :meth:`price` is the engine's per-campaign, per-tick read, so it
    equals ``policy.price`` at the clamped ``(n, t)`` without going
    through it: one ``price_index.item(n, t)`` into the problem's price
    grid, copied once into a list of floats here.  The runtime holds no
    per-campaign state, so the planner builds one per solved policy and
    shares it among the campaigns that policy prices.
    """

    def __init__(self, policy: DeadlinePolicy):
        self.policy = policy
        self._grid = policy.problem.price_grid.tolist()
        self._index = policy.price_index
        self._num_tasks = policy.problem.num_tasks
        self._last_interval = policy.problem.num_intervals - 1

    def price(self, remaining: int, interval: int) -> float:
        if interval < 0:
            raise ValueError(f"interval must be non-negative, got {interval}")
        # Clamped with comparisons: min() and max() cost more than the read.
        n = self._num_tasks
        if remaining < n:
            n = remaining if remaining > 1 else 1
        t = self._last_interval
        if interval < t:
            t = interval
        return self._grid[self._index.item(n, t)]

    def __repr__(self) -> str:
        return f"TablePolicyRuntime({self.policy.solver})"


class SemiStaticRuntime(PricingRuntime):
    """A semi-static / static price sequence at runtime (Section 4).

    The posted price depends only on how many tasks have completed: with
    ``N`` tasks and ``remaining`` open, the sequence position is
    ``N - remaining``.
    """

    def __init__(self, strategy: SemiStaticStrategy):
        self.strategy = strategy

    def price(self, remaining: int, interval: int) -> float:
        prices = self.strategy.prices
        if remaining <= 0:
            return prices[-1]
        # With at least one task open, N - remaining <= N - 1.
        completed = len(prices) - remaining
        return prices[completed if completed > 0 else 0]

    def __repr__(self) -> str:
        return f"SemiStaticRuntime({self.strategy.num_tasks} prices)"
