"""Campaign descriptions and outcomes for the marketplace engine.

A *campaign* is one requester's pricing problem submitted to the shared
marketplace: either a fixed-deadline batch (Section 3 — the engine prices
it with the MDP policy, optionally re-planning online) or a fixed-budget
batch (Section 4 — priced by Algorithm 3's static allocation, applied
semi-statically).  :class:`CampaignSpec` is the immutable submission record;
:class:`CampaignOutcome` is what the engine reports once the campaign
retires.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator

import numpy as np

__all__ = [
    "CampaignSpec",
    "CampaignOutcome",
    "DEADLINE",
    "BUDGET",
    "horizon_overrun",
]

#: Campaign kind markers.
DEADLINE = "deadline"
BUDGET = "budget"


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One campaign submitted to the engine.

    The integer fields (``num_tasks``, ``submit_interval``,
    ``horizon_intervals``, ``resolve_every``, and an integral
    ``max_price``) are stored as ``int``, so numpy integers are accepted;
    any other value is rejected with a ``ValueError`` naming the field.

    Attributes
    ----------
    campaign_id:
        Unique identifier within one engine run.
    kind:
        ``"deadline"`` (Section 3 MDP pricing) or ``"budget"`` (Section 4
        static allocation).
    num_tasks:
        Batch size ``N``.
    submit_interval:
        Engine-clock interval at which the campaign goes live.
    horizon_intervals:
        Campaign-local horizon: a deadline campaign's ``N_T``; a budget
        campaign is retired (tasks may remain) after this many intervals.
    max_price:
        Largest admissible reward, a whole number of cents; the grid is
        ``1 .. max_price``.
    penalty_per_task:
        Terminal penalty per unfinished task (deadline campaigns).
    budget:
        Total budget ``B`` in cents (budget campaigns; ``None`` otherwise).
    adaptive:
        Deadline campaigns only: wrap the policy in an
        :class:`~repro.core.deadline.adaptive.AdaptiveRepricer` so the
        campaign re-plans mid-flight from realized arrivals.
    resolve_every:
        Re-plan cadence of adaptive campaigns, in intervals.
    """

    campaign_id: str
    kind: str
    num_tasks: int
    submit_interval: int
    horizon_intervals: int
    max_price: int = 30
    penalty_per_task: float = 100.0
    budget: float | None = None
    adaptive: bool = False
    resolve_every: int = 4

    def __post_init__(self) -> None:
        if self.kind not in (DEADLINE, BUDGET):
            raise ValueError(f"kind must be {DEADLINE!r} or {BUDGET!r}, got {self.kind!r}")
        # The engine sizes arrays and ranges with these, and the outcome
        # fold serializes them: store plain ints (numpy ints included) and
        # reject anything else by field name.  Plain ints skip the loop.
        if not (
            type(self.num_tasks) is int
            and type(self.submit_interval) is int
            and type(self.horizon_intervals) is int
            and type(self.resolve_every) is int
            and type(self.max_price) is int
        ):
            self._coerce_integers()
        if self.num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {self.num_tasks}")
        if self.submit_interval < 0:
            raise ValueError(
                f"submit_interval must be non-negative, got {self.submit_interval}"
            )
        if self.horizon_intervals <= 0:
            raise ValueError(
                f"horizon_intervals must be positive, got {self.horizon_intervals}"
            )
        if self.max_price < 1:
            raise ValueError(f"max_price must be at least 1, got {self.max_price}")
        # Chained comparisons are False for NaN, so NaN and inf fail too.
        if not 0 <= self.penalty_per_task < math.inf:
            raise ValueError(
                "penalty_per_task must be finite and non-negative, got "
                f"{self.penalty_per_task}"
            )
        if self.kind == BUDGET:
            if self.budget is None or not 0 < self.budget < math.inf:
                raise ValueError(
                    f"budget campaigns need a finite positive budget, got {self.budget}"
                )
            if self.adaptive:
                raise ValueError("adaptive re-planning applies to deadline campaigns only")
        if self.resolve_every < 1:
            raise ValueError(f"resolve_every must be >= 1, got {self.resolve_every}")

    def _coerce_integers(self) -> None:
        """Store the integer fields as ``int``; raise on a non-integer one."""
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, int(operator.index(value)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        price = self.max_price
        if isinstance(price, numbers.Integral):
            object.__setattr__(self, "max_price", int(price))
        elif not (isinstance(price, numbers.Real) and float(price).is_integer()):
            raise ValueError(f"max_price must be a whole number, got {price!r}")

    @property
    def end_interval(self) -> int:
        """First engine-clock interval *after* the campaign's horizon."""
        return self.submit_interval + self.horizon_intervals

    def price_grid(self) -> np.ndarray:
        """Integer-cent price grid ``1 .. max_price``."""
        return np.arange(1.0, self.max_price + 1.0)


#: ``CampaignSpec`` fields that must hold integers.
_INTEGER_FIELDS = ("num_tasks", "submit_interval", "horizon_intervals", "resolve_every")


def horizon_overrun(spec: "CampaignSpec", num_intervals: int) -> str | None:
    """Why ``spec`` outruns a stream of ``num_intervals``, or ``None`` if it fits."""
    if spec.end_interval > num_intervals:
        return (
            f"campaign {spec.campaign_id!r} runs to interval "
            f"{spec.end_interval}, beyond the stream's {num_intervals}"
        )
    return None


@dataclasses.dataclass(frozen=True)
class CampaignOutcome:
    """Final accounting for one retired campaign.

    Attributes
    ----------
    spec:
        The campaign as submitted.
    completed:
        Tasks finished before the campaign retired.
    remaining:
        Tasks still open at retirement.
    total_cost:
        Sum of rewards paid, in cents.
    penalty:
        Terminal penalty charged (deadline campaigns; 0 for budget).
        Cancelled campaigns are never charged a terminal penalty: the
        requester withdrew, the marketplace did not miss a deadline.
    finished_interval:
        Engine-clock interval during which the last task finished, or
        ``None`` if the batch did not finish.
    cache_hit:
        Whether admission reused a cached policy instead of solving.
    num_solves:
        Plans this campaign took, not DP/LP runs: 1 on a cache miss and
        0 on a hit; an adaptive campaign counts every suffix table it
        took at a new ``(anchor, factor)`` key, whether it was solved,
        sliced from an earlier table or seeded from a cached twin.
    cancelled:
        True when the campaign was retired early through
        :meth:`~repro.engine.engine.MarketplaceEngine.cancel` instead of
        finishing or reaching its horizon; ``completed``/``total_cost``
        then report the partial utility delivered up to cancellation.
    """

    spec: CampaignSpec
    completed: int
    remaining: int
    total_cost: float
    penalty: float
    finished_interval: int | None
    cache_hit: bool
    num_solves: int
    cancelled: bool = False

    @property
    def finished(self) -> bool:
        """True when every task completed before retirement."""
        return self.remaining == 0

    @property
    def average_reward(self) -> float:
        """Cost per task over the whole batch (Fig. 7(a) metric)."""
        batch = self.completed + self.remaining
        return self.total_cost / batch if batch else 0.0

    @property
    def within_budget(self) -> bool:
        """True when spend stayed within the submitted budget (if any)."""
        if self.spec.budget is None:
            return True
        return self.total_cost <= self.spec.budget + 1e-9
