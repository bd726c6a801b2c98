"""Adaptive re-solving policy: the Fig. 10 holiday fix.

Wraps the Section 3 machinery in an online loop: at each decision interval
the policy (a) folds the previous interval's realized arrival count into an
:class:`~repro.market.adaptive.AdaptiveRatePredictor`, and (b) re-solves
the *remaining-horizon* MDP under the corrected forecast before posting a
price.  On ordinary days the correction hovers at 1.0 and the policy
matches the statically trained table; on a consistently deviating day
(the paper's 1/1 holiday) the correction converges within a few intervals
and the re-solved prices compensate.

A re-plan needs the price table of the suffix MDP at one
``(anchor, quantized factor)`` key, and the repricer takes each key's
table once.  Most keys need no DP: a suffix DP's layer ``t`` reads only
``arrival_means[t] * factor`` and layer ``t + 1``, and the terminal costs
do not depend on the horizon, so the table anchored at a later interval
is, bit for bit, the trailing columns of an earlier anchor's table at the
same factor.  A key is therefore sliced from this repricer's earliest
table at its factor, kept as a view of it (one table buffer per DP run,
not one per key), and solved (by the batched kernel as a batch of
one) only when no such table exists.  The first plan, anchor 0 at factor
1.0, is the trained problem itself, so a static policy solved for exactly
that problem can stand in for it (:meth:`AdaptiveRepricer.seed_first_plan`).
``resolve_every`` trades adaptivity for compute.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.batch.deadline import solve_deadline_single as solve_deadline
from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy
from repro.market.adaptive import AdaptiveRatePredictor
from repro.sim.policies import PricingRuntime

__all__ = ["AdaptiveRepricer"]

#: Key of the first plan: the full horizon at an uncorrected forecast.
_FIRST_PLAN = (0, 1.0)


class AdaptiveRepricer(PricingRuntime):
    """Online deadline pricing with arrival-rate level correction.

    Parameters
    ----------
    problem:
        The trained instance — its ``arrival_means`` are the *baseline*
        forecast; acceptance model, grid, and penalty are reused for every
        re-solve.
    predictor:
        Rate predictor; defaults to an EWMA level corrector over the
        problem's baseline means.
    resolve_every:
        Re-solve the suffix MDP only when this many intervals have elapsed
        since the last solve (1 = every interval).
    factor_quantum:
        Correction factors are rounded to this granularity for the solve
        cache; 0.05 keeps the cache tight without visible price impact.

    Attributes
    ----------
    num_solves:
        Plans taken: suffix tables stored under a new ``(anchor, factor)``
        key, however they were produced.  Checkpointed.
    num_dp_solves:
        Suffix DPs this object ran; slices and a seeded first plan run
        none.  Derived, never checkpointed.
    """

    def __init__(
        self,
        problem: DeadlineProblem,
        predictor: AdaptiveRatePredictor | None = None,
        resolve_every: int = 1,
        factor_quantum: float = 0.05,
    ):
        if resolve_every < 1:
            raise ValueError(f"resolve_every must be >= 1, got {resolve_every}")
        # Chained comparisons are False for NaN, so NaN and inf fail too.
        if not 0 < factor_quantum < math.inf:
            raise ValueError(
                f"factor_quantum must be positive and finite, got {factor_quantum}"
            )
        self.problem = problem
        self.predictor = predictor or AdaptiveRatePredictor(problem.arrival_means)
        self.resolve_every = resolve_every
        self.factor_quantum = factor_quantum
        self._cache: dict[tuple[int, float], np.ndarray] = {}
        # Factor -> earliest cached anchor at it, the table later anchors
        # at that factor slice; rebuilt from the cache on import.
        self._earliest: dict[float, int] = {}
        # The first plan's table, if seed_first_plan was offered one.
        self._first_plan: np.ndarray | None = None
        self._active_price_col: np.ndarray | None = None
        self._active_key: tuple[int, float] | None = None
        self.num_solves = 0
        self.num_dp_solves = 0

    # ------------------------------------------------------------------
    # PricingRuntime interface
    # ------------------------------------------------------------------
    def price(self, remaining: int, interval: int) -> float:
        """Reward for ``remaining`` open tasks at ``interval``.

        Prices come from the suffix solve anchored at the most recent
        re-solve interval (per ``resolve_every``), evaluated at the current
        correction factor.
        """
        if remaining <= 0:
            raise ValueError(f"remaining must be positive, got {remaining}")
        t = min(max(interval, 0), self.problem.num_intervals - 1)
        anchor = (t // self.resolve_every) * self.resolve_every
        # The correction factor is sampled once per anchor: within an
        # anchor window the policy stays put, which is what resolve_every
        # trades away for compute.
        if self._active_key is None or self._active_key[0] != anchor:
            key = (anchor, self._quantized_factor())
            self._active_price_col = self._solve_suffix(anchor, key)
            self._active_key = key
        n = min(remaining, self.problem.num_tasks)
        # The suffix table's column for the *current* interval is offset by
        # the anchor.
        column = self._active_price_col[:, t - anchor]
        return float(self.problem.price_grid[column[n]])

    def observe(self, interval: int, arrivals: float) -> None:
        """Feed one interval's realized marketplace arrival count."""
        self.predictor.observe(interval, arrivals)

    def seed_first_plan(self, policy: DeadlinePolicy) -> bool:
        """Offer a solved policy as the first plan; return whether it is taken.

        The first plan (anchor 0, factor 1.0) solves :attr:`problem`
        itself, so a policy solved for a problem *exactly* equal to it,
        means and grid included, has the same price table.  A policy cache
        keys by signatures that round to 9 digits, so its hit may differ
        from this problem in the last bits; such a policy is refused and
        the first plan runs its DP.  The seed is derived state: it is not
        checkpointed, and it changes which tables run a DP, never a table
        or :attr:`num_solves`.
        """
        mine, other = self.problem, policy.problem
        same = (
            other.num_tasks == mine.num_tasks
            and other.truncation_eps == mine.truncation_eps
            and other.penalty == mine.penalty
            and np.array_equal(other.arrival_means, mine.arrival_means)
            and np.array_equal(other.price_grid, mine.price_grid)
            and other.acceptance.signature() == mine.acceptance.signature()
        )
        if same:
            self._first_plan = policy.price_index
        return same

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _quantized_factor(self) -> float:
        quanta = round(self.predictor.factor / self.factor_quantum)
        return max(quanta, 1) * self.factor_quantum

    def _solve_suffix(self, anchor: int, key: tuple[int, float]) -> np.ndarray:
        table = self._cache.get(key)
        if table is not None:
            return table
        _, factor = key
        base = self._earliest.get(factor)
        if base is not None and base <= anchor:
            table = self._cache[base, factor][:, anchor - base :]
        elif key == _FIRST_PLAN and self._first_plan is not None:
            table = self._first_plan
        else:
            suffix_means = self.problem.arrival_means[anchor:] * factor
            suffix_problem = self.problem.with_arrival_means(suffix_means)
            table = solve_deadline(suffix_problem).price_index
            self.num_dp_solves += 1
        self.num_solves += 1
        self._cache[key] = table
        if base is None or anchor < base:
            self._earliest[factor] = anchor
        return table

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the repricer's mutable state for a checkpoint.

        Returns a dict with the predictor's level-correction state, the
        solve counter, the active ``(anchor, factor)`` key, and the suffix
        solve cache (key -> price-index table).  Together with the
        immutable planning problem — which a resume rebuilds from the
        campaign spec — this is everything needed to continue pricing
        bit-identically: restoring the cache keeps already-taken plans
        free (so ``num_solves`` stays exact) and lets later anchors slice
        them, and restoring the active key pins the anchor window's factor
        at the value it was sampled at rather than re-sampling the drifted
        current factor.
        """
        factor, observations = self.predictor.export_state()
        return {
            "factor": factor,
            "observations": observations,
            "num_solves": self.num_solves,
            "active_key": self._active_key,
            "cache": dict(self._cache),
        }

    def import_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` (checkpoint resume).

        Every restored table is checked against :attr:`problem` before it
        can be priced from or sliced: a key's anchor must lie on the
        horizon and its factor be finite and positive, and its table must
        be an integer array of shape ``(num_tasks + 1, num_intervals -
        anchor)`` indexing the price grid.  A later anchor's table must
        equal the trailing columns of its factor's earliest table, and is
        kept as a view of it, as :meth:`price` would have sliced it.  A
        failed check raises ``ValueError``.
        """
        cache = {}
        for (anchor, factor), table in state["cache"].items():
            key = (int(anchor), float(factor))
            cache[key] = self._checked_table(key, table)
        earliest: dict[float, int] = {}
        for anchor, factor in sorted(cache):
            base = earliest.setdefault(factor, anchor)
            if base == anchor:
                continue
            view = cache[base, factor][:, anchor - base :]
            if not np.array_equal(cache[anchor, factor], view):
                raise ValueError(
                    f"repricer table at key {(anchor, factor)} is not the "
                    f"slice of its factor's earliest table at anchor {base}"
                )
            cache[anchor, factor] = view
        active = state["active_key"]
        if active is not None:
            active = (int(active[0]), float(active[1]))
            if active not in cache:
                raise ValueError(
                    f"active repricer key {active} missing from the restored "
                    "solve cache"
                )
        self.predictor.import_state(state["factor"], state["observations"])
        self.num_solves = int(state["num_solves"])
        self._cache = cache
        self._earliest = earliest
        self._active_key = active
        self._active_price_col = None if active is None else cache[active]

    def _checked_table(self, key: tuple[int, float], table) -> np.ndarray:
        """A restored suffix table, checked against :attr:`problem`."""
        anchor, factor = key
        problem = self.problem
        if not 0 <= anchor < problem.num_intervals:
            raise ValueError(
                f"repricer anchor {anchor} outside the horizon of "
                f"{problem.num_intervals} intervals"
            )
        if not 0 < factor < math.inf:
            raise ValueError(
                f"repricer factor {factor} at anchor {anchor} must be "
                "positive and finite"
            )
        table = np.asarray(table)
        shape = (problem.num_tasks + 1, problem.num_intervals - anchor)
        if not np.issubdtype(table.dtype, np.integer) or table.shape != shape:
            raise ValueError(
                f"repricer table at key {key} must be an integer "
                f"array of shape {shape}, got {table.dtype} {table.shape}"
            )
        if table.min() < 0 or table.max() >= problem.num_prices:
            raise ValueError(
                f"repricer table at key {key} indexes outside "
                f"the {problem.num_prices}-price grid"
            )
        return table

    def __repr__(self) -> str:
        return (
            f"AdaptiveRepricer(factor={self.predictor.factor:.2f}, "
            f"solves={self.num_solves})"
        )
