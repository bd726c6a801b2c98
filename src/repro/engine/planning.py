"""Campaign planning and admission for the marketplace engine.

:class:`CampaignPlanner` owns everything that happens between "a campaign
was submitted" and "a campaign is live with a pricing runtime": deciding
whether the engine can serve it at all, building the forecast slice the
campaign plans against, constructing its
:class:`~repro.core.deadline.model.DeadlineProblem` or budget request, and
resolving the policy through the shared
:class:`~repro.engine.cache.PolicyCache`.  Admission is independent of
the engine's arrival model, so both models price campaigns identically.

Every static campaign resolves under its cache signature, which
:meth:`CampaignPlanner.cache_signature` memoizes per planning shape, so a
cache hit costs a memo lookup and a cache lookup and builds no planning
problem.  Each question about a campaign has one path:

* :meth:`CampaignPlanner.refusal` — may the engine serve it?  Submission,
  quotes and source pulls all ask, so they refuse with the same text.
* :meth:`CampaignPlanner.admit_many` — admission: all of one tick's cache
  misses, however few, are drained into a
  :class:`~repro.core.batch.solver.BatchPolicySolver` and solved in one
  stacked array pass (see :mod:`repro.core.batch`).
* :meth:`CampaignPlanner.quote` — the price from the cache, or from a
  solve outside it (:func:`solve_deadline` or :func:`solve_budget_hull`).

Every solve produces the price tables of the vectorized scalar solver,
which stays the test oracle (``tests/engine/test_batch_solver.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch.budget import BudgetRequest
from repro.core.batch.deadline import solve_deadline_single as solve_deadline
from repro.core.batch.solver import BatchPolicySolver
from repro.core.budget.static_lp import (
    StaticAllocation,
    budget_signature,
    solve_budget_hull,
)
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme, deadline_signature
from repro.core.deadline.policy import DeadlinePolicy
from repro.engine.cache import PolicyCache
from repro.engine.campaign import (
    BUDGET, DEADLINE, CampaignOutcome, CampaignSpec, horizon_overrun,
)
from repro.market.acceptance import AcceptanceModel
from repro.sim.policies import PricingRuntime, SemiStaticRuntime, TablePolicyRuntime

__all__ = ["CampaignPlanner", "PLANNING_MODES", "resolve_planning_means"]

#: Supported planning-forecast modes.
PLANNING_MODES = ("sliced", "stationary")

#: Price grids whose cheapest viable price the planner remembers; grids
#: are client-chosen (``max_price``), so the memo is bounded.
_CHEAPEST_MEMO_CAP = 1024

#: Planning shapes whose cache signature the planner remembers; shapes are
#: client-chosen too, so this memo is bounded the same way.
_SIGNATURE_MEMO_CAP = 1024

# Shape bounds, checked by CampaignPlanner.refusal before anything is
# sized by a (client-chosen) spec.  The largest shape the repository
# submits is the 200-task, 2-price, 96-interval keepalive campaign of
# benchmarks/bench_serve.py.

#: Most tasks per campaign: a deadline solve copies an (N+1) x (N+1)
#: float Toeplitz per layer (7.6 MiB here); a budget one expands N prices.
MAX_NUM_TASKS = 1_000
#: Highest price cap; checks and solves build the grid 1..max_price.
MAX_PRICE = 1_000
#: Most deadline states x prices x intervals, (N+1) * max_price *
#: horizon_intervals: the size of the value and price tables.
MAX_DEADLINE_CELLS = 2_000_000


def resolve_planning_means(
    planning_means: np.ndarray | None, stream_means: np.ndarray
) -> np.ndarray:
    """Default the planning forecast to the stream and check its shape.

    The forecast contract: one entry per stream interval.
    """
    if planning_means is None:
        return stream_means
    means = np.asarray(planning_means, dtype=float)
    if means.shape != stream_means.shape:
        raise ValueError(
            "planning_means must have one entry per stream interval "
            f"({stream_means.size}), got shape {means.shape}"
        )
    return means


#: What a live campaign's runtime is (:attr:`_LiveCampaign.runtime_kind`):
#: adaptive runtimes count their own plans, semi-static ones are charged
#: one completion at a time, and every other runtime posts one price per
#: interval.
ADAPTIVE = "adaptive"
SEMI_STATIC = "semi-static"
POSTED = "posted"


class _LiveCampaign:
    """Mutable runtime state of one admitted campaign (engine-internal).

    ``end_interval`` (the spec's) is worked out once, here, because the
    tick loop asks for it every tick.  ``runtime_kind`` is passed in:
    admission knows each campaign's kind when it builds the runtime, so
    no ``isinstance`` check against the runtime classes runs per campaign.
    """

    __slots__ = (
        "spec",
        "runtime",
        "runtime_kind",
        "end_interval",
        "remaining",
        "total_cost",
        "finished_interval",
        "cache_hit",
        "initial_solves",
        "rng",
    )

    def __init__(
        self,
        spec: CampaignSpec,
        runtime: PricingRuntime,
        runtime_kind: str,
        cache_hit: bool,
        initial_solves: int,
    ):
        self.spec = spec
        self.runtime = runtime
        self.runtime_kind = runtime_kind
        self.end_interval = spec.submit_interval + spec.horizon_intervals
        self.remaining = spec.num_tasks
        self.total_cost = 0.0
        self.finished_interval: int | None = None
        self.cache_hit = cache_hit
        self.initial_solves = initial_solves
        # The campaign's private generator under factored arrivals (set
        # when the clock puts it live); ``None`` under pooled arrivals.
        self.rng: np.random.Generator | None = None

    def num_solves(self) -> int:
        """Plans attributable to this campaign (adaptive ones re-plan)."""
        if self.runtime_kind == ADAPTIVE:
            return self.runtime.num_solves
        return self.initial_solves

    def charge(self, accepted: int, posted_price: float, t: int) -> None:
        """Apply ``accepted`` workers' completions at interval ``t``.

        Completions are capped at the open tasks.  Deadline campaigns pay
        the posted reward per completion.  Budget campaigns step through
        their semi-static price sequence one task at a time (Definition 2
        moves to the next price on *each* completion), so realized spend
        can never exceed the allocation's budget even when one interval
        delivers several completions.
        """
        done = min(accepted, self.remaining)
        if done == 0:
            return
        if self.runtime_kind == SEMI_STATIC:
            completed = self.spec.num_tasks - self.remaining
            strategy = self.runtime.strategy
            self.total_cost += float(
                sum(strategy.price_at(completed + j) for j in range(done))
            )
        else:
            self.total_cost += done * posted_price
        self.remaining -= done
        if self.remaining == 0:
            self.finished_interval = t

    def outcome(self, cancelled: bool = False) -> CampaignOutcome:
        """Freeze the final accounting.

        A cancelled campaign reports the partial utility delivered so far
        (completions, spend) and is charged no terminal penalty — the
        requester withdrew; the marketplace did not miss the deadline.
        """
        penalty = (
            self.spec.penalty_per_task * self.remaining
            if self.spec.kind == DEADLINE and not cancelled
            else 0.0
        )
        return CampaignOutcome(
            spec=self.spec,
            completed=self.spec.num_tasks - self.remaining,
            remaining=self.remaining,
            total_cost=self.total_cost,
            penalty=penalty,
            finished_interval=self.finished_interval,
            cache_hit=self.cache_hit,
            num_solves=self.num_solves(),
            cancelled=cancelled,
        )


class CampaignPlanner:
    """Decides, admits and quotes campaigns through the shared cache.

    A campaign's cache signature depends only on its planning shape (see
    :meth:`cache_signature`), which the planner memoizes, so admitting a
    campaign whose policy is cached builds no planning problem: problems
    and budget requests are built only for the signatures the cache
    misses, and for adaptive campaigns, which re-plan on their own.  The
    memo is derived state and is never checkpointed.

    Parameters
    ----------
    acceptance:
        The marketplace ``p(c)`` model all campaigns plan against.
    cache:
        Shared :class:`PolicyCache`; identical instances are solved once.
    planning:
        ``"sliced"`` (plan against the time-aligned forecast slice) or
        ``"stationary"`` (plan against a flat canonical forecast, which
        makes same-shaped campaigns cache-identical).
    planning_means:
        Per-interval arrival forecast the campaigns plan against.
    truncation_eps:
        Poisson-truncation threshold handed to every deadline instance.
    batch_solver:
        The :class:`BatchPolicySolver` to drain into; defaults to a fresh
        one.  Its :attr:`~BatchPolicySolver.stats` record how much
        batching the workload offered.
    """

    def __init__(
        self,
        acceptance: AcceptanceModel,
        cache: PolicyCache,
        planning: str,
        planning_means: np.ndarray,
        truncation_eps: float | None = 1e-9,
        batch_solver: BatchPolicySolver | None = None,
    ):
        if planning not in PLANNING_MODES:
            raise ValueError(
                f"planning must be one of {PLANNING_MODES}, got {planning!r}"
            )
        self.acceptance = acceptance
        self.cache = cache
        self.planning = planning
        self.planning_means = np.asarray(planning_means, dtype=float)
        self.truncation_eps = truncation_eps
        self.batch_solver = batch_solver if batch_solver is not None else BatchPolicySolver()
        # max_price -> cheapest price on its grid with p(c) > 0 (None if
        # there is none); see budget_shortfall.
        self._cheapest_viable: dict[float, float | None] = {}
        # Planning shape -> cache signature; see cache_signature.
        self._signatures: dict[tuple, tuple] = {}
        # Stationary planning plans every campaign against this one level.
        self._stationary_level = (
            float(self.planning_means.mean()) if planning == "stationary" else None
        )

    # ------------------------------------------------------------------
    # Planning inputs
    # ------------------------------------------------------------------
    def planning_slice(self, spec: CampaignSpec) -> np.ndarray:
        """The per-interval arrival forecast ``spec`` plans against."""
        if self.planning == "stationary":
            return np.full(spec.horizon_intervals, self._stationary_level)
        start = spec.submit_interval
        return self.planning_means[start : start + spec.horizon_intervals].copy()

    def planning_problem(self, spec: CampaignSpec) -> DeadlineProblem:
        """Build the deadline instance a campaign is solved against."""
        if spec.kind != DEADLINE:
            raise ValueError(f"campaign {spec.campaign_id!r} is not a deadline campaign")
        return DeadlineProblem(
            num_tasks=spec.num_tasks,
            arrival_means=self.planning_slice(spec),
            acceptance=self.acceptance,
            price_grid=spec.price_grid(),
            penalty=PenaltyScheme(per_task=spec.penalty_per_task),
            truncation_eps=self.truncation_eps,
        )

    def budget_request(self, spec: CampaignSpec) -> BudgetRequest:
        """Build the fixed-budget instance a campaign is solved against."""
        if spec.kind != BUDGET:
            raise ValueError(f"campaign {spec.campaign_id!r} is not a budget campaign")
        assert spec.budget is not None  # CampaignSpec validates this
        return BudgetRequest(
            num_tasks=spec.num_tasks,
            budget=spec.budget,
            acceptance=self.acceptance,
            price_grid=spec.price_grid(),
        )

    def cache_signature(self, spec: CampaignSpec) -> tuple:
        """The policy-cache key a static campaign resolves under.

        Equal to ``planning_problem(spec).signature()`` for a deadline
        campaign and ``budget_request(spec).signature()`` for a budget
        one, but computed once per planning shape: kind, batch size,
        horizon, price cap, penalty, budget and, under ``"sliced"``
        planning, the submit interval that picks the forecast slice.
        The planner's configuration is fixed at construction, so entries
        never go stale.  Shapes are client-chosen, so past
        ``_SIGNATURE_MEMO_CAP`` shapes the oldest entry is dropped.
        """
        key = (
            spec.kind, spec.num_tasks, spec.horizon_intervals, spec.max_price,
            spec.penalty_per_task, spec.budget,
            spec.submit_interval if self.planning == "sliced" else -1,
        )
        signature = self._signatures.get(key)
        if signature is None:
            if spec.kind == BUDGET:
                signature = budget_signature(
                    spec.num_tasks, spec.budget, self.acceptance, spec.price_grid()
                )
            else:
                signature = deadline_signature(
                    spec.num_tasks,
                    self.planning_slice(spec),
                    self.acceptance,
                    spec.price_grid(),
                    PenaltyScheme(per_task=spec.penalty_per_task),
                    self.truncation_eps,
                )
            if len(self._signatures) >= _SIGNATURE_MEMO_CAP:
                # Dicts iterate in insertion order: drop the oldest shape.
                self._signatures.pop(next(iter(self._signatures)))
            self._signatures[key] = signature
        return signature

    def refusal(self, spec: CampaignSpec) -> str | None:
        """Why the engine cannot serve ``spec``, or ``None`` if it can.

        The one admit-or-refuse decision, asked by submission, quotes and
        source pulls alike: the shape bounds first, then the horizon
        against this planner's per-interval forecast, then
        :meth:`budget_shortfall`.
        """
        n, price = spec.num_tasks, spec.max_price
        cells = (n + 1) * price * spec.horizon_intervals if spec.kind == DEADLINE else 0
        if n > MAX_NUM_TASKS or price > MAX_PRICE or cells > MAX_DEADLINE_CELLS:
            for name, value, limit in (
                ("num_tasks", n, MAX_NUM_TASKS),
                ("max_price", price, MAX_PRICE),
                ("(num_tasks + 1) * max_price * horizon_intervals", cells,
                 MAX_DEADLINE_CELLS),
            ):
                if value > limit:
                    return (
                        f"campaign {spec.campaign_id!r} {name} {value} exceeds "
                        f"the limit of {limit}"
                    )
        problem = horizon_overrun(spec, self.planning_means.size)
        if problem is None:
            problem = self.budget_shortfall(spec)
        return problem

    def budget_shortfall(self, spec: CampaignSpec) -> str | None:
        """Why a budget campaign cannot pay for its tasks, or ``None``.

        The bound the budget solvers enforce at admission — the budget
        must cover every task at the cheapest grid price workers accept —
        checked up front by :meth:`refusal`, so an unaffordable campaign
        is refused instead of failing the tick that would admit it.  The
        cheapest viable price is computed once per price grid.
        """
        if spec.kind != BUDGET:
            return None
        assert spec.budget is not None  # CampaignSpec validates this
        if spec.max_price in self._cheapest_viable:
            cheapest = self._cheapest_viable[spec.max_price]
        else:
            grid = spec.price_grid()
            viable = grid[self.acceptance.probabilities(grid) > 0]
            cheapest = float(viable[0]) if viable.size else None
            if len(self._cheapest_viable) >= _CHEAPEST_MEMO_CAP:
                self._cheapest_viable.pop(next(iter(self._cheapest_viable)))
            self._cheapest_viable[spec.max_price] = cheapest
        if cheapest is None:
            return (
                f"campaign {spec.campaign_id!r}: no price up to "
                f"{spec.max_price} has positive acceptance probability"
            )
        if spec.budget < spec.num_tasks * cheapest:
            return (
                f"campaign {spec.campaign_id!r} budget {spec.budget} cannot "
                f"cover {spec.num_tasks} tasks even at the cheapest viable "
                f"price {cheapest}"
            )
        return None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, spec: CampaignSpec) -> _LiveCampaign:
        """Admit one campaign: :meth:`admit_many` of a one-campaign tick."""
        return self.admit_many([spec])[0]

    def admit_many(self, specs: list[CampaignSpec]) -> list[_LiveCampaign]:
        """Admit one tick's campaigns, solving their misses in stacked passes.

        All static-deadline cache misses of the tick, however few, go to
        the batch solver in one call, and all budget misses in another,
        so its stats count every admission miss.  Adaptive campaigns own
        their re-planning loop (and its private suffix-solve cache); the
        shared cache only serves static ones.  After the static solves, an
        adaptive campaign whose signature is cached is offered that policy
        as its first plan (:meth:`AdaptiveRepricer.seed_first_plan`),
        through :meth:`PolicyCache.peek`, which counts nothing and leaves
        the LRU order alone.  Campaigns resolved to the same policy or
        allocation share one runtime, built once per call.  Returns live
        campaigns in submission order; every spec must have passed
        :meth:`refusal`.
        """
        live: list[_LiveCampaign | None] = [None] * len(specs)
        deadline_items: list[tuple[tuple, CampaignSpec]] = []
        deadline_slots: list[int] = []
        budget_items: list[tuple[tuple, CampaignSpec]] = []
        budget_slots: list[int] = []
        adaptive_slots: list[int] = []
        for i, spec in enumerate(specs):
            if spec.adaptive:
                repricer = AdaptiveRepricer(
                    self.planning_problem(spec), resolve_every=spec.resolve_every
                )
                live[i] = _LiveCampaign(spec, repricer, ADAPTIVE, False, 0)
                adaptive_slots.append(i)
            elif spec.kind == BUDGET:
                budget_items.append((self.cache_signature(spec), spec))
                budget_slots.append(i)
            else:
                deadline_items.append((self.cache_signature(spec), spec))
                deadline_slots.append(i)
        if deadline_items:
            resolved = self.cache.get_or_solve_many(
                deadline_items, self._solve_deadline_many
            )
            tables: dict[int, TablePolicyRuntime] = {}
            for i, (policy, hit) in zip(deadline_slots, resolved):
                runtime = tables.get(id(policy))
                if runtime is None:
                    runtime = tables[id(policy)] = TablePolicyRuntime(policy)
                live[i] = _LiveCampaign(
                    specs[i], runtime, POSTED, hit, 0 if hit else 1
                )
        if budget_items:
            resolved = self.cache.get_or_solve_many(
                budget_items, self._solve_budget_many
            )
            sequences: dict[int, SemiStaticRuntime] = {}
            for i, (allocation, hit) in zip(budget_slots, resolved):
                runtime = sequences.get(id(allocation))
                if runtime is None:
                    runtime = sequences[id(allocation)] = SemiStaticRuntime(
                        allocation.as_semi_static()
                    )
                live[i] = _LiveCampaign(
                    specs[i], runtime, SEMI_STATIC, hit, 0 if hit else 1
                )
        for i in adaptive_slots:
            policy = self.cache.peek(self.cache_signature(specs[i]))
            if policy is not None:
                live[i].runtime.seed_first_plan(policy)
        return live  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Cache-miss solves: a static campaign's problem or request is built
    # here, once per distinct miss
    # ------------------------------------------------------------------
    def _solve_deadline_many(self, specs: list[CampaignSpec]) -> list[DeadlinePolicy]:
        return self.batch_solver.solve_deadline_many(
            [self.planning_problem(spec) for spec in specs]
        )

    def _solve_budget_many(self, specs: list[CampaignSpec]) -> list[StaticAllocation]:
        return self.batch_solver.solve_budget_many(
            [self.budget_request(spec) for spec in specs]
        )

    # ------------------------------------------------------------------
    # Quotes
    # ------------------------------------------------------------------
    def quote(self, spec: CampaignSpec, solve_on_miss: bool) -> dict:
        """The quote payload for ``spec``, leaving the cache untouched.

        ``cached`` says the policy was in the cache, ``solved`` that it
        was not and ``solve_on_miss`` solved it outside the cache, and
        ``price`` is the reward the campaign would post first (``None``
        on an unsolved miss).  The cache is only peeked and a solve is not
        stored, so quoting cannot perturb admission telemetry.  ``spec``
        must have passed :meth:`refusal`.
        """
        policy = self.cache.peek(self.cache_signature(spec))
        payload: dict = {"kind": spec.kind, "cached": policy is not None,
                         "solved": False, "price": None}
        if policy is None and solve_on_miss:
            if spec.kind == BUDGET:
                policy = solve_budget_hull(
                    spec.num_tasks, spec.budget, self.acceptance, spec.price_grid()
                )
            else:
                policy = solve_deadline(self.planning_problem(spec))
            payload["solved"] = True
        if policy is not None:
            if spec.kind == BUDGET:
                payload["price"] = float(policy.as_semi_static().price_at(0))
            else:
                payload["price"] = float(policy.price(spec.num_tasks, 0))
        return payload
