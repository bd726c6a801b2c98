"""The batch-solve façade the engine's policy cache drains on miss.

:class:`BatchPolicySolver` is the seam between the serving layer and the
array kernels: the engine collects every campaign signature that missed
the :class:`~repro.engine.cache.PolicyCache` during one admission tick and
hands the whole miss set here, which dispatches deadline instances to
:func:`~repro.core.batch.deadline.solve_deadline_batch` and budget
instances to :func:`~repro.core.batch.budget.solve_budget_batch` — one
array pass per tick instead of one solve per campaign.  Counters record
how much batching actually happened (batch calls, instances per call)
for the benchmark reports.  Its deadline solves share one
:class:`~repro.core.batch.deadline.LayerTermsMemo`, so a layer an
earlier solve of the session computed is looked up, not recomputed.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.batch.budget import BudgetRequest, solve_budget_batch
from repro.core.batch.deadline import LayerTermsMemo, solve_deadline_batch
from repro.core.budget.static_lp import StaticAllocation
from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy

__all__ = ["BatchPolicySolver", "BatchSolveStats"]


@dataclasses.dataclass(frozen=True)
class BatchSolveStats:
    """Counters for one :class:`BatchPolicySolver`.

    Attributes
    ----------
    batches:
        Batch-solve calls issued (deadline and budget combined).
    instances:
        Total instances solved across all calls.
    largest_batch:
        Size of the widest single batch — how much stacking the workload
        actually offered.
    """

    batches: int
    instances: int
    largest_batch: int

    @property
    def mean_batch_size(self) -> float:
        """Average instances per batch call (0.0 before any call)."""
        return self.instances / self.batches if self.batches else 0.0

    def since(self, baseline: "BatchSolveStats") -> "BatchSolveStats":
        """Counters accumulated after ``baseline`` was snapshotted.

        Used by the engines to report per-session batch stats: a serving
        session resets (or snapshots) the solver's counters when it
        starts, so reruns don't report cumulative cross-run numbers.
        ``largest_batch`` is a running maximum, not a counter — it is
        reported as-is, which is exact whenever the baseline is a
        session-start reset (the only way the engines use it).
        """
        return BatchSolveStats(
            batches=self.batches - baseline.batches,
            instances=self.instances - baseline.instances,
            largest_batch=self.largest_batch,
        )


class BatchPolicySolver:
    """Solves outstanding deadline/budget instances in stacked array passes.

    Besides its counters it holds :attr:`memo`, a byte-bounded LRU of the
    exact layer terms its deadline solves computed.  Under sliced
    planning every campaign plans against a window of one forecast, so a
    layer's terms recur across the session's solves; a hit returns the
    arrays a miss would compute, and the tables stay bitwise those of a
    cold solve.  :meth:`reset` empties the memo with the counters (the
    engines call it at session start, so every session starts cold);
    the memo is never checkpointed, and a resumed session solves the
    same tables from a cold one.  One instance can serve any number of
    engines, but it is not thread-safe (the engines drain it from the
    coordinator thread only).
    """

    def __init__(self) -> None:
        self._batches = 0
        self._instances = 0
        self._largest = 0
        self.memo = LayerTermsMemo()

    def _count(self, size: int) -> None:
        if size == 0:
            return
        self._batches += 1
        self._instances += size
        self._largest = max(self._largest, size)

    def solve_deadline_many(
        self, problems: Sequence[DeadlineProblem]
    ) -> list[DeadlinePolicy]:
        """Solve deadline MDP instances via the batched tensor kernel,
        through the session's layer memo."""
        self._count(len(problems))
        return solve_deadline_batch(problems, self.memo)

    def solve_budget_many(
        self, requests: Sequence[BudgetRequest]
    ) -> list[StaticAllocation]:
        """Solve fixed-budget instances via the shared-hull batch kernel."""
        self._count(len(requests))
        return solve_budget_batch(requests)

    @property
    def stats(self) -> BatchSolveStats:
        """Current counters as an immutable snapshot."""
        return BatchSolveStats(
            batches=self._batches,
            instances=self._instances,
            largest_batch=self._largest,
        )

    def reset(self) -> None:
        """Zero the counters and empty the layer memo (the engines call
        this at serving-session start)."""
        self._batches = self._instances = self._largest = 0
        self.memo.clear()

    def counters(self) -> tuple[int, int, int]:
        """The raw ``(batches, instances, largest)`` counters (checkpointing)."""
        return (self._batches, self._instances, self._largest)

    def restore_counters(self, batches: int, instances: int, largest: int) -> None:
        """Overwrite the counters (checkpoint restore only).

        A resume replays admissions through the solver — bumping these as
        a side effect — then resets them to the interrupted session's
        recorded values so per-session stats stay exact.
        """
        self._batches = int(batches)
        self._instances = int(instances)
        self._largest = int(largest)

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"BatchPolicySolver(batches={s.batches}, instances={s.instances}, "
            f"largest={s.largest_batch})"
        )
