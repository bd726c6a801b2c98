"""Batch-vectorized fast path: solve *many* pricing instances in one pass.

The scalar solvers in :mod:`repro.core.deadline` and
:mod:`repro.core.budget` price one campaign at a time; a marketplace
serving thousands of near-identical campaigns (``repro.engine``) spends
most of its admission time in per-instance Python overhead — one pmf, one
convolution, one hull at a time.  This package restructures the hot path
around the array layout instead:

* :mod:`repro.core.batch.deadline` — :func:`solve_deadline_batch` stacks
  same-shaped deadline MDPs into ``(batch, price, state)`` tensors and
  sweeps all of them backwards together, replacing per-instance
  ``np.convolve`` calls with one batched matrix product per time layer.
* :mod:`repro.core.batch.budget` — :func:`solve_budget_batch` groups
  fixed-budget instances by their ``(acceptance, grid)`` and reuses one
  :class:`~repro.core.budget.static_lp.BudgetHull` across every instance
  in a group.
* :mod:`repro.core.batch.solver` — :class:`BatchPolicySolver`, the façade
  the engine's :class:`~repro.engine.cache.PolicyCache` drains on miss:
  all outstanding campaign signatures of a tick are solved in one array
  pass, however few there are.
* :mod:`repro.core.batch.kernels` — the deadline layer in two halves:
  the layer-independent pmf and payment terms, computed for a block of
  layers at once, and the per-layer continuation and argmin.

Every batch kernel reproduces the corresponding scalar solver's tables
(same truncation cut-offs, same tie-breaking toward lower prices); the
test suite asserts equality on randomized instances.
"""

from repro.core.batch.budget import BudgetRequest, solve_budget_batch
from repro.core.batch.deadline import solve_deadline_batch
from repro.core.batch.solver import BatchPolicySolver, BatchSolveStats

__all__ = [
    "BatchPolicySolver",
    "BatchSolveStats",
    "BudgetRequest",
    "solve_budget_batch",
    "solve_deadline_batch",
]
