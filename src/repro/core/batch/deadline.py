"""Batched fixed-deadline solver: many MDP instances, one backward sweep.

:func:`solve_deadline_batch` groups instances by shape
``(num_tasks, num_intervals, num_prices, truncation_eps)`` and solves each
group as one stacked tensor computation.  Per time layer ``t`` it builds

* the Poisson-mean matrix ``M[b, j] = lam[b, t] * p_b(c_j)``,
* the completion-count pmf tensor ``P[b, j, s]`` (same multiplicative
  recurrence and Section 3.2 truncation cut-offs as
  :func:`repro.util.poisson.truncated_pmf`, applied elementwise), and
* the continuation values as **one batched matrix product**
  ``P @ T_b`` against a Toeplitz view of the next layer's value vectors —
  replacing the ``batch x prices`` individual ``np.convolve`` calls of
  :func:`repro.core.deadline.vectorized.solve_deadline` with a single BLAS
  call per layer.

Only the continuation reads the next layer, so everything else is
computed ahead of the backward loop for a block of layers at once.

The recurrence, truncation lengths, absorbing-tail payment, and
lowest-price tie-breaking all mirror the scalar solvers, so the price
tables are bitwise those of
:func:`~repro.core.deadline.vectorized.solve_deadline` and
:func:`~repro.core.deadline.simple_dp.solve_deadline_simple` (the values
differ from theirs only in the last bits, because the matmul sums in
another order); the test suite asserts this on randomized instances.
The hoisted sweep and a per-layer sweep give bitwise-identical tables,
values included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.batch import kernels
from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy

__all__ = ["solve_deadline_batch", "solve_deadline_single", "group_key"]

#: Byte budget of the pmf tensor of one block of hoisted layers (the
#: payment tensor and a few temporaries are the same size); a block
#: always holds at least one layer.
_BLOCK_BYTES = 128 * 1024


def group_key(problem: DeadlineProblem) -> tuple:
    """Batching key: instances sharing it stack into one tensor solve."""
    return (
        problem.num_tasks,
        problem.num_intervals,
        problem.num_prices,
        problem.truncation_eps,
    )


def _solve_group(problems: Sequence[DeadlineProblem]) -> list[DeadlinePolicy]:
    """Solve one same-shaped group of instances as stacked tensors.

    The layer-independent terms (pmf tensor, truncation, payment) are
    computed for a block of up to :data:`_BLOCK_BYTES` worth of layers at
    once, and only :func:`~repro.core.batch.kernels.deadline_layer_step`
    runs inside the backward loop.
    """
    first = problems[0]
    n_tasks = first.num_tasks
    n_intervals = first.num_intervals
    eps = first.truncation_eps
    size = n_tasks + 1  # states 0..N, also the pmf head length
    batch = len(problems)
    lam = np.stack([p.arrival_means for p in problems])  # (B, T)
    prices = np.stack([p.price_grid for p in problems])  # (B, C)
    probs = np.stack([p.acceptance_probabilities() for p in problems])
    opt = np.zeros((batch, size, n_intervals + 1))
    price_index = np.zeros((batch, size, n_intervals), dtype=int)
    opt[:, :, n_intervals] = np.stack(
        [p.penalty.terminal_costs(n_tasks) for p in problems]
    )
    lam_by_t = np.ascontiguousarray(lam.T)  # (T, B)
    block = max(1, _BLOCK_BYTES // (8 * batch * first.num_prices * size))
    for stop in range(n_intervals, 0, -block):
        start = max(stop - block, 0)
        means = lam_by_t[start:stop, :, None] * probs  # (L, B, C)
        pmf, pay = kernels.deadline_layer_terms(
            means, np.exp(-means), prices, eps, n_tasks
        )
        for t in range(stop - 1, start - 1, -1):
            opt_t, best = kernels.deadline_layer_step(
                pmf[t - start], pay[t - start], opt[:, :, t + 1]
            )
            opt[:, :, t] = opt_t
            price_index[:, 1:, t] = best[:, 1:]
    return [
        DeadlinePolicy(
            problem=problem,
            opt=opt[b],
            price_index=price_index[b],
            solver="batch",
        )
        for b, problem in enumerate(problems)
    ]


def solve_deadline_single(problem: DeadlineProblem) -> DeadlinePolicy:
    """Solve one instance with the batched kernel, as a batch of one.

    The engine's one-instance solves (adaptive suffix re-solves and
    ``solve_on_miss`` quotes) call this in place of
    :func:`~repro.core.deadline.vectorized.solve_deadline`: same price
    table, several times faster per instance.
    """
    return _solve_group([problem])[0]


def solve_deadline_batch(
    problems: Sequence[DeadlineProblem],
) -> list[DeadlinePolicy]:
    """Solve many fixed-deadline MDP instances in stacked array passes.

    Parameters
    ----------
    problems:
        Deadline instances of any mix of shapes.  Instances sharing
        ``(num_tasks, num_intervals, num_prices, truncation_eps)`` are
        solved together in one tensor sweep; singleton shapes degrade to
        a batch of one (still the batched kernel, still correct).

    Returns
    -------
    list[DeadlinePolicy]
        Solved policies in the same order as ``problems``, each tagged
        ``solver="batch"``.
    """
    if not problems:
        return []
    groups: dict[tuple, list[int]] = {}
    for i, problem in enumerate(problems):
        groups.setdefault(group_key(problem), []).append(i)
    out: list[DeadlinePolicy | None] = [None] * len(problems)
    for indices in groups.values():
        solved = _solve_group([problems[i] for i in indices])
        for i, policy in zip(indices, solved):
            out[i] = policy
    return out  # type: ignore[return-value]
