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

Only the continuation reads the next layer, so everything else (the
layer's *terms*: pmf, truncation and payment) depends on the layer's
arrival mean, the instance's acceptance probabilities and price grid,
``eps`` and ``N`` alone, and is computed ahead of the backward loop for
a block of layers at once.  A layer's key is the raw bytes of exactly
those inputs, and a group computes each key once and carries its terms
to its next use while the uses lie close enough together (within
:data:`MEMO_BYTES` of carried terms, so memory does not grow with the
horizon).  Given a :class:`LayerTermsMemo`, the group looks each key up
there first and adds what it computes.  A
:class:`~repro.core.batch.solver.BatchPolicySolver` keeps one memo for
its session, where sliced forecast windows overlap and most layers
repeat; every other call shares layers only within each group.  A hit
is the arrays a miss would compute, so the memo moves no bit.

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

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.core.batch import kernels
from repro.core.deadline.model import DeadlineProblem
from repro.core.deadline.policy import DeadlinePolicy

__all__ = [
    "LayerTermsMemo",
    "MEMO_BYTES",
    "group_key",
    "solve_deadline_batch",
    "solve_deadline_single",
]

#: Byte budget of the pmf tensor of one block of hoisted layer terms
#: (the payment tensor and a few temporaries are the same size); a block
#: always holds at least one instance's layer.
_BLOCK_BYTES = 128 * 1024

#: Byte budget of one :class:`LayerTermsMemo`'s held pmf and payment
#: arrays, and of the terms one group carries between a key's uses.
MEMO_BYTES = 2 * 1024 * 1024


def group_key(problem: DeadlineProblem) -> tuple:
    """Batching key: instances sharing it stack into one tensor solve."""
    return (
        problem.num_tasks,
        problem.num_intervals,
        problem.num_prices,
        problem.truncation_eps,
    )


class LayerTermsMemo:
    """Byte-bounded LRU of exact deadline layer terms.

    Keys are the raw bytes of everything
    :func:`~repro.core.batch.kernels.deadline_layer_terms` reads for one
    instance's layer: its arrival mean, acceptance probabilities, price
    grid, truncation ``eps`` and ``N``.  Values are read-only ``(pmf,
    pay)`` copies, each ``(num_prices, num_tasks + 1)``, so a hit hands
    back exactly the arrays a miss would compute.  Least recently used
    entries are evicted past :data:`MEMO_BYTES`; ``nbytes`` counts the
    held arrays, and ``hits`` and ``misses`` count lookups.  A memo is
    derived state, never checkpointed.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> tuple[np.ndarray, np.ndarray] | None:
        """The held ``(pmf, pay)`` of ``key`` (now most recent), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def put(
        self, key: tuple, pmf: np.ndarray, pay: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hold read-only copies of a layer's terms; returns the pair held.

        A key already held keeps its entry, so no layer is counted twice.
        Terms larger than the whole budget are not held, and come back
        as given.
        """
        held = self._entries.get(key)
        if held is not None:
            return held
        size = pmf.nbytes + pay.nbytes
        if size > MEMO_BYTES:
            return pmf, pay
        while self.nbytes + size > MEMO_BYTES:
            _, (old_pmf, old_pay) = self._entries.popitem(last=False)
            self.nbytes -= old_pmf.nbytes + old_pay.nbytes
        held = (pmf.copy(), pay.copy())
        for array in held:
            array.flags.writeable = False
        self._entries[key] = held
        self.nbytes += size
        return held

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.nbytes = self.hits = self.misses = 0


def _solve_group(
    problems: Sequence[DeadlineProblem], memo: LayerTermsMemo | None
) -> list[DeadlinePolicy]:
    """Solve one same-shaped group of instances as stacked tensors.

    A layer's terms are computed once for each *run* of its key: the
    key's uses, latest layer first, while consecutive ones lie at most
    ``reach`` layers apart, which keeps what the call carries between
    uses within :data:`MEMO_BYTES` whatever the horizon.  Each run looks
    its key up in ``memo`` (``None``: the group shares only within
    itself).  The misses are computed in the order the backward loop
    reaches them, up to :data:`_BLOCK_BYTES` worth of layers per
    :func:`~repro.core.batch.kernels.deadline_layer_terms` call, and
    added to ``memo``; a run's terms are dropped once its last layer is
    swept.  Only :func:`~repro.core.batch.kernels.deadline_layer_step`
    runs once per layer.
    """
    first = problems[0]
    n_tasks = first.num_tasks
    n_intervals = first.num_intervals
    n_prices = first.num_prices
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
    # A layer's key is the raw bytes of everything the terms read: bytes,
    # not floats, since 0.0 == -0.0 (whose pmf carries signed zeros) and
    # NaN != NaN.
    shared = [
        (probs[b].tobytes(), prices[b].tobytes(), eps, n_tasks)
        for b in range(batch)
    ]
    raw = [lam[b].tobytes() for b in range(batch)]
    width = lam.itemsize
    block = max(1, _BLOCK_BYTES // (8 * n_prices * size))
    reach = max(1, MEMO_BYTES // (batch * 16 * n_prices * size))
    # Plan the runs, latest layer first: ``slots[t][b]`` is the run that
    # serves (b, t), ``starts[run]`` its first layer, ``until[run]`` its
    # earliest layer so far, and ``held[run]`` its terms once known (a
    # memo hit is known now).
    # ``misses`` queues the runs to compute in order of first use,
    # ``cells`` holds the ``b * T + t`` of that use, and ``due[t]``
    # counts the misses used from layer t on.
    open_runs: dict[tuple, int] = {}
    run_keys: list[tuple] = []
    starts: list[int] = []
    until: list[int] = []
    held: list[tuple[np.ndarray, np.ndarray] | None] = []
    misses: list[int] = []
    cells: list[int] = []
    slots: list[list[int]] = [[]] * n_intervals
    due = [0] * n_intervals
    for t in range(n_intervals - 1, -1, -1):
        layer = []
        for b in range(batch):
            key = (shared[b], raw[b][t * width : (t + 1) * width])
            run = open_runs.get(key)
            if run is None or until[run] - t > reach:
                run = open_runs[key] = len(run_keys)
                run_keys.append(key)
                starts.append(t)
                until.append(t)
                entry = None if memo is None else memo.get(key)
                held.append(entry)
                if entry is None:
                    misses.append(run)
                    cells.append(b * n_intervals + t)
            until[run] = t
            layer.append(run)
        slots[t] = layer
        due[t] = len(misses)
    ends: list[list[int]] = [[] for _ in range(n_intervals)]
    for run, t in enumerate(until):
        ends[t].append(run)
    means = (lam[:, :, None] * probs[:, None, :]).reshape(-1, n_prices)
    rows = np.array(cells, dtype=np.intp)  # rows of ``means``
    owner = rows // n_intervals
    done = 0
    if batch > 1:
        pmf_t = np.empty((batch, n_prices, size))
        pay_t = np.empty((batch, n_prices, size))
    for t in range(n_intervals - 1, -1, -1):
        while done < due[t]:
            chunk = slice(done, done + block)
            means_c = means.take(rows[chunk], axis=0)
            pmf, pay = kernels.deadline_layer_terms(
                means_c, np.exp(-means_c), prices.take(owner[chunk], axis=0),
                eps, n_tasks,
            )
            for i, run in enumerate(misses[chunk]):
                if memo is not None:
                    held[run] = memo.put(run_keys[run], pmf[i], pay[i])
                elif until[run] < starts[run]:
                    # Used past its first layer: a copy, so that it does
                    # not keep the whole chunk alive.
                    held[run] = (pmf[i].copy(), pay[i].copy())
                else:
                    held[run] = (pmf[i], pay[i])
            done += len(means_c)
        layer = slots[t]
        if batch == 1:
            pmf_t, pay_t = held[layer[0]]
            pmf_t, pay_t = pmf_t[None], pay_t[None]
        else:
            np.stack([held[run][0] for run in layer], out=pmf_t)
            np.stack([held[run][1] for run in layer], out=pay_t)
        opt_t, best = kernels.deadline_layer_step(pmf_t, pay_t, opt[:, :, t + 1])
        opt[:, :, t] = opt_t
        price_index[:, 1:, t] = best[:, 1:]
        for run in ends[t]:
            held[run] = None
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
    table, several times faster per instance.  It keeps no memo: a layer
    repeated within the horizon (a flat forecast repeats every one) is
    computed once per run of its key, and nothing outlives the call.
    """
    return _solve_group([problem], None)[0]


def solve_deadline_batch(
    problems: Sequence[DeadlineProblem],
    memo: LayerTermsMemo | None = None,
) -> list[DeadlinePolicy]:
    """Solve many fixed-deadline MDP instances in stacked array passes.

    Parameters
    ----------
    problems:
        Deadline instances of any mix of shapes.  Instances sharing
        ``(num_tasks, num_intervals, num_prices, truncation_eps)`` are
        solved together in one tensor sweep; singleton shapes degrade to
        a batch of one (still the batched kernel, still correct).
    memo:
        The :class:`LayerTermsMemo` to look layer terms up in and add
        the computed ones to: a :class:`~repro.core.batch.solver.BatchPolicySolver`
        passes its session's.  Without one, each group shares layers only
        within itself, as :func:`solve_deadline_single` does, and nothing
        outlives the call.  Either way the tables are bitwise those of a
        cold solve.

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
        solved = _solve_group([problems[i] for i in indices], memo)
        for i, policy in zip(indices, solved):
            out[i] = policy
    return out  # type: ignore[return-value]
