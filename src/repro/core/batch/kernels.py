"""The deadline layer of the batched solver, in two halves.

One backward-induction layer of the batched deadline value iteration is
the composition of

* the layer-independent terms (:func:`deadline_layer_terms`: pmf,
  truncation, payment), which the batched solver computes for a block
  of layers at once, and
* the per-layer :func:`deadline_layer_step` (continuation and argmin)
  that runs inside its backward loop.

:func:`_deadline_layer_numpy` composes the two for a single layer; it is
the per-layer reference the hoisted sweep is tested against
(``tests/core/batch/test_batch_deadline.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["deadline_layer_step", "deadline_layer_terms"]

#: Above this Poisson mean the pmf recurrence underflows at ``s = 0``; the
#: scalar path (:func:`repro.util.poisson.poisson_pmf_vector`) switches to
#: log-space there, and so does :func:`deadline_layer_terms`.
LOG_SPACE_MEAN = 700.0


def deadline_layer_terms(
    means: np.ndarray,
    pmf0: np.ndarray,
    prices: np.ndarray,
    eps: float | None,
    n_tasks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Layer-independent half of a deadline layer: pmf and payment terms.

    Nothing here reads the next layer's values, so the batched solver
    computes these terms for a whole block of layers in one pass: every
    operation is elementwise or runs along the last (state) axis, and
    its result does not depend on the leading axes.  ``means``/``pmf0``
    are ``(..., B, C)`` and ``prices`` is ``(B, C)``; returns ``(pmf,
    pay)``, both ``(..., B, C, S)`` with ``S = n_tasks + 1``: the
    truncated completion-count pmf, and the expected payment
    ``price * (head_paid + n * tail)`` of posting each price at each
    state.
    """
    size = n_tasks + 1
    n_range = np.arange(size)
    # Poisson pmf tensor P[..., c, s]: the stable multiplicative recurrence
    # seeded by the precomputed pmf0 = exp(-means), run state-major so each
    # step writes one contiguous row; means at or above LOG_SPACE_MEAN,
    # where the recurrence underflows, are overwritten by the log-space pmf.
    pmf = np.empty((size,) + means.shape)
    pmf[0] = pmf0
    for s in range(1, size):
        np.multiply(pmf[s - 1], means, out=pmf[s])
        np.divide(pmf[s], s, out=pmf[s])
    pmf = np.moveaxis(pmf, 0, -1).copy()
    big = means >= LOG_SPACE_MEAN
    if np.any(big):
        pmf[big] = _pmf_log_space(means[big], n_tasks)
    lengths = _truncation_lengths(means, pmf, eps, n_tasks)
    pmf[n_range >= lengths[..., None]] = 0.0
    # Head of the payment term for state n covers s = 0 .. min(n-1,
    # length-1): the running sums up to n - 1, since past the cut-off they
    # only add zeros.  The Poisson tail completes all n remaining tasks
    # (absorbing state).  ``pay`` is built in place, holding head_prob,
    # then the tail, then price * (head_paid + n * tail).
    head_paid = np.zeros(pmf.shape)
    np.cumsum((pmf * n_range)[..., :-1], axis=-1, out=head_paid[..., 1:])
    pay = np.zeros(pmf.shape)
    np.cumsum(pmf[..., :-1], axis=-1, out=pay[..., 1:])
    np.subtract(1.0, pay, out=pay)
    np.maximum(pay, 0.0, out=pay)
    pay *= n_range
    pay += head_paid
    pay *= prices[..., None]
    return pmf, pay


def deadline_layer_step(
    pmf: np.ndarray, pay: np.ndarray, opt_next: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Layer-dependent half of a deadline layer: continuation and argmin.

    ``pmf``/``pay`` are one layer's ``(B, C, S)`` terms from
    :func:`deadline_layer_terms` and ``opt_next`` the ``(B, S)`` next
    layer's values; returns ``(opt_t, best)`` as
    :func:`_deadline_layer_numpy` does.
    """
    batch, size = opt_next.shape
    # Toeplitz matrix T[b, s, n] = opt_next[b, n - s] (0 for n < s): a view
    # into a zero-padded copy that steps one element back per state s,
    # copied contiguous so the continuation of every (instance, price) is
    # one batched matmul.  Contiguous matters: BLAS output on the strided
    # view differs in the last ulp from the contiguous product, which
    # would move the solved values.
    padded = np.zeros((batch, 2 * size - 1))
    padded[:, size - 1 :] = opt_next
    step = padded.itemsize
    toeplitz = np.ndarray(
        (batch, size, size),
        buffer=padded,
        offset=(size - 1) * step,
        strides=(padded.strides[0], -step, step),
    ).copy()
    costs = pmf @ toeplitz  # (B, C, S)
    costs += pay
    costs[:, :, 0] = 0.0
    best = np.argmin(costs, axis=1)  # first minimum = lowest price
    # The minimum is the cost at ``best`` (costs are never -0.0 or NaN).
    opt_t = costs.min(axis=1)
    opt_t[:, 0] = 0.0
    return opt_t, best


def _deadline_layer_numpy(
    means: np.ndarray,
    pmf0: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
    eps: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference layer: :func:`deadline_layer_terms` then the step.

    ``means``/``prices`` are ``(B, C)``, ``opt_next`` is ``(B, S)`` with
    ``S = num_tasks + 1``; returns ``(opt_t, best)`` where ``opt_t`` is the
    layer's value vector (``opt_t[:, 0] = 0``) and ``best`` the per-state
    lowest-cost price index (first minimum = lowest price).
    """
    pmf, pay = deadline_layer_terms(
        means, pmf0, prices, eps, opt_next.shape[1] - 1
    )
    return deadline_layer_step(pmf, pay, opt_next)


def _pmf_log_space(means: np.ndarray, s_max: int) -> np.ndarray:
    """Log-space Poisson pmf rows for means past the recurrence's range."""
    from scipy import special

    s_range = np.arange(s_max + 1, dtype=float)
    m = means[:, None]
    return np.exp(s_range * np.log(m) - m - special.gammaln(s_range + 1.0))


def _truncation_lengths(
    means: np.ndarray, pmf: np.ndarray, eps: float | None, s_max: int
) -> np.ndarray:
    """Per-(instance, price) kept pmf length, matching ``truncated_pmf``.

    The scalar rule: with the Gaussian band ``hi = mean + 12 sqrt(mean) + 20``
    covering the whole head (``s_max + 1 <= hi``) nothing is cut; otherwise
    the head is cut at the smallest ``s0`` with ``Pr(Pois >= s0) < eps``
    (at least 1, at most ``s_max + 1``).
    """
    full = s_max + 1
    if eps is None:
        return np.full(means.shape, full, dtype=int)
    hi = np.floor(means + 12.0 * np.sqrt(means) + 20.0).astype(int)
    cums = np.cumsum(pmf, axis=-1)
    # s0 = 1 + #{s' in 0..s_max-1 : Pr(Pois >= s'+1) = 1 - cdf(s') >= eps}.
    s0 = 1 + np.sum(1.0 - cums[..., : s_max] >= eps, axis=-1)
    s0 = np.clip(s0, 1, full)
    return np.where(full <= hi, full, s0)
