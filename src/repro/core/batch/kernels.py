"""Compiled hot kernels behind the ``REPRO_KERNELS`` feature flag.

The engine's two hottest solver loops — the batched deadline
value-iteration layer (:func:`deadline_layer`) and the budget solver's
lower convex hull (:func:`lower_hull_indices`) — each exist twice here:

* a **numpy** implementation (the reference: exactly the arithmetic the
  vectorized solvers have always performed, in the same operation order),
  and
* a **numba**-compiled implementation of the same algorithm, written so
  every floating-point operation happens in the same order as the numpy
  path (sequential pmf recurrences, sequential cumulative sums, the
  continuation product routed through the same BLAS ``dot``) — the
  differential suite (``tests/core/batch/test_kernel_equivalence.py``)
  asserts **exact** equality between the two over randomized shapes, and
  the engine-level matrix suite asserts bit-identical
  :class:`~repro.engine.clock.EngineResult` under either.

The numpy deadline layer is the composition of two halves: the
layer-independent terms (:func:`deadline_layer_terms`: pmf, truncation,
payment), which the batched solver computes for a block of layers at
once, and the per-layer :func:`deadline_layer_step` (continuation and
argmin) that runs inside its backward loop.

Selection is environmental, never structural: ``REPRO_KERNELS=numba``
requests the compiled path, ``REPRO_KERNELS=numpy`` (or unset) pins the
reference, and ``REPRO_KERNELS=auto`` compiles when :mod:`numba` is
importable.  When numba is requested but **absent, the numpy path runs
automatically** — the flag can therefore be exported fleet-wide without
making numba a hard dependency (it is an optional extra:
``pip install -e '.[kernels]'``).  Callers flip the selection at runtime
with :func:`set_kernels` (the CLI's ``--kernels``) or scope it with
:func:`use_kernels` (the test harness).

Two fallbacks are built into the dispatchers themselves and are part of
the exactness contract rather than exceptions to it:

* deadline layers containing a Poisson mean at or above the log-space
  switch (mean >= 700) run the numpy path even under ``numba`` — the
  log-space pmf needs ``gammaln``, and routing those rare layers through
  the identical numpy code is what keeps the two paths exactly equal;
* the hull kernel requires strictly increasing x coordinates (always
  true for a validated price grid) and delegates anything else to the
  general python implementation in :mod:`repro.util.convexhull`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import warnings

import numpy as np

from repro.util.convexhull import lower_convex_hull

__all__ = [
    "HAVE_NUMBA",
    "KERNELS",
    "active",
    "active_kernels",
    "available",
    "available_kernels",
    "deadline_layer",
    "deadline_layer_step",
    "deadline_layer_terms",
    "jit_layers",
    "lower_hull_indices",
    "set_kernels",
    "use_kernels",
]

#: Selectable kernel backends (``auto`` additionally accepted by the flag).
KERNELS = ("numpy", "numba")

#: Environment variable the default selection is read from.
KERNELS_ENV = "REPRO_KERNELS"

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the reference container has none
    numba = None
    HAVE_NUMBA = False

#: Above this Poisson mean the pmf recurrence underflows at ``s = 0``; the
#: scalar path (:func:`repro.util.poisson.poisson_pmf_vector`) switches to
#: log-space there, and the batch kernels route the whole layer through
#: the numpy implementation (see module docstring).
LOG_SPACE_MEAN = 700.0

_active: str | None = None


def available() -> tuple[str, ...]:
    """Kernel backends usable in this environment (numpy always is)."""
    return KERNELS if HAVE_NUMBA else ("numpy",)


def _resolve(name: str | None) -> str:
    """Map a requested backend name to the one that will actually run."""
    requested = (name if name is not None else os.environ.get(KERNELS_ENV, "")).strip()
    if requested in ("", "numpy"):
        return "numpy"
    if requested == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if requested == "numba":
        if HAVE_NUMBA:
            return "numba"
        warnings.warn(
            "REPRO_KERNELS=numba requested but numba is not importable; "
            "falling back to the numpy kernels (results are identical)",
            RuntimeWarning,
            stacklevel=3,
        )
        return "numpy"
    raise ValueError(
        f"unknown kernel backend {requested!r}; expected one of "
        f"{KERNELS + ('auto',)}"
    )


def active() -> str:
    """The kernel backend in effect: ``"numpy"`` or ``"numba"``."""
    global _active
    if _active is None:
        _active = _resolve(None)
    return _active


def set_kernels(name: str | None) -> str:
    """Select the kernel backend; returns what actually activated.

    ``name=None`` re-reads :data:`KERNELS_ENV`; ``"numba"`` falls back to
    ``"numpy"`` (with a warning) when numba is absent, so selection never
    fails on a missing optional dependency.
    """
    global _active
    _active = _resolve(name)
    return _active


#: Package-level aliases (``repro.core.batch.active_kernels()`` reads
#: better than re-exporting the bare verbs).
def active_kernels() -> str:
    """Alias of :func:`active` for package-level import."""
    return active()


def available_kernels() -> tuple[str, ...]:
    """Alias of :func:`available` for package-level import."""
    return available()


@contextlib.contextmanager
def use_kernels(name: str | None):
    """Scope a kernel selection (test harness / benchmark arms)."""
    global _active
    previous = _active
    set_kernels(name)
    try:
        yield active()
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Kernel 1: one time layer of the batched deadline value iteration
# ----------------------------------------------------------------------
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
    size = opt_next.shape[1]
    # Toeplitz matrix T[b, s, n] = opt_next[b, n - s] (0 for n < s), gathered
    # contiguous from a zero-padded copy: the continuation of every
    # (instance, price) is one batched matmul.  Contiguous matters: BLAS
    # output on a reversed strided view differs in the last ulp from the
    # contiguous product, and the numba twin (plain 2-D ``np.dot``) can
    # only match the contiguous one.
    padded = np.zeros((opt_next.shape[0], 2 * size - 1))
    padded[:, size - 1 :] = opt_next
    toeplitz = np.take(padded, _toeplitz_index(size), axis=1)
    costs = pmf @ toeplitz  # (B, C, S)
    costs += pay
    costs[:, :, 0] = 0.0
    best = np.argmin(costs, axis=1)  # first minimum = lowest price
    # The minimum is the cost at ``best`` (costs are never -0.0 or NaN).
    opt_t = costs.min(axis=1)
    opt_t[:, 0] = 0.0
    return opt_t, best


@functools.lru_cache(maxsize=64)
def _toeplitz_index(size: int) -> np.ndarray:
    """Gather index ``[s, n] -> n - s + size - 1`` into a zero-padded row.

    Cached per state count and shared by every caller, so read-only.
    """
    n_range = np.arange(size)
    index = n_range[None, :] - n_range[:, None] + size - 1
    index.flags.writeable = False
    return index


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


def _deadline_layer_loops(
    means: np.ndarray,
    pmf0: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
    eps: float,
    use_eps: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Loop form of :func:`_deadline_layer_numpy` (the numba source).

    Every accumulation runs in the same order as the numpy reference —
    the pmf recurrence left to right, the cumulative sums left to right,
    the continuation through the same BLAS ``dot`` — so the jitted
    function produces bit-identical layers.  Kept importable un-jitted so
    the equivalence suite can prove the *algorithm* exact even where
    numba is not installed.
    """
    batch, n_prices = means.shape
    size = opt_next.shape[1]
    n_tasks = size - 1
    opt_t = np.empty((batch, size))
    best = np.zeros((batch, size), dtype=np.int64)
    pmf = np.empty((n_prices, size))
    prob_cum = np.empty((n_prices, size))
    paid_cum = np.empty((n_prices, size))
    lengths = np.empty(n_prices, dtype=np.int64)
    toeplitz = np.zeros((size, size))
    costs = np.empty((n_prices, size))
    for b in range(batch):
        for s in range(size):
            for n in range(s, size):
                toeplitz[s, n] = opt_next[b, n - s]
        for c in range(n_prices):
            m = means[b, c]
            pmf[c, 0] = pmf0[b, c]
            for s in range(1, size):
                pmf[c, s] = pmf[c, s - 1] * m / s
            if use_eps:
                hi = int(np.floor(m + 12.0 * np.sqrt(m) + 20.0))
                if size <= hi:
                    length = size
                else:
                    count = 0
                    cum = 0.0
                    for s in range(n_tasks):
                        cum = cum + pmf[c, s]
                        if 1.0 - cum >= eps:
                            count += 1
                    s0 = 1 + count
                    if s0 < 1:
                        s0 = 1
                    if s0 > size:
                        s0 = size
                    length = s0
            else:
                length = size
            lengths[c] = length
            for s in range(length, size):
                pmf[c, s] = 0.0
            cum_p = 0.0
            cum_paid = 0.0
            for s in range(size):
                cum_p = cum_p + pmf[c, s]
                cum_paid = cum_paid + pmf[c, s] * s
                prob_cum[c, s] = cum_p
                paid_cum[c, s] = cum_paid
        conv = np.dot(pmf, toeplitz)  # same BLAS call as the batched matmul
        for c in range(n_prices):
            length = lengths[c]
            price = prices[b, c]
            costs[c, 0] = 0.0
            for n in range(1, size):
                k = n - 1
                if length - 1 < k:
                    k = length - 1
                if k >= 0:
                    head_prob = prob_cum[c, k]
                    head_paid = paid_cum[c, k]
                else:
                    head_prob = 0.0
                    head_paid = 0.0
                tail = 1.0 - head_prob
                if tail < 0.0:
                    tail = 0.0
                costs[c, n] = price * (head_paid + n * tail) + conv[c, n]
        for n in range(size):
            best_c = 0
            best_cost = costs[0, n]
            for c in range(1, n_prices):
                if costs[c, n] < best_cost:  # strict: first minimum wins
                    best_cost = costs[c, n]
                    best_c = c
            best[b, n] = best_c
            opt_t[b, n] = best_cost
        opt_t[b, 0] = 0.0
    return opt_t, best


if HAVE_NUMBA:  # pragma: no cover - compiled only where numba is installed
    _deadline_layer_jit = numba.njit(cache=True, nogil=True)(
        _deadline_layer_loops
    )
else:
    _deadline_layer_jit = None


def jit_layers() -> bool:
    """True when deadline layers run the compiled kernel (numba active).

    Layers with log-space means still take the numpy path inside
    :func:`deadline_layer`.
    """
    return _deadline_layer_jit is not None and active() == "numba"


def deadline_layer(
    lam_t: np.ndarray,
    probs: np.ndarray,
    prices: np.ndarray,
    opt_next: np.ndarray,
    eps: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One backward-induction layer of the batched deadline solve.

    Parameters
    ----------
    lam_t:
        ``(B,)`` forecast arrivals for the layer's interval.
    probs:
        ``(B, C)`` acceptance probabilities per price.
    prices:
        ``(B, C)`` price grids.
    opt_next:
        ``(B, S)`` next layer's value vectors (``S = num_tasks + 1``).
    eps:
        Poisson truncation threshold (``None`` disables truncation).

    Returns
    -------
    (opt_t, best):
        The layer's ``(B, S)`` value vectors and ``(B, S)`` price indices.
    """
    means = lam_t[:, None] * probs
    pmf0 = np.exp(-means)
    if jit_layers() and not np.any(means >= LOG_SPACE_MEAN):
        return _deadline_layer_jit(
            np.ascontiguousarray(means),
            np.ascontiguousarray(pmf0),
            np.ascontiguousarray(prices),
            np.ascontiguousarray(opt_next),
            eps if eps is not None else 0.0,
            eps is not None,
        )
    return _deadline_layer_numpy(means, pmf0, prices, opt_next, eps)


# ----------------------------------------------------------------------
# Kernel 2: the budget solver's lower convex hull
# ----------------------------------------------------------------------
def _lower_hull_loops(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Monotone-chain lower hull over strictly increasing ``xs``.

    The cross-product expression is written identically to
    :func:`repro.util.convexhull._cross`, so vertex selection — including
    the ``<= 0`` collinear-drop rule — matches the python hull exactly.
    """
    n = xs.shape[0]
    hull = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        while top >= 2:
            o = hull[top - 2]
            a = hull[top - 1]
            cross = (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (
                xs[i] - xs[o]
            )
            if cross <= 0.0:
                top -= 1
            else:
                break
        hull[top] = i
        top += 1
    return hull[:top].copy()


if HAVE_NUMBA:  # pragma: no cover - compiled only where numba is installed
    _lower_hull_jit = numba.njit(cache=True, nogil=True)(_lower_hull_loops)
else:
    _lower_hull_jit = None


def lower_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Lower-convex-hull vertex indices of ``(xs, ys)``.

    Drop-in for :func:`repro.util.convexhull.lower_convex_hull`; the
    compiled path handles the strictly-increasing-x case (what a
    validated price grid always is) and anything else delegates to the
    general python implementation.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if (
        _lower_hull_jit is not None
        and active() == "numba"
        and xs.ndim == 1
        and xs.size > 0
        and bool(np.all(np.diff(xs) > 0))
    ):
        return [int(i) for i in _lower_hull_jit(xs, ys)]
    return lower_convex_hull(xs.tolist(), ys.tolist())
