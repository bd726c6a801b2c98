"""Split one shared worker stream across the live campaigns.

Each engine interval delivers a realized number of marketplace worker
arrivals; an :class:`ArrivalRouter` decides which campaign (if any) each
worker accepts, given the rewards currently posted.  Two models:

* :class:`LogitRouter` — the multi-campaign generalization of the paper's
  Eq. 3 acceptance model.  A worker facing live campaigns with rewards
  ``c_1 .. c_K`` and the marketplace's competing-utility mass ``M`` picks
  campaign ``i`` with probability ``e_i / (sum_j e_j + M)`` where
  ``e_i = exp(c_i / s - b)``, and walks away with probability
  ``M / (sum_j e_j + M)``.  With a single live campaign this reduces
  exactly to ``p(c)`` from Eq. 3, so engine runs degrade gracefully to the
  paper's single-batch setting.
* :class:`UniformRouter` — attention-limited baseline: each worker
  considers one uniformly-chosen live campaign and accepts it with the
  ordinary ``p(c)``.  This is the "campaigns are solved in isolation"
  assumption made literal, and shows what contention costs.

Routers return both the *considered* and *accepted* counts so adaptive
campaigns can feed realized demand into their rate predictors.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.market.acceptance import AcceptanceModel, LogitAcceptance

__all__ = ["ArrivalRouter", "LogitRouter", "UniformRouter", "default_router"]


def _logit_weights(model: LogitAcceptance, price_arr: np.ndarray) -> np.ndarray:
    """Exponentiated logit utilities ``e_i = exp(c_i / s - b)``, clipped.

    The single choice-weight computation shared by
    :meth:`LogitRouter.split` and :meth:`LogitRouter.fractions`, so the
    realized-split and factored-fraction paths can never disagree on the
    weights: the pooled and factored arrival models realize the same
    choice model.
    """
    utilities = np.clip(price_arr / model.s - model.b, None, 700.0)
    return np.exp(utilities)


def default_router(acceptance: AcceptanceModel) -> "ArrivalRouter":
    """The router both engines default to for a given acceptance model.

    A :class:`LogitAcceptance` marketplace gets the :class:`LogitRouter`
    (its exponentiated utilities are the choice weights); any other model
    falls back to the attention-limited :class:`UniformRouter`.
    """
    if isinstance(acceptance, LogitAcceptance):
        return LogitRouter(acceptance)
    return UniformRouter(acceptance)


class ArrivalRouter(abc.ABC):
    """Allocates one interval's worker arrivals among live campaigns."""

    @abc.abstractmethod
    def split(
        self, arrived: int, prices: Sequence[float], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(considered, accepted)`` counts per campaign.

        ``considered[i]`` workers looked at campaign ``i``; ``accepted[i]``
        of them took a task (``accepted <= considered`` elementwise, and
        ``sum(considered) <= arrived``).
        """

    @abc.abstractmethod
    def fractions(self, prices: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(accept, consider)`` per-worker choice fractions.

        ``accept[i]`` is the probability that one arriving worker ends up
        accepting a task of campaign ``i``; ``consider[i]`` the probability
        that the worker looks at campaign ``i`` at all (``accept <=
        consider`` elementwise, ``sum(consider) <= 1``).

        These fractions are what makes the stream *splittable*: thinning a
        Poisson arrival stream by independent per-worker choices yields
        **independent** Poisson streams with means ``lambda_t * accept[i]``
        (the classical Poisson-splitting property), which is how the
        engine's factored arrival model lets each campaign draw its own
        acceptances without simulating the others.
        """

    @staticmethod
    def _validate(arrived: int, prices: Sequence[float]) -> np.ndarray:
        """Shared argument validation; returns the price vector."""
        if arrived < 0:
            raise ValueError(f"arrived must be non-negative, got {arrived}")
        price_arr = np.asarray(prices, dtype=float)
        if price_arr.ndim != 1:
            raise ValueError("prices must be a 1-D sequence")
        if np.any(price_arr < 0):
            raise ValueError("prices must be non-negative")
        return price_arr


class LogitRouter(ArrivalRouter):
    """Conditional-logit choice over all live campaigns plus walking away.

    Parameters
    ----------
    model:
        The marketplace's :class:`~repro.market.acceptance.LogitAcceptance`
        (Eq. 3 / Eq. 13); its ``s``, ``b``, ``m`` give the utility scale,
        task attractiveness, and competing-utility mass.
    """

    def __init__(self, model: LogitAcceptance):
        if not isinstance(model, LogitAcceptance):
            raise TypeError(
                "LogitRouter needs a LogitAcceptance model (the router's "
                f"choice weights are its exponentiated utilities), got {model!r}"
            )
        self.model = model

    def split(
        self, arrived: int, prices: Sequence[float], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Multinomial worker choice: campaigns' logit weights vs mass ``M``."""
        price_arr = self._validate(arrived, prices)
        k = price_arr.size
        if k == 0 or arrived == 0:
            zero = np.zeros(k, dtype=int)
            return zero, zero.copy()
        weights = _logit_weights(self.model, price_arr)
        denom = weights.sum() + self.model.m
        pvals = np.append(weights / denom, self.model.m / denom)
        draws = rng.multinomial(arrived, pvals)
        accepted = draws[:k].astype(int)
        # Choosing a campaign is accepting one of its tasks: considered ==
        # accepted under pure discrete choice.
        return accepted.copy(), accepted

    def fractions(self, prices: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Logit choice shares ``e_i / (sum_j e_j + M)`` (consider == accept)."""
        price_arr = self._validate(0, prices)
        if price_arr.size == 0:
            empty = np.zeros(0)
            return empty, empty.copy()
        weights = _logit_weights(self.model, price_arr)
        accept = weights / (weights.sum() + self.model.m)
        return accept, accept.copy()

    def __repr__(self) -> str:
        return f"LogitRouter({self.model!r})"


class UniformRouter(ArrivalRouter):
    """Each worker considers one uniformly-drawn campaign, then applies ``p(c)``.

    Parameters
    ----------
    acceptance:
        The single-campaign acceptance model ``p(c)`` applied after the
        uniform attention draw (any :class:`AcceptanceModel`).
    """

    def __init__(self, acceptance: AcceptanceModel):
        self.acceptance = acceptance

    def split(
        self, arrived: int, prices: Sequence[float], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform attention split followed by per-campaign Bernoulli acceptance.

        The acceptance thinning is one vectorized ``rng.binomial`` call
        over *every* campaign — including those whose price draws zero
        acceptance or zero attention — so the generator always sees the
        same call pattern per tick.  Skipping draws conditionally (the old
        behaviour) made every later draw of the run depend on whether any
        posted price happened to hit ``p(c) == 0``.
        """
        price_arr = self._validate(arrived, prices)
        k = price_arr.size
        if k == 0 or arrived == 0:
            zero = np.zeros(k, dtype=int)
            return zero, zero.copy()
        considered = rng.multinomial(arrived, np.full(k, 1.0 / k))
        probs = np.clip(self.acceptance.probabilities(price_arr), 0.0, 1.0)
        accepted = rng.binomial(considered, probs)
        return considered.astype(int), accepted.astype(int)

    def fractions(self, prices: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Uniform attention ``1/K`` per campaign, acceptance ``p(c_i)/K``."""
        price_arr = self._validate(0, prices)
        k = price_arr.size
        if k == 0:
            empty = np.zeros(0)
            return empty, empty.copy()
        consider = np.full(k, 1.0 / k)
        accept = consider * self.acceptance.probabilities(price_arr)
        return accept, consider

    def __repr__(self) -> str:
        return f"UniformRouter({self.acceptance!r})"
