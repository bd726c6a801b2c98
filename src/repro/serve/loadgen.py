"""Seeded synthetic client traffic for the serving gateway.

:class:`LoadGenerator` produces the request side of a serving benchmark
or regression test, fully determined by its seed:

* **Open mode** (:meth:`LoadGenerator.trace` with ``mode="open"``):
  arrivals are exogenous — each engine tick receives a Poisson-drawn
  number of requests regardless of how the gateway is keeping up.  The
  classic throughput/overload shape.
* **Closed mode** (``mode="closed"``): each of ``clients`` sessions
  issues a request, waits for the response, thinks, then issues the
  next — arrival pressure adapts to service speed.  The trace form
  models the think loop deterministically (one response = one tick);
  :meth:`LoadGenerator.run_closed` runs *real* closed-loop clients as
  asyncio coroutines against a live gateway, which is what measures
  offer→response latency percentiles honestly.

Both modes draw the same client behavior: a :class:`ClientMix`-weighted
blend of campaign submissions (template-drawn, like
:func:`~repro.engine.workload.generate_workload`), price quotes,
cancellations of the client's own earlier campaigns, and telemetry
reads.  Traces replayed through :meth:`Gateway.replay
<repro.serve.gateway.Gateway.replay>` are the deterministic half of the
serving test surface; the async runner is the live half.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from typing import Sequence

import numpy as np

from repro.engine.workload import DEFAULT_TEMPLATES, CampaignTemplate
from repro.serve.gateway import Gateway
from repro.serve.requests import (
    DEFAULT_TENANT,
    Cancel,
    Quote,
    QueryTelemetry,
    RequestTrace,
    Response,
    SubmitCampaign,
    TimedRequest,
)

__all__ = ["ClientMix", "LoadGenerator"]

#: Request-kind draw order (fixed so seeds reproduce across runs).
_KINDS = ("submit", "quote", "cancel", "query")


@dataclasses.dataclass(frozen=True)
class ClientMix:
    """Relative weights of the request kinds one client issues.

    Weights need not sum to one (they are normalized); a zero weight
    disables the kind.  Cancels target the client's *own* earlier
    campaigns, so a cancel drawn before any submission downgrades to a
    quote (as does a submission no template fits the remaining horizon
    for) — keeping every drawn request well-formed.
    """

    submit: float = 0.5
    quote: float = 0.3
    cancel: float = 0.1
    query: float = 0.1

    def __post_init__(self) -> None:
        weights = (self.submit, self.quote, self.cancel, self.query)
        for kind, weight in zip(_KINDS, weights):
            if not 0 <= weight < math.inf:
                raise ValueError(
                    f"mix weight {kind!r} must be finite and non-negative, "
                    f"got {weight}"
                )
        if not sum(weights) > 0:
            raise ValueError("at least one mix weight must be positive")

    def probabilities(self) -> np.ndarray:
        """The normalized kind probabilities, in :data:`_KINDS` order."""
        weights = np.array(
            [self.submit, self.quote, self.cancel, self.query], dtype=float
        )
        return weights / weights.sum()


class LoadGenerator:
    """Draws deterministic client traffic for one serving session.

    Parameters
    ----------
    num_intervals:
        The served stream's horizon (bounds arrival ticks and campaign
        fit).
    seed:
        Fixes every draw: arrival counts, client assignment, request
        kinds, campaign shapes.  Independent of the engine's run seed.
    clients:
        Concurrent client sessions.
    mix:
        Request-kind weights (:class:`ClientMix`).
    rate:
        Open mode: mean requests per tick (Poisson).
    think:
        Closed mode: mean think ticks between a response and the next
        request (drawn uniformly from ``0..2*think``).
    requests_per_client:
        Closed mode: requests each client issues before going quiet.
    templates:
        Campaign shape pool submissions draw from.
    adaptive_fraction:
        Probability a drawn deadline campaign re-plans adaptively.
    quote_solve_on_miss:
        Whether drawn quotes ask the gateway to solve uncached shapes.
    tenants:
        Optional tenant names; client ``i`` issues every request under
        tenant ``tenants[i % len(tenants)]`` (round-robin assignment).
        ``None`` leaves all traffic on the default tenant — traces then
        serialize byte-identically to the pre-tenant generator's.
    """

    def __init__(
        self,
        num_intervals: int,
        *,
        seed: int = 0,
        clients: int = 4,
        mix: ClientMix | None = None,
        rate: float = 3.0,
        think: int = 2,
        requests_per_client: int = 32,
        templates: Sequence[CampaignTemplate] = DEFAULT_TEMPLATES,
        adaptive_fraction: float = 0.25,
        quote_solve_on_miss: bool = False,
        tenants: Sequence[str] | None = None,
    ):
        if num_intervals <= 0:
            raise ValueError(f"num_intervals must be positive, got {num_intervals}")
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {rate}")
        if think < 0:
            raise ValueError(f"think must be non-negative, got {think}")
        if requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got {requests_per_client}"
            )
        if not templates:
            raise ValueError("need at least one campaign template")
        self.num_intervals = num_intervals
        self.seed = seed
        self.clients = clients
        self.mix = mix if mix is not None else ClientMix()
        self.rate = rate
        self.think = think
        self.requests_per_client = requests_per_client
        self.templates = tuple(templates)
        self.adaptive_fraction = adaptive_fraction
        self.quote_solve_on_miss = quote_solve_on_miss
        if tenants is not None and not all(tenants):
            raise ValueError("tenant names must be non-empty")
        self.tenants = tuple(tenants) if tenants is not None else None

    def _tenant_of(self, client_index: int) -> str:
        """The tenant client ``i`` issues requests under."""
        if self.tenants is None:
            return DEFAULT_TENANT
        return self.tenants[client_index % len(self.tenants)]

    # ------------------------------------------------------------------
    # Request drawing (shared by both modes)
    # ------------------------------------------------------------------
    def _draw_request(
        self,
        rng: np.random.Generator,
        client: str,
        tick: int,
        submitted: list[str],
        counters: dict[str, int],
    ):
        """One client's next request at ``tick`` (always well-formed)."""
        kind = _KINDS[
            int(rng.choice(len(_KINDS), p=self.mix.probabilities()))
        ]
        if kind == "submit":
            fitting = [
                t
                for t in self.templates
                if tick + t.horizon_intervals <= self.num_intervals
            ]
            if not fitting:
                kind = "quote"  # nothing fits the remaining horizon
            else:
                template = fitting[int(rng.integers(len(fitting)))]
                n = counters.get(client, 0)
                counters[client] = n + 1
                spec = template.spec(
                    campaign_id=f"{client}-{n:03d}",
                    submit_interval=tick,
                    adaptive=bool(rng.random() < self.adaptive_fraction),
                )
                submitted.append(spec.campaign_id)
                return SubmitCampaign(spec)
        if kind == "cancel":
            if not submitted:
                kind = "quote"  # nothing of ours to cancel yet
            else:
                return Cancel(submitted[int(rng.integers(len(submitted)))])
        if kind == "query":
            return QueryTelemetry(last=int(rng.integers(0, 9)))
        template = self.templates[int(rng.integers(len(self.templates)))]
        return Quote(
            template.spec(campaign_id="quote", submit_interval=0),
            solve_on_miss=self.quote_solve_on_miss,
        )

    def _client_names(self) -> list[str]:
        return [f"c{i:02d}" for i in range(self.clients)]

    # ------------------------------------------------------------------
    # Deterministic traces
    # ------------------------------------------------------------------
    def trace(self, mode: str = "open") -> RequestTrace:
        """Draw the full request trace for one serving run.

        ``"open"`` draws Poisson per-tick arrivals over the whole
        horizon; ``"closed"`` models each client's issue→respond→think
        loop with a deterministic one-tick service time.  Either way the
        result is pure data: replaying it is bit-reproducible.
        """
        if mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
        rng = np.random.default_rng([self.seed, 0x5E12, 0])
        names = self._client_names()
        submitted: dict[str, list[str]] = {name: [] for name in names}
        counters: dict[str, int] = {}
        requests: list[TimedRequest] = []
        if mode == "open":
            for t in range(self.num_intervals):
                for _ in range(int(rng.poisson(self.rate))):
                    index = int(rng.integers(len(names)))
                    client = names[index]
                    request = self._draw_request(
                        rng, client, t, submitted[client], counters
                    )
                    requests.append(
                        TimedRequest(
                            t, client, request, tenant=self._tenant_of(index)
                        )
                    )
        else:
            for index, client in enumerate(names):
                tenant = self._tenant_of(index)
                t = int(rng.integers(0, self.think + 1))
                for _ in range(self.requests_per_client):
                    if t >= self.num_intervals:
                        break
                    request = self._draw_request(
                        rng, client, t, submitted[client], counters
                    )
                    requests.append(
                        TimedRequest(t, client, request, tenant=tenant)
                    )
                    # One tick of service, then a drawn think pause.
                    t += 1 + int(rng.integers(0, 2 * self.think + 1))
        return RequestTrace(
            name=f"loadgen-{mode}-seed{self.seed}", requests=tuple(requests)
        )

    # ------------------------------------------------------------------
    # Live closed-loop clients (asyncio)
    # ------------------------------------------------------------------
    async def run_closed(self, gateway: Gateway) -> list[Response]:
        """Drive real closed-loop clients against a live gateway.

        Starts the gateway's :meth:`~repro.serve.gateway.Gateway.serve`
        loop, runs ``clients`` coroutines each issuing
        ``requests_per_client`` requests (await response, think, repeat),
        then stops the loop.  Returns every response, in completion
        order.  Latency percentiles land in
        ``gateway.telemetry.latency``.  Live interleaving is
        scheduler-dependent — use :meth:`trace` + ``Gateway.replay``
        when determinism matters.
        """
        responses: list[Response] = []
        serve_task = asyncio.ensure_future(gateway.serve())

        async def client_session(name: str, client_seed: int) -> None:
            rng = np.random.default_rng([self.seed, 0xC11E, client_seed])
            tenant = self._tenant_of(client_seed)
            submitted: list[str] = []
            counters: dict[str, int] = {}
            for _ in range(self.requests_per_client):
                if gateway.horizon_exhausted or serve_task.done():
                    break
                # Live submissions target the next boundary's interval.
                tick = min(gateway.clock + 1, self.num_intervals)
                request = self._draw_request(
                    rng, name, tick, submitted, counters
                )
                response = await gateway.request(
                    request, client=name, tenant=tenant
                )
                responses.append(response)
                for _ in range(self.think):
                    await asyncio.sleep(0)

        await asyncio.gather(
            *(
                client_session(name, i)
                for i, name in enumerate(self._client_names())
            )
        )
        gateway.stop()
        await serve_task
        return responses
