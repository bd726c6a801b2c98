"""``CampaignPlanner.refusal``: the one admit-or-refuse decision.

Submission, quotes and workload-source pulls all ask the planner, so
they refuse the same campaigns with the same text.  The shape bounds come
first, before anything is sized by the spec: the oversized cases below
used to allocate gigabytes (``MemoryError`` out of ``Gateway.offer`` or
out of the ``step()`` that admitted them), so against an older build they
are only safe to run under an address-space limit (``ulimit -v``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CampaignSpec, ListSource, MarketplaceEngine
from repro.engine.planning import MAX_DEADLINE_CELLS, MAX_NUM_TASKS, MAX_PRICE
from repro.engine.workload import DEFAULT_TEMPLATES
from repro.market.acceptance import paper_acceptance_model
from repro.serve import Gateway
from repro.serve.requests import Quote, SubmitCampaign
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 48


def make_engine(num_intervals: int = NUM_INTERVALS) -> MarketplaceEngine:
    means = 700.0 + 150.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, num_intervals))
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(), planning="stationary"
    )


def make_spec(**overrides) -> CampaignSpec:
    base = dict(
        campaign_id="big", kind="deadline", num_tasks=10, submit_interval=0,
        horizon_intervals=6, max_price=10,
    )
    base.update(overrides)
    return CampaignSpec(**base)


#: One refused spec per rule, keyed by the rule it breaks.
REFUSED = {
    "num_tasks": make_spec(num_tasks=MAX_NUM_TASKS + 1, max_price=1,
                           horizon_intervals=1),
    "max_price": make_spec(kind="budget", max_price=MAX_PRICE + 1, budget=1e6),
    "cells": make_spec(num_tasks=1000, max_price=50, horizon_intervals=48),
    "horizon": make_spec(submit_interval=40, horizon_intervals=18),
    "budget": make_spec(kind="budget", num_tasks=50, budget=1.0),
}


class TestShapeBounds:
    def test_bounds_admit_every_repository_shape(self):
        planner = make_engine(num_intervals=128).planner
        shapes = [template.spec(template.name, 0) for template in DEFAULT_TEMPLATES]
        # The largest campaign the repository submits: the keepalive of
        # benchmarks/bench_serve.py (full size).
        shapes.append(make_spec(num_tasks=200, max_price=2, horizon_intervals=96))
        # Exactly at the cells bound: 1000 states x 20 prices x 100 intervals.
        shapes.append(make_spec(num_tasks=999, max_price=20, horizon_intervals=100))
        # The cells bound is a deadline solve's; a budget campaign has none.
        shapes.append(make_spec(kind="budget", num_tasks=MAX_NUM_TASKS,
                                max_price=MAX_PRICE, horizon_intervals=100,
                                budget=1e6))
        assert [planner.refusal(shape) for shape in shapes] == [None] * len(shapes)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(num_tasks=MAX_NUM_TASKS + 1, max_price=1, horizon_intervals=1),
             f"num_tasks {MAX_NUM_TASKS + 1} exceeds the limit of {MAX_NUM_TASKS}"),
            (dict(max_price=MAX_PRICE + 1, horizon_intervals=1, num_tasks=1),
             f"max_price {MAX_PRICE + 1} exceeds the limit of {MAX_PRICE}"),
            (dict(num_tasks=1000, max_price=20, horizon_intervals=100),
             "(num_tasks + 1) * max_price * horizon_intervals 2002000 exceeds "
             f"the limit of {MAX_DEADLINE_CELLS}"),
        ],
        ids=["num_tasks", "max_price", "cells"],
    )
    def test_one_past_a_bound_is_refused_naming_the_field(self, overrides, field):
        planner = make_engine(num_intervals=128).planner
        assert planner.refusal(make_spec(**overrides)) == f"campaign 'big' {field}"


def started_gateway() -> Gateway:
    gateway = Gateway(make_engine())
    gateway.start(seed=3)
    return gateway


def steps_on(gateway: Gateway) -> None:
    """A well-formed campaign is still admitted and the clock still ticks."""
    ticket = gateway.offer(SubmitCampaign(make_spec(campaign_id="after")))
    for _ in range(3):
        gateway.step()
    assert ticket.response.status == "ok"
    assert gateway.clock >= 3


class TestOversizedRequests:
    """One client request can no longer end the served session."""

    @pytest.mark.parametrize(
        "request_,field",
        [
            # 2.98 GiB Toeplitz per layer: MemoryError out of offer().
            (Quote(make_spec(num_tasks=20_000, horizon_intervals=24),
                   solve_on_miss=True), "num_tasks 20000"),
            # Solved inside offer() under the old 10,000-task bound,
            # stalling the loop for seconds.
            (Quote(make_spec(num_tasks=2_000, horizon_intervals=24),
                   solve_on_miss=True), "num_tasks 2000"),
            # The signature and shortfall checks built a 7.45 GiB grid.
            (Quote(make_spec(max_price=10**9)), f"max_price {10**9}"),
            # Answered "queued", then step() raised MemoryError.
            (SubmitCampaign(make_spec(num_tasks=100_000)), "num_tasks 100000"),
            (SubmitCampaign(make_spec(kind="budget", num_tasks=10**9,
                                      budget=2e10)), f"num_tasks {10**9}"),
        ],
        ids=["quote-20k-tasks", "quote-2k-tasks", "quote-max-price",
             "submit-100k-tasks", "submit-budget-1e9-tasks"],
    )
    def test_rejected_and_the_session_steps_on(self, request_, field):
        gateway = started_gateway()
        ticket = gateway.offer(request_)
        gateway.step()
        assert ticket.response.status == "rejected"
        assert f"campaign 'big' {field} exceeds the limit" in ticket.response.detail
        steps_on(gateway)

    def test_engine_submit_refuses_before_queueing(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="num_tasks 100000 exceeds the limit"):
            engine.submit([make_spec(num_tasks=100_000)])
        assert engine.num_submitted == 0


class TestOneRefusal:
    @pytest.mark.parametrize("rule", sorted(REFUSED))
    def test_submit_quote_and_source_pull_refuse_with_one_text(self, rule):
        shape = REFUSED[rule]
        text = make_engine().planner.refusal(shape)
        assert text is not None and "'big'" in text

        engine = make_engine()
        with pytest.raises(ValueError) as submitted:
            engine.submit([shape])
        assert str(submitted.value) == text

        gateway = started_gateway()
        quote = gateway.offer(Quote(shape, solve_on_miss=True))
        submission = gateway.offer(SubmitCampaign(shape))
        gateway.step()
        for ticket in (quote, submission):
            assert ticket.response.status == "rejected"
            assert ticket.response.detail == text

        # A source spec is refused where it is pulled, as a submission of
        # it would be; an unaffordable one used to fail admission instead.
        streamed = make_engine()
        streamed.submit_source(ListSource([shape]))
        with pytest.raises(ValueError) as pulled:
            streamed.start(seed=0).tick()
        assert str(pulled.value) == text
        streamed.close()

    def test_a_refused_quote_counts_no_cache_lookup(self):
        gateway = started_gateway()
        before = gateway.engine.cache.stats
        for shape in REFUSED.values():
            gateway.offer(Quote(shape, solve_on_miss=True))
        assert gateway.engine.cache.stats == before
