"""Tests for the canonical problem signatures the policy cache keys on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import budget_signature
from repro.core.deadline.model import DeadlineProblem
from repro.engine import (
    BUDGET,
    DEADLINE,
    CampaignSpec,
    CampaignTemplate,
    MarketplaceEngine,
    PolicyCache,
    StreamedWorkload,
    Telemetry,
)
from repro.engine import planning as planning_module
from repro.engine.planning import PLANNING_MODES, CampaignPlanner
from repro.market.acceptance import (
    EmpiricalAcceptance,
    LogitAcceptance,
    paper_acceptance_model,
)
from repro.scenario import Scenario, ScenarioDriver
from repro.serve import Gateway, Quote, SubmitCampaign
from repro.sim.stream import SharedArrivalStream
from tests.conftest import make_problem


class TestAcceptanceSignatures:
    def test_logit_equal_params_equal_signature(self):
        assert LogitAcceptance(15, -0.39, 2000).signature() == \
            LogitAcceptance(15.0, -0.39, 2000.0).signature()

    def test_logit_differs_on_any_param(self):
        base = LogitAcceptance(15, -0.39, 2000).signature()
        assert LogitAcceptance(16, -0.39, 2000).signature() != base
        assert LogitAcceptance(15, -0.40, 2000).signature() != base
        assert LogitAcceptance(15, -0.39, 1999).signature() != base

    def test_empirical_signature_covers_table(self):
        a = EmpiricalAcceptance({5.0: 0.01, 10.0: 0.02})
        b = EmpiricalAcceptance({5.0: 0.01, 10.0: 0.02})
        c = EmpiricalAcceptance({5.0: 0.01, 10.0: 0.03})
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()

    def test_cross_model_signatures_differ(self):
        logit = paper_acceptance_model()
        table = EmpiricalAcceptance(
            {c: logit.probability(c) for c in (1.0, 10.0, 20.0)}
        )
        assert logit.signature() != table.signature()


class TestDeadlineSignature:
    def test_identical_problems_share_signature(self):
        assert make_problem().signature() == make_problem().signature()

    def test_signature_is_hashable(self):
        assert isinstance(hash(make_problem().signature()), int)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 6},
            {"arrival_means": np.array([300.0, 450.0, 201.0])},
            {"s": 16.0},
            {"max_price": 13.0},
            {"penalty": 31.0},
            {"existence": 1.0},
            {"truncation_eps": None},
        ],
    )
    def test_signature_differs_on_each_field(self, kwargs):
        assert make_problem(**kwargs).signature() != make_problem().signature()

    def test_rounding_absorbs_float_noise(self):
        means = np.array([300.0, 450.0, 200.0])
        jitter = means + 1e-12
        assert (
            make_problem(arrival_means=means).signature()
            == make_problem(arrival_means=jitter).signature()
        )


class TestBudgetSignature:
    def test_equal_instances_share_signature(self, paper_acceptance):
        grid = np.arange(1.0, 31.0)
        assert budget_signature(50, 600.0, paper_acceptance, grid) == \
            budget_signature(50, 600.0, paper_acceptance, grid.copy())

    def test_differs_on_each_field(self, paper_acceptance):
        grid = np.arange(1.0, 31.0)
        base = budget_signature(50, 600.0, paper_acceptance, grid)
        assert budget_signature(51, 600.0, paper_acceptance, grid) != base
        assert budget_signature(50, 601.0, paper_acceptance, grid) != base
        assert budget_signature(50, 600.0, paper_acceptance, grid[:-1]) != base
        other = paper_acceptance.with_params(s=16.0)
        assert budget_signature(50, 600.0, other, grid) != base

    def test_budget_never_collides_with_deadline(self, paper_acceptance):
        problem = make_problem()
        sig = budget_signature(
            problem.num_tasks, 600.0, paper_acceptance, problem.price_grid
        )
        assert sig != problem.signature()
        assert sig[0] == "budget" and problem.signature()[0] == "deadline"


#: A forecast that differs per interval, so sliced planning gives every
#: submit interval its own signature.
FORECAST = 500.0 + 200.0 * np.sin(np.linspace(0.0, 3.0, 40))
PLANNERS = {
    mode: CampaignPlanner(paper_acceptance_model(), PolicyCache(), mode, FORECAST)
    for mode in PLANNING_MODES
}


@st.composite
def static_specs(draw) -> CampaignSpec:
    kind = draw(st.sampled_from([DEADLINE, BUDGET]))
    num_tasks = draw(st.integers(1, 40))
    horizon = draw(st.integers(1, 12))
    return CampaignSpec(
        campaign_id="c",
        kind=kind,
        num_tasks=num_tasks,
        submit_interval=draw(st.integers(0, FORECAST.size - horizon)),
        horizon_intervals=horizon,
        max_price=draw(st.integers(1, 40)),
        penalty_per_task=draw(st.sampled_from([0.0, 20.0, 20, 37.5])),
        budget=(
            draw(st.floats(1.0, 2000.0, allow_nan=False))
            if kind == BUDGET else None
        ),
    )


class TestPlannerSignatureMemo:
    """``CampaignPlanner.cache_signature``: one memo, keyed by shape."""

    @settings(max_examples=150, deadline=None)
    @given(spec=static_specs(), mode=st.sampled_from(PLANNING_MODES))
    def test_memoized_signature_equals_the_built_instance(self, spec, mode):
        planner = PLANNERS[mode]
        if spec.kind == BUDGET:
            expected = planner.budget_request(spec).signature()
        else:
            expected = planner.planning_problem(spec).signature()
        # First call may fill the memo; the second is answered from it.
        assert planner.cache_signature(spec) == expected
        assert planner.cache_signature(spec) == expected

    @pytest.mark.parametrize("cache_size", [256, 0])
    @pytest.mark.parametrize("planning", PLANNING_MODES)
    def test_one_problem_per_distinct_cache_miss(
        self, planning, cache_size, monkeypatch
    ):
        built = []
        post_init = DeadlineProblem.__post_init__

        def counted(problem):
            built.append(problem)
            post_init(problem)

        monkeypatch.setattr(DeadlineProblem, "__post_init__", counted)
        same = (CampaignTemplate("same", DEADLINE, num_tasks=6,
                                 horizon_intervals=5, max_price=12,
                                 penalty_per_task=20.0),)
        intervals = 300 // 40 + 9
        source = StreamedWorkload(
            300, intervals, seed=5, templates=same, budget_fraction=0.0,
            adaptive_fraction=0.0, campaigns_per_wave=40, id_prefix="s",
        )
        engine = MarketplaceEngine(
            SharedArrivalStream(np.full(intervals, 400.0)),
            paper_acceptance_model(),
            cache=PolicyCache(cache_size),
            planning=planning,
        )
        engine.submit_source(source)
        telemetry = Telemetry(record_campaigns=False)
        ScenarioDriver(
            engine, Scenario(name="same", seed=5), telemetry=telemetry,
            keep_outcomes=False,
        ).run()
        engine.close()
        # Per-tick cache accounting as recorded before the memo existed.
        admitted = [40, 0, 40, 40, 0, 40, 40, 0, 40, 40, 0, 20, 0, 0, 0, 0]
        if cache_size:
            hits = [39] + admitted[1:]
            misses = [1] + [0] * (len(admitted) - 1)
        else:
            hits, misses = [0] * len(admitted), admitted
        assert telemetry.series["cache_hits"] == hits
        assert telemetry.series["cache_misses"] == misses
        assert len(built) == sum(misses)

    def test_memo_is_capped(self):
        planner = CampaignPlanner(
            paper_acceptance_model(), PolicyCache(), "sliced", FORECAST
        )
        cap = planning_module._SIGNATURE_MEMO_CAP
        for i in range(cap + 50):
            planner.cache_signature(CampaignSpec(
                campaign_id="c", kind=BUDGET, num_tasks=1 + i % 30,
                submit_interval=0, horizon_intervals=4, budget=100.0 + i,
            ))
            assert len(planner._signatures) <= cap
        assert len(planner._signatures) == cap

    def test_memo_is_capped_through_submissions_and_quotes(self, monkeypatch):
        monkeypatch.setattr(planning_module, "_SIGNATURE_MEMO_CAP", 6)
        engine = MarketplaceEngine(
            SharedArrivalStream(np.full(24, 500.0)), paper_acceptance_model(),
            planning="sliced",
        )
        gateway = Gateway(engine)
        gateway.start(seed=2)
        planner = engine.planner
        for i in range(8):
            shape = dict(
                kind=DEADLINE, num_tasks=2 + i, submit_interval=gateway.core.clock,
                horizon_intervals=3, max_price=8,
            )
            quote = gateway.offer(Quote(CampaignSpec(campaign_id=f"q{i}", **shape)))
            assert quote.response.ok
            assert len(planner._signatures) <= 6
            submit = gateway.offer(SubmitCampaign(CampaignSpec(
                campaign_id=f"s{i}", **{**shape, "num_tasks": 20 + i},
            )))
            gateway.step()
            assert submit.response.ok
            assert len(planner._signatures) <= 6
        assert len(planner._signatures) == 6
        assert engine.cache.stats.misses == 8  # every submission was admitted
