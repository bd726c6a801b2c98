"""Tests for workload generation and campaign spec validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import MarketplaceEngine
from repro.engine.campaign import BUDGET, DEADLINE, CampaignOutcome, CampaignSpec
from repro.engine.outcomes import outcome_record
from repro.market.acceptance import paper_acceptance_model
from repro.serve.requests import request_from_dict
from repro.sim.stream import SharedArrivalStream
from repro.engine.workload import (
    DEFAULT_TEMPLATES,
    CampaignTemplate,
    generate_workload,
)


def make_spec(**overrides) -> CampaignSpec:
    base = dict(
        campaign_id="c0",
        kind=DEADLINE,
        num_tasks=10,
        submit_interval=0,
        horizon_intervals=6,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaignSpec:
    def test_deadline_defaults(self):
        spec = make_spec()
        assert spec.end_interval == 6
        assert spec.price_grid().tolist() == [float(c) for c in range(1, 31)]

    def test_budget_requires_budget(self):
        with pytest.raises(ValueError, match="budget"):
            make_spec(kind=BUDGET)

    def test_budget_rejects_adaptive(self):
        with pytest.raises(ValueError, match="adaptive"):
            make_spec(kind=BUDGET, budget=100.0, adaptive=True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "auction"},
            {"num_tasks": 0},
            {"submit_interval": -1},
            {"horizon_intervals": 0},
            {"max_price": 0},
            {"penalty_per_task": -1.0},
            {"resolve_every": 0},
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_spec(**overrides)

    @pytest.mark.parametrize(
        "field",
        ["num_tasks", "submit_interval", "horizon_intervals", "resolve_every"],
    )
    @pytest.mark.parametrize("value", [5.5, 5.0, "5", None])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_spec(**{field: value})

    def test_fractional_task_count_is_refused_at_the_decode_boundary(self):
        # A served submission used to be answered "ok" and then crash the
        # drain that admitted it with a bare TypeError.
        data = {
            "type": "submit-campaign",
            "spec": {
                "campaign_id": "half", "kind": DEADLINE, "num_tasks": 5.5,
                "submit_interval": 0, "horizon_intervals": 6,
            },
        }
        with pytest.raises(ValueError, match="num_tasks must be an integer"):
            request_from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_penalty_and_budget_rejected(self, value):
        # A NaN penalty was written into the outcome record and checksum; a
        # NaN budget passed submission and crashed the admitting tick.
        with pytest.raises(ValueError, match="penalty_per_task must be finite"):
            make_spec(penalty_per_task=value)
        with pytest.raises(ValueError, match="finite positive budget"):
            make_spec(kind=BUDGET, budget=value)

    def test_nan_budget_is_refused_at_the_decode_boundary(self):
        data = {
            "type": "quote", "solve_on_miss": True,
            "spec": {
                "campaign_id": "nan", "kind": BUDGET, "num_tasks": 50,
                "submit_interval": 0, "horizon_intervals": 6,
                "budget": float("nan"),
            },
        }
        with pytest.raises(ValueError, match="finite positive budget"):
            request_from_dict(data)

    def test_fractional_max_price_rejected(self):
        # 10.5 used to build the grid 1..11, above the campaign's own cap.
        with pytest.raises(ValueError, match="max_price must be a whole number"):
            make_spec(max_price=10.5)
        assert make_spec(max_price=10.0).price_grid().max() == 10.0

    def test_numpy_integer_fields_are_stored_as_int(self):
        fields = dict(
            num_tasks=np.int64(4), submit_interval=np.int64(0),
            horizon_intervals=np.int32(6), max_price=np.int64(25),
            resolve_every=np.int64(2),
        )
        spec = make_spec(**fields)
        # It runs through retirement (the fold used to fail to serialize
        # the spec) and folds the same record as its plain-int twin.
        engine = MarketplaceEngine(
            SharedArrivalStream(np.full(12, 600.0)), paper_acceptance_model()
        )
        engine.submit([spec])
        (outcome,) = engine.run(seed=1).outcomes
        twin = make_spec(**{name: int(v) for name, v in fields.items()})
        assert outcome_record(outcome) == outcome_record(
            dataclasses.replace(outcome, spec=twin)
        )
        for name in fields:
            assert type(getattr(spec, name)) is int, name

    def test_outcome_properties(self):
        outcome = CampaignOutcome(
            spec=make_spec(kind=BUDGET, budget=120.0),
            completed=8,
            remaining=2,
            total_cost=90.0,
            penalty=0.0,
            finished_interval=None,
            cache_hit=True,
            num_solves=0,
        )
        assert not outcome.finished
        assert outcome.average_reward == pytest.approx(9.0)
        assert outcome.within_budget


class TestTemplates:
    def test_default_pool_is_heterogeneous(self):
        kinds = {t.kind for t in DEFAULT_TEMPLATES}
        sizes = {t.num_tasks for t in DEFAULT_TEMPLATES}
        horizons = {t.horizon_intervals for t in DEFAULT_TEMPLATES}
        assert kinds == {DEADLINE, BUDGET}
        assert len(sizes) >= 4 and len(horizons) >= 4

    def test_budget_template_computes_budget(self):
        template = CampaignTemplate("b", BUDGET, 30, 12, per_task_budget=9.0)
        spec = template.spec("b-1", submit_interval=3)
        assert spec.budget == pytest.approx(270.0)
        assert not spec.adaptive

    def test_adaptive_flag_only_applies_to_deadline(self):
        template = CampaignTemplate("b", BUDGET, 30, 12)
        assert not template.spec("b-1", 0, adaptive=True).adaptive


class TestGenerateWorkload:
    def test_count_ids_and_fit(self):
        specs = generate_workload(50, 96, seed=1)
        assert len(specs) == 50
        assert len({s.campaign_id for s in specs}) == 50
        assert all(s.end_interval <= 96 for s in specs)

    def test_reproducible(self):
        assert generate_workload(20, 96, seed=5) == generate_workload(20, 96, seed=5)
        assert generate_workload(20, 96, seed=5) != generate_workload(20, 96, seed=6)

    def test_staggered_submissions(self):
        specs = generate_workload(50, 96, seed=2)
        assert len({s.submit_interval for s in specs}) > 3

    def test_kind_mix_follows_fraction(self):
        specs = generate_workload(300, 96, seed=3, budget_fraction=0.4)
        budget = sum(1 for s in specs if s.kind == BUDGET)
        assert 0.3 < budget / 300 < 0.5

    def test_all_deadline_when_fraction_zero(self):
        specs = generate_workload(30, 96, seed=4, budget_fraction=0.0)
        assert all(s.kind == DEADLINE for s in specs)

    def test_adaptive_fraction(self):
        specs = generate_workload(
            200, 96, seed=5, budget_fraction=0.0, adaptive_fraction=0.5
        )
        adaptive = sum(1 for s in specs if s.adaptive)
        assert 0.35 < adaptive / 200 < 0.65

    def test_templates_too_long_are_rejected(self):
        long_only = tuple(
            dataclasses.replace(t, horizon_intervals=999) for t in DEFAULT_TEMPLATES
        )
        with pytest.raises(ValueError, match="fits"):
            generate_workload(10, 96, templates=long_only)

    def test_duplicate_shapes_exist_for_cache(self):
        """The workload's whole point: repeated (template, submit) shapes."""
        specs = generate_workload(60, 96, seed=7, submit_waves=4)
        shapes = {
            (s.kind, s.num_tasks, s.horizon_intervals, s.submit_interval)
            for s in specs
        }
        assert len(shapes) < len(specs)
