"""Scenario specs: compilation, churn determinism, canned library, JSON."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenario import (
    CANNED_SCENARIOS,
    CampaignChurn,
    Cancellation,
    DemandShock,
    RateSchedule,
    Scenario,
    canned_scenario,
    churn_specs,
    list_scenarios,
)


class TestCompile:
    def test_submissions_grouped_and_sorted_by_tick(self):
        scenario = Scenario(
            name="t",
            seed=3,
            events=(
                CampaignChurn(start=4, stop=13, every=4, per_wave=2),
                CampaignChurn(start=0, stop=1, per_wave=1, prefix="base"),
            ),
        )
        timeline = scenario.compile(24)
        ticks = [tick for tick, _ in timeline.submissions]
        assert ticks == sorted(ticks)
        assert timeline.num_campaigns == sum(
            len(specs) for _, specs in timeline.submissions
        )
        # Every spec's submit interval matches its wave tick.
        for tick, specs in timeline.submissions:
            assert all(s.submit_interval == tick for s in specs)

    def test_modulation_composes_multiplicatively(self):
        scenario = Scenario(
            name="t",
            events=(
                DemandShock(start=0, stop=4, factor=2.0),
                RateSchedule(multipliers=(0.5,), every=1),
            ),
        )
        timeline = scenario.compile(8)
        assert timeline.rate_multipliers.tolist() == [1.0, 1.0, 1.0, 1.0,
                                                      0.5, 0.5, 0.5, 0.5]

    def test_cancellation_beyond_horizon_rejected(self):
        scenario = Scenario(
            name="t", events=(Cancellation(tick=50, campaign_id="x"),)
        )
        with pytest.raises(ValueError, match="beyond"):
            scenario.compile(24)

    def test_churn_is_deterministic_per_event_index(self):
        event = CampaignChurn(start=0, stop=16, every=4, per_wave=2,
                              adaptive_fraction=0.5)
        a = churn_specs(event, 24, seed=7, event_index=0)
        b = churn_specs(event, 24, seed=7, event_index=0)
        assert a == b
        # A different event index (or seed) draws a different stream.
        c = churn_specs(event, 24, seed=7, event_index=1)
        assert [s.campaign_id for s in c] != [s.campaign_id for s in a]

    def test_churn_skips_templates_that_no_longer_fit(self):
        event = CampaignChurn(start=0, stop=24, every=4,
                              templates=("dl-large",))  # horizon 30
        assert churn_specs(event, 24, seed=0, event_index=0) == []

    def test_unknown_template_rejected(self):
        event = CampaignChurn(start=0, stop=4, templates=("no-such",))
        with pytest.raises(ValueError, match="unknown workload template"):
            churn_specs(event, 24, seed=0, event_index=0)


class TestJson:
    def test_round_trip(self, tmp_path):
        scenario = Scenario(
            name="round",
            seed=11,
            description="round trips",
            events=(
                CampaignChurn(start=0, stop=10, every=2),
                DemandShock(start=3, stop=6, factor=0.4),
                Cancellation(tick=5, campaign_id="churn0-000-00"),
            ),
        )
        assert Scenario.from_json(scenario.to_json()) == scenario
        path = scenario.dump(tmp_path / "s.json")
        assert Scenario.load(path) == scenario

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="")

    @pytest.mark.parametrize(
        "data,message",
        [
            ({}, r"scenario is missing field\(s\) name"),
            ({"name": "s", "events": 5},
             "scenario field 'events' must be a JSON list"),
            ({"name": "s", "events": "q"},
             "scenario field 'events' must be a JSON list"),
            ([{"name": "s"}], "scenario must be a JSON object"),
            ({"name": "s", "events": [5]},
             r"scenario events\[0\]: scenario event must be a JSON object"),
            ({"name": "s", "events": [{"type": "demand-shock", "start": 1}]},
             r"scenario events\[0\]: .*stop"),
            ({"name": "s", "seed": None},
             "scenario field 'seed' must be an integer"),
            ({"name": "s", "events": [{"type": "meteor-strike"}]},
             r"scenario events\[0\]: unknown scenario event type"),
            ({"name": "s", "author": "me"},
             r"scenario has unknown field\(s\) author"),
        ],
        ids=["no-name", "events-number", "events-string", "top-level-list",
             "event-not-an-object", "event-missing-field", "null-seed",
             "unknown-event-type", "unknown-key"],
    )
    def test_from_dict_names_the_malformed_field(self, data, message):
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict(data)


class TestCanned:
    @pytest.mark.parametrize("name", sorted(CANNED_SCENARIOS))
    def test_every_canned_scenario_compiles(self, name):
        scenario = canned_scenario(name, 48, seed=5)
        assert scenario.name == name
        timeline = scenario.compile(48)
        assert timeline.num_campaigns > 0
        # Canned scenarios must round-trip (the CLI writes them to specs).
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_black_friday_has_all_three_stressors(self):
        scenario = canned_scenario("black-friday", 48, seed=5)
        kinds = {type(e) for e in scenario.events}
        assert kinds == {CampaignChurn, DemandShock, Cancellation}
        # The cancellation targets a campaign the churn actually creates.
        timeline = scenario.compile(48)
        churn_ids = {
            s.campaign_id for _, specs in timeline.submissions for s in specs
        }
        (cancel,) = [e for e in scenario.events if isinstance(e, Cancellation)]
        assert cancel.campaign_id in churn_ids

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            canned_scenario("no-such", 48)

    def test_tiny_stream_rejected(self):
        with pytest.raises(ValueError):
            canned_scenario("steady-churn", 4)

    def test_listing_matches_registry(self):
        listed = list_scenarios()
        assert [name for name, _ in listed] == sorted(CANNED_SCENARIOS)
        assert all(desc for _, desc in listed)
