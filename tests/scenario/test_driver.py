"""ScenarioDriver behaviour: stepping, wake-ups, cancellations, save/resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CampaignSpec,
    CheckpointError,
    ListSource,
    MarketplaceEngine,
    generate_workload,
)
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import (
    CampaignChurn,
    Cancellation,
    DemandShock,
    Scenario,
    ScenarioDriver,
)
from repro.scenario.driver import apply_cancellation
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 32


def make_engine(kind: str = "marketplace"):
    means = 800.0 + 250.0 * np.sin(np.linspace(0.0, 3.0 * np.pi, NUM_INTERVALS))
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary",
        arrivals="factored" if kind == "factored" else "pooled",
    )


def churn_scenario(**kwargs) -> Scenario:
    defaults = dict(start=0, stop=20, every=5, per_wave=2,
                    adaptive_fraction=0.25)
    defaults.update(kwargs)
    return Scenario(name="drv", seed=13, events=(CampaignChurn(**defaults),))


class TestStepping:
    def test_run_submits_every_timeline_campaign(self):
        driver = ScenarioDriver(make_engine(), churn_scenario())
        result = driver.run()
        assert driver.done
        assert result.num_campaigns == driver.timeline.num_campaigns
        assert driver.telemetry.num_ticks == result.intervals_run + sum(
            driver.telemetry.series["idle"]
        )

    def test_base_workload_rides_under_the_scenario(self):
        engine = make_engine()
        engine.submit(generate_workload(5, NUM_INTERVALS, seed=2))
        driver = ScenarioDriver(engine, churn_scenario())
        result = driver.run()
        assert result.num_campaigns == driver.timeline.num_campaigns + 5

    def test_wakeup_bridges_an_idle_gap(self):
        """A late-starting churn wave is reached through idle ticks even
        though the engine would otherwise report itself done."""
        scenario = Scenario(
            name="late", seed=1,
            events=(CampaignChurn(start=20, stop=21, per_wave=1),),
        )
        driver = ScenarioDriver(make_engine(), scenario)
        result = driver.run()
        assert result.num_campaigns == driver.timeline.num_campaigns >= 1
        assert sum(driver.telemetry.series["idle"]) >= 20

    def test_step_before_start_raises(self):
        driver = ScenarioDriver(make_engine(), churn_scenario())
        with pytest.raises(RuntimeError, match="start"):
            driver.step()

    def test_double_start_raises(self):
        driver = ScenarioDriver(make_engine(), churn_scenario())
        driver.start()
        with pytest.raises(RuntimeError, match="already started"):
            driver.start()
        driver.engine.close()

    def test_step_after_exhaustion_raises(self):
        driver = ScenarioDriver(make_engine(), churn_scenario())
        driver.run()
        with pytest.raises(RuntimeError, match="exhausted"):
            driver.step()

    def test_modulation_installed_on_start(self):
        scenario = Scenario(
            name="mod", seed=1,
            events=(CampaignChurn(start=0, stop=4),
                    DemandShock(start=2, stop=6, factor=2.0)),
        )
        driver = ScenarioDriver(make_engine(), scenario)
        core = driver.start()
        assert core.rate_multipliers is not None
        assert core.rate_factor(3) == 2.0
        driver.engine.close()


class TestCancellations:
    def _scenario_with_cancel(self, tick: int, campaign_id: str) -> Scenario:
        return Scenario(
            name="cx", seed=13,
            events=(CampaignChurn(start=0, stop=20, every=5, per_wave=2),
                    Cancellation(tick=tick, campaign_id=campaign_id)),
        )

    def test_live_cancellation_recorded(self):
        base = churn_scenario()
        timeline = base.compile(NUM_INTERVALS)
        victim = timeline.submissions[0][1][0]
        tick = victim.submit_interval + 2
        scenario = Scenario(
            name="cx", seed=base.seed,
            events=(*base.events,
                    Cancellation(tick=tick, campaign_id=victim.campaign_id)),
        )
        driver = ScenarioDriver(make_engine(), scenario)
        result = driver.run()
        cancelled = [o for o in result.outcomes if o.cancelled]
        assert [o.spec.campaign_id for o in cancelled] == [victim.campaign_id]
        assert driver.telemetry.total_cancelled == 1
        assert sum(driver.telemetry.series["cancelled"]) == 1
        record = next(
            r for r in driver.telemetry.campaigns
            if r.campaign_id == victim.campaign_id
        )
        assert record.cancelled and record.interval == tick

    def test_cancelling_a_retired_campaign_is_a_noop(self):
        """Targets that already retired naturally do not fail the run."""
        base = churn_scenario()
        victim = base.compile(NUM_INTERVALS).submissions[0][1][0]
        # The victim's horizon ends long before the cancellation tick, so
        # by then it has retired naturally: a deterministic no-op.
        cancel_tick = min(victim.submit_interval + victim.horizon_intervals + 3,
                          NUM_INTERVALS - 1)
        scenario = Scenario(
            name="cx", seed=base.seed,
            events=(*base.events,
                    Cancellation(tick=cancel_tick,
                                 campaign_id=victim.campaign_id)),
        )
        # Either sink mode: the engine's id registry, not the retired set
        # a streaming sink drops, knows the target.
        for keep_outcomes in (True, False):
            driver = ScenarioDriver(make_engine(), scenario,
                                    keep_outcomes=keep_outcomes)
            result = driver.run()
            assert not any(o.cancelled for o in result.outcomes)
            assert driver.telemetry.total_cancelled == 0

    def test_cancellation_that_empties_the_engine_ends_the_run(self):
        """The last live campaign cancelled mid-step must not crash.

        A cancellation applies before the tick runs; when it retires the
        only remaining campaign and the timeline has no traffic left,
        there is no tick left to run — step() returns None and the
        driver reads done instead of asking an exhausted clock to tick.
        """
        engine = make_engine()
        workload = generate_workload(1, NUM_INTERVALS, seed=2)
        engine.submit(workload)
        victim = workload[0]
        scenario = Scenario(
            name="cx", seed=13,
            events=(Cancellation(tick=victim.submit_interval + 1,
                                 campaign_id=victim.campaign_id),),
        )
        driver = ScenarioDriver(engine, scenario)
        driver.start()
        reports = []
        while not driver.done:
            reports.append(driver.step())
        assert reports[-1] is None
        result = driver.core.result()
        assert [o.spec.campaign_id for o in result.outcomes
                if o.cancelled] == [victim.campaign_id]

    def test_cancelling_an_unknown_id_fails_loudly(self):
        """A typo'd campaign id is a spec error, not a silent no-op, in
        either sink mode: the engine's id registry decides it."""
        scenario = self._scenario_with_cancel(1, "tyop-001")
        for keep_outcomes in (True, False):
            driver = ScenarioDriver(make_engine(), scenario,
                                    keep_outcomes=keep_outcomes)
            driver.start()
            with pytest.raises(ValueError,
                               match="unknown campaign 'tyop-001' at tick 1"):
                while not driver.done:
                    driver.step()
            driver.engine.close()

    def test_streaming_source_stays_lenient(self):
        """A streaming sink fed by a workload source cannot tell a typo
        from a streamed campaign that retired, so it takes it as retired."""
        engine = make_engine()
        engine.submit_source(ListSource(generate_workload(2, NUM_INTERVALS, seed=2)))
        core = engine.start(seed=0, keep_outcomes=False)
        while not core.done:
            core.tick()
        assert apply_cancellation(engine, "g-typo") == ("retired", None)
        engine.close()


class TestSaveResume:
    @pytest.mark.parametrize("kind", ["marketplace", "factored"])
    def test_resume_is_bit_identical(self, kind, tmp_path):
        scenario = churn_scenario()
        reference = ScenarioDriver(make_engine(kind), scenario)
        ref_result = reference.run()

        driver = ScenarioDriver(make_engine(kind), scenario)
        driver.start()
        for _ in range(9):
            driver.step()
        driver.save(tmp_path / "bundle")
        driver.engine.close()

        resumed = ScenarioDriver.resume(tmp_path / "bundle")
        assert resumed.started
        assert resumed.scenario == scenario
        result = resumed.run()
        assert resumed.telemetry == reference.telemetry
        assert [o.spec.campaign_id for o in result.outcomes] == [
            o.spec.campaign_id for o in ref_result.outcomes
        ]
        assert result.total_cost == ref_result.total_cost

    def test_save_before_start_raises(self, tmp_path):
        driver = ScenarioDriver(make_engine(), churn_scenario())
        with pytest.raises(CheckpointError):
            driver.save(tmp_path / "bundle")

    def test_resume_rejects_plain_engine_bundle(self, tmp_path):
        """A bundle without driver extras is a checkpoint, not a scenario."""
        from repro.engine import save_checkpoint

        engine = make_engine()
        engine.submit(generate_workload(3, NUM_INTERVALS, seed=2))
        engine.start(seed=0)
        engine.tick()
        save_checkpoint(engine, tmp_path / "plain")
        engine.close()
        with pytest.raises(CheckpointError, match="scenario-driver state"):
            ScenarioDriver.resume(tmp_path / "plain")
