"""The unified engine clock: tick stepping, mid-flight submission, stats scoping.

Contracts under test:

* ``tick()``-stepping a session produces exactly what ``run()`` produces —
  they are the same loop (EngineCore), not two implementations.
* Campaigns may be submitted *between ticks*; doing so is bit-identical to
  having submitted them up front (queueing consumes no randomness).
* Stats are session-scoped: a second ``run()`` on the same engine reports
  per-run cache/batch stats identical to the first run's, instead of the
  cumulative cross-run counters the old twin loops leaked.
* ``campaigns_per_second`` is JSON-safe (0.0, never ``inf``).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import (
    CacheStats,
    CampaignSpec,
    DEADLINE,
    EngineResult,
    MarketplaceEngine,
    TickReport,
    generate_workload,
)
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream


def strip_timing(result: EngineResult) -> EngineResult:
    """Results minus wall-clock (the only field allowed to differ)."""
    return dataclasses.replace(result, elapsed_seconds=0.0)


def make_stream(n: int = 48) -> SharedArrivalStream:
    means = 900.0 + 400.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, n))
    return SharedArrivalStream(means)


def make_engine(arrivals: str = "pooled", n: int = 48, **kwargs):
    return MarketplaceEngine(
        make_stream(n), paper_acceptance_model(), planning="stationary",
        arrivals=arrivals, **kwargs,
    )


def deadline_spec(**overrides) -> CampaignSpec:
    base = dict(
        campaign_id="dl-0", kind=DEADLINE, num_tasks=12, submit_interval=0,
        horizon_intervals=12, max_price=25, penalty_per_task=120.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestTickStepping:
    @pytest.mark.parametrize(
        "arrivals", ["pooled", "factored"], ids=["market", "factored"]
    )
    def test_tick_stepping_equals_run(self, arrivals):
        specs = generate_workload(16, 48, seed=21, adaptive_fraction=0.3)
        batch_engine = make_engine(arrivals)
        batch_engine.submit(specs)
        batch = batch_engine.run(seed=5)

        step_engine = make_engine(arrivals)
        step_engine.submit(specs)
        core = step_engine.start(seed=5)
        reports: list[TickReport] = []
        while not core.done:
            reports.append(core.tick())
        stepped = core.result()
        step_engine.close()

        assert strip_timing(stepped) == strip_timing(batch)
        # The reports are a complete, consistent journal of the run.
        assert sum(len(r.retired) for r in reports) == stepped.num_campaigns
        assert sum(r.arrived for r in reports) == stepped.total_arrivals
        assert sum(r.accepted for r in reports) == stepped.total_accepted
        assert sum(not r.idle for r in reports) == stepped.intervals_run
        assert max(r.interval for r in reports) == reports[-1].interval

    def test_tick_after_done_raises(self):
        engine = make_engine()
        engine.submit(deadline_spec(horizon_intervals=6))
        core = engine.start(seed=1)
        while not core.done:
            core.tick()
        with pytest.raises(RuntimeError, match="exhausted"):
            core.tick()

    def test_tick_without_session_raises(self):
        engine = make_engine()
        with pytest.raises(RuntimeError, match="start"):
            engine.tick()

    def test_engine_tick_delegates_to_session(self):
        engine = make_engine()
        engine.submit(deadline_spec())
        engine.start(seed=2)
        report = engine.tick()
        assert report.interval == 0 and report.admitted == 1
        assert engine.core is not None and engine.core.clock == 1

    def test_idle_ticks_before_late_submission(self):
        engine = make_engine()
        engine.submit(deadline_spec(submit_interval=5, horizon_intervals=6))
        core = engine.start(seed=3)
        idle = [core.tick() for _ in range(5)]
        assert all(r.idle and r.arrived == 0 for r in idle)
        busy = core.tick()
        assert not busy.idle and busy.admitted == 1

    def test_result_is_readable_mid_run(self):
        engine = make_engine()
        engine.submit(generate_workload(8, 48, seed=4))
        core = engine.start(seed=4)
        for _ in range(6):
            core.tick()
        partial = core.result()
        assert partial.intervals_run <= 6
        assert partial.num_campaigns <= 8
        final = core.run_to_completion()
        assert final.num_campaigns == 8
        assert final.intervals_run >= partial.intervals_run


class TestMidFlightSubmission:
    @pytest.mark.parametrize(
        "arrivals", ["pooled", "factored"], ids=["market", "factored"]
    )
    def test_midflight_submit_matches_upfront(self, arrivals):
        early = generate_workload(10, 48, seed=31)
        late = [
            deadline_spec(campaign_id=f"late-{i}", submit_interval=20,
                          horizon_intervals=14)
            for i in range(3)
        ]
        upfront = make_engine(arrivals)
        upfront.submit(early + late)
        reference = upfront.run(seed=8)

        streamed = make_engine(arrivals)
        streamed.submit(early)
        core = streamed.start(seed=8)
        for _ in range(12):  # still before the late submit interval
            core.tick()
        streamed.submit(late)
        live = core.run_to_completion()
        streamed.close()
        assert strip_timing(live) == strip_timing(reference)

    def test_submission_into_the_past_rejected(self):
        engine = make_engine()
        engine.submit(deadline_spec())
        core = engine.start(seed=9)
        for _ in range(4):
            core.tick()
        with pytest.raises(ValueError, match="already"):
            engine.submit(
                deadline_spec(campaign_id="late", submit_interval=2)
            )
        # The rejected spec must not have been half-registered: its id
        # stays free for the corrected resubmission.
        assert engine.num_submitted == 1
        engine.submit(
            deadline_spec(campaign_id="late", submit_interval=core.clock)
        )
        assert engine.num_submitted == 2
        assert core.tick().admitted == 1

    def test_run_to_completion_ends_the_session_like_run(self):
        """Both completion paths must leave the engine sessionless, so a
        later submit() queues for the next run instead of being validated
        against a finished session's clock."""
        engine = make_engine()
        engine.submit(deadline_spec(horizon_intervals=6))
        engine.start(seed=13)
        engine.run_to_completion()
        assert engine.core is None
        engine.submit(deadline_spec(campaign_id="dl-next", submit_interval=0))
        result = engine.run(seed=13)
        assert result.num_campaigns == 2

    def test_submit_revives_a_done_early_session(self):
        engine = make_engine()
        engine.submit(deadline_spec(horizon_intervals=4))
        core = engine.start(seed=10)
        while not core.done:
            core.tick()
        assert core.clock < engine.stream.num_intervals
        engine.submit(
            deadline_spec(campaign_id="dl-2", submit_interval=core.clock,
                          horizon_intervals=6)
        )
        assert not core.done
        result = core.run_to_completion()
        assert result.num_campaigns == 2


class TestSessionScopedStats:
    def test_back_to_back_runs_report_identical_stats(self):
        """Regression: reruns used to report *cumulative* cache/batch
        counters (and warm-cache per-campaign cache_hit/num_solves),
        because the shared PolicyCache and BatchPolicySolver counters were
        never scoped per run."""
        engine = make_engine()
        engine.submit(
            [deadline_spec(campaign_id=f"dl-{i}") for i in range(5)]
        )
        first = engine.run(seed=6)
        second = engine.run(seed=6)
        assert strip_timing(first) == strip_timing(second)
        # Spot-check the fields the leak used to corrupt.
        assert second.cache_stats == first.cache_stats
        assert second.cache_stats.misses == 1 and second.cache_stats.hits == 4
        assert second.batch_stats == first.batch_stats
        assert [o.cache_hit for o in second.outcomes] == [
            o.cache_hit for o in first.outcomes
        ]
        assert [o.num_solves for o in second.outcomes] == [
            o.num_solves for o in first.outcomes
        ]

    def test_factored_reruns_also_scoped(self):
        engine = make_engine("factored")
        engine.submit(generate_workload(12, 48, seed=41))
        first = engine.run(seed=7)
        second = engine.run(seed=7)
        assert strip_timing(first) == strip_timing(second)

    def test_session_stats_are_deltas_not_absolutes(self):
        engine = make_engine()
        engine.submit(
            [deadline_spec(campaign_id=f"dl-{i}") for i in range(3)]
        )
        engine.run(seed=11)
        result = engine.run(seed=11)
        assert result.cache_stats.lookups == 3  # not 6


class TestCampaignsPerSecond:
    def _result(self, elapsed: float) -> EngineResult:
        return EngineResult(
            outcomes=(), intervals_run=0, total_arrivals=0,
            total_considered=0, total_accepted=0, max_concurrent=0,
            cache_stats=CacheStats(0, 0, 0, 0), elapsed_seconds=elapsed,
        )

    def test_zero_elapsed_reports_zero_not_inf(self):
        assert self._result(0.0).campaigns_per_second == 0.0

    def test_throughput_is_json_serializable(self):
        """Regression: float('inf') serialized as the non-standard token
        ``Infinity``, corrupting any BENCH_*.json recording it."""
        payload = json.dumps(
            {"campaigns_per_second": self._result(0.0).campaigns_per_second}
        )
        assert json.loads(payload)["campaigns_per_second"] == 0.0
        # Strict JSON parsers must accept the payload.
        json.loads(payload, parse_constant=lambda _: pytest.fail(
            "non-standard JSON constant emitted"
        ))

    def test_positive_elapsed_unchanged(self):
        engine = make_engine()
        engine.submit(deadline_spec(horizon_intervals=6))
        run = engine.run(seed=12)
        assert run.campaigns_per_second > 0
