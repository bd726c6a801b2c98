"""Trace ids and tick-phase timing: the id scheme and the engine wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MarketplaceEngine, generate_workload
from repro.engine.clock import PhaseTimings
from repro.market.acceptance import paper_acceptance_model
from repro.obs import MetricsRegistry
from repro.obs.events import trace_id_for_seq
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 24


def make_engine(arrivals: str = "pooled"):
    means = 700.0 + 150.0 * np.sin(
        np.linspace(0.0, 2.0 * np.pi, NUM_INTERVALS)
    )
    return MarketplaceEngine(
        SharedArrivalStream(means), paper_acceptance_model(),
        planning="stationary", arrivals=arrivals,
    )


class TestTraceIds:
    def test_derived_from_seq(self):
        assert trace_id_for_seq(0) == "req-000000"
        assert trace_id_for_seq(42) == "req-000042"
        assert trace_id_for_seq(1234567) == "req-1234567"

    def test_deterministic(self):
        assert trace_id_for_seq(7) == trace_id_for_seq(7)


class TestPhaseTimings:
    def test_phases_are_pinned(self):
        assert PhaseTimings.PHASES == (
            "admission", "price", "split", "observe", "retire",
        )

    def test_record_and_tick_done(self):
        timings = PhaseTimings()
        timings.record("price", 0.5)
        timings.record("price", 0.25)
        timings.record("retire", 0.1)
        last = timings.tick_done()
        assert last["price"] == pytest.approx(0.75)
        assert last["retire"] == pytest.approx(0.1)
        assert timings.ticks == 1
        # last resets per tick, totals accumulate.
        timings.record("price", 1.0)
        assert timings.tick_done()["price"] == pytest.approx(1.0)
        assert timings.totals["price"] == pytest.approx(1.75)
        assert timings.mean_seconds()["price"] == pytest.approx(0.875)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown phase"):
            PhaseTimings().record("teardown", 0.1)

    def test_metrics_histograms(self):
        registry = MetricsRegistry()
        timings = PhaseTimings(metrics=registry)
        timings.record("observe", 0.0002)
        text = registry.to_prometheus()
        assert 'engine_tick_phase_seconds_count{phase="observe"} 1' in text


class TestEnginePhaseTimings:
    @pytest.mark.parametrize("arrivals", ["pooled", "factored"])
    def test_tick_records_every_backend_phase(self, arrivals):
        engine = make_engine(arrivals)
        engine.submit(generate_workload(6, NUM_INTERVALS, seed=5))
        core = engine.start(seed=5)
        timings = core.enable_phase_timings()
        assert core.phase_timings is timings
        while not core.done:
            core.tick()
        engine.close()
        assert timings.ticks > 0
        for phase in PhaseTimings.PHASES:
            assert timings.totals[phase] > 0.0, f"{phase} never recorded"
        summary = timings.summary()
        assert "admission" in summary and "observe" in summary

    def test_timings_do_not_change_results(self):
        def run(enable, arrivals):
            engine = make_engine(arrivals)
            engine.submit(generate_workload(6, NUM_INTERVALS, seed=5))
            core = engine.start(seed=5)
            if enable:
                core.enable_phase_timings()
            while not core.done:
                core.tick()
            result = core.result()
            engine.close()
            import dataclasses

            return dataclasses.replace(result, elapsed_seconds=0.0)

        for arrivals in ("pooled", "factored"):
            assert run(True, arrivals) == run(False, arrivals)
