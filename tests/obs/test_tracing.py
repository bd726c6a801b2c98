"""Tracing and tick-phase timing: spans, ids, and the engine wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MarketplaceEngine, generate_workload
from repro.engine.clock import PhaseTimings
from repro.market.acceptance import paper_acceptance_model
from repro.obs import MetricsRegistry, Span, Tracer
from repro.obs.tracing import trace_id_for_seq
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


class TestTracer:
    def test_span_lifecycle(self):
        tracer = Tracer()
        span = tracer.start_span("request", "req-000001", attrs={"kind": "quote"})
        assert tracer.num_open == 1
        assert tracer.num_finished == 0
        tracer.finish_span(span, {"status": "ok"})
        assert tracer.num_open == 0
        assert tracer.num_finished == 1
        assert span.duration_s is not None and span.duration_s >= 0
        assert span.attrs == {"kind": "quote", "status": "ok"}

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("tick", "tick-0")
        tracer.finish_span(span)
        first = span.duration_s
        span.finish()
        assert span.duration_s == first

    def test_ring_bounds_memory(self):
        tracer = Tracer(max_spans=8)
        for i in range(20):
            tracer.finish_span(tracer.start_span("request", f"req-{i:06d}"))
        assert tracer.num_finished == 8
        assert tracer.total_started == 20
        kept = [s.trace_id for s in tracer.spans()]
        assert kept == [f"req-{i:06d}" for i in range(12, 20)]

    def test_bad_max_spans(self):
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(max_spans=0)

    def test_trace_filter_and_parents(self):
        tracer = Tracer()
        root = tracer.start_span("tick", "tick-3")
        child = tracer.start_span("request", "tick-3", parent_id=root.span_id)
        tracer.finish_span(child)
        tracer.finish_span(root)
        trace = tracer.trace("tick-3")
        assert [s["name"] for s in trace] == ["request", "tick"]
        assert trace[0]["parent_id"] == root.span_id
        assert tracer.spans("other") == []

    def test_save(self, tmp_path):
        tracer = Tracer()
        tracer.finish_span(tracer.start_span("request", "req-000000"))
        path = tracer.save(tmp_path / "spans.json")
        import json

        data = json.loads(path.read_text())
        assert data["total_started"] == 1
        assert data["spans"][0]["trace_id"] == "req-000000"

    def test_span_dataclass_shape(self):
        span = Span(
            span_id="s-0", trace_id="t", name="n", parent_id=None,
            started_at=0.0,
        )
        assert span.to_dict()["duration_s"] is None


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

    def test_disable_detaches_backend_sink(self):
        engine = make_engine()
        engine.submit(generate_workload(3, NUM_INTERVALS, seed=5))
        core = engine.start(seed=5)
        timings = core.enable_phase_timings()
        core.tick()
        ticks_before = timings.ticks
        core.disable_phase_timings()
        core.tick()
        assert timings.ticks == ticks_before
        assert core.phase_timings is None
        engine.close()
