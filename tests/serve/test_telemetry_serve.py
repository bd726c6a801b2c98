"""Serving telemetry: round trips, windows, latency percentiles."""

from __future__ import annotations

import pytest

from repro.serve import (
    DrainReport,
    GatewayTelemetry,
    LatencyRecorder,
    SERVE_SERIES_FIELDS,
    SubmitCampaign,
)
from repro.serve.gateway import Gateway
from tests.serve.conftest import make_engine
from tests.serve.test_gateway import spec


def recorded_telemetry() -> GatewayTelemetry:
    gateway = Gateway(make_engine())
    gateway.start(seed=3)
    gateway.offer(SubmitCampaign(spec("a")))
    gateway.offer(SubmitCampaign(spec("b", submit=4)))
    for _ in range(6):
        if gateway.step() is None:
            break
    return gateway.telemetry


def test_round_trip_is_bit_exact():
    telemetry = recorded_telemetry()
    clone = GatewayTelemetry.from_dict(telemetry.to_dict())
    assert clone == telemetry
    assert clone.to_dict() == telemetry.to_dict()
    # ...and keeps recording deltas from where it left off.
    assert clone.reads_served == telemetry.reads_served


def test_save_load(tmp_path):
    telemetry = recorded_telemetry()
    path = telemetry.save(tmp_path / "serve.json")
    assert GatewayTelemetry.load(path) == telemetry


def test_version_gate():
    with pytest.raises(ValueError, match="version"):
        GatewayTelemetry.from_dict({"version": 99})


def test_latency_stays_out_of_the_serialized_form():
    telemetry = recorded_telemetry()
    assert telemetry.latency.count > 0  # responses were observed
    data = telemetry.to_dict()
    assert "latency" not in data  # wall-clock never enters the contract
    restored = GatewayTelemetry.from_dict(data)
    assert restored.latency.count == 0


def tenant_telemetry() -> GatewayTelemetry:
    """Five recorded ticks with tenant ``acme``'s series."""
    gateway = Gateway(make_engine())
    gateway.start(seed=3)
    gateway.offer(SubmitCampaign(spec("a")), tenant="acme")
    for _ in range(6):
        gateway.step()
    return gateway.telemetry


def _cut(*path, keep):
    def corrupt(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = data[last][:keep]
    return corrupt


def _cut_engine(keep):
    def corrupt(data):
        series = data["engine"]["series"]
        for key in series:
            series[key] = series[key][:keep]
    return corrupt


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (_cut("serve", "reads", keep=1), "serve series 'reads'"),
        (_cut("tenants", "acme", "drained", keep=3), "tenant 'acme' series"),
        (_cut("engine", "series", "num_live", keep=4), "series 'num_live'"),
        (_cut_engine(keep=4), "but its engine telemetry 4"),
    ],
    ids=["serve-reads", "tenant-drained", "engine-series", "engine-ticks"],
)
def test_misaligned_series_are_rejected(corrupt, match):
    # Used to restore without error: window(3) then answered 2 drained
    # entries next to 3 of every other field.
    data = tenant_telemetry().to_dict()
    assert len(data["serve"]["interval"]) == 5
    corrupt(data)
    with pytest.raises(ValueError, match=match):
        GatewayTelemetry.from_dict(data)


def test_window_bounds():
    telemetry = recorded_telemetry()
    empty = telemetry.window(0)
    assert all(empty["serve"][k] == [] for k in SERVE_SERIES_FIELDS)
    everything = telemetry.window(10_000)
    assert len(everything["serve"]["interval"]) == telemetry.num_ticks
    assert len(everything["engine"]["interval"]) == telemetry.num_ticks


def test_summary_mentions_the_counters():
    telemetry = recorded_telemetry()
    text = telemetry.summary()
    assert "responses" in text and "admission" in text and "latency" in text


def test_drain_report_defaults_to_an_empty_tally():
    report = DrainReport()
    assert (report.queue_depth, report.drained, report.admitted,
            report.rejected, report.cancels, report.snapshots) == (0,) * 6


class TestLatencyRecorder:
    def test_empty(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(50) == 0.0
        assert recorder.summary() == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0,
            "p99_ms": 0.0,
        }

    def test_percentiles_nearest_rank(self):
        recorder = LatencyRecorder()
        for ms in range(1, 101):  # 1ms .. 100ms
            recorder.observe(ms / 1000.0)
        summary = recorder.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.0)
        assert summary["p95_ms"] == pytest.approx(95.0)
        assert summary["p99_ms"] == pytest.approx(99.0)
        assert summary["mean_ms"] == pytest.approx(50.5)

    def test_bounded_by_decimation(self):
        recorder = LatencyRecorder(max_samples=8)
        for i in range(40):
            recorder.observe(i / 1000.0)
        assert recorder.count < 8  # halved whenever the cap is reached
        assert recorder.total_observed == 40
        assert recorder.percentile(50) > 0.0  # distribution survives

    def test_bad_cap(self):
        with pytest.raises(ValueError, match="max_samples"):
            LatencyRecorder(max_samples=1)

    def test_order_independent(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        samples = [0.005, 0.001, 0.009, 0.003]
        for s in samples:
            a.observe(s)
        for s in reversed(samples):
            b.observe(s)
        # Percentiles sort internally; the mean differs only by float
        # summation order.
        assert a.percentile(50) == b.percentile(50)
        assert a.percentile(99) == b.percentile(99)
        assert a.summary()["mean_ms"] == pytest.approx(b.summary()["mean_ms"])


class TestPercentileRegressions:
    """Edge cases from the nearest-rank audit; each pinned a past bug."""

    def test_single_sample_answers_every_quantile(self):
        recorder = LatencyRecorder()
        recorder.observe(0.007)
        for q in (0, 1, 50, 95, 99, 100):
            assert recorder.percentile(q) == 0.007

    def test_p0_and_p100_are_min_and_max(self):
        recorder = LatencyRecorder()
        for s in (0.004, 0.001, 0.009, 0.002):
            recorder.observe(s)
        assert recorder.percentile(0) == 0.001
        assert recorder.percentile(100) == 0.009

    def test_half_fraction_rank_rounds_up(self):
        # n=10, q=85 → rank = ceil(8.5) = 9 → the 9th-smallest sample.
        # round() would bankers-round 8.5 down to the 8th.
        recorder = LatencyRecorder()
        for ms in range(1, 11):
            recorder.observe(ms / 1000.0)
        assert recorder.percentile(85) == pytest.approx(0.009)
        # n=10, q=50 → ceil(5.0) = 5 → the 5th sample, not the 6th.
        assert recorder.percentile(50) == pytest.approx(0.005)

    def test_monotone_in_q(self):
        recorder = LatencyRecorder()
        for ms in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5):
            recorder.observe(ms / 1000.0)
        values = [recorder.percentile(q) for q in range(0, 101, 5)]
        assert values == sorted(values)

    def test_percentile_is_always_an_observed_sample(self):
        recorder = LatencyRecorder()
        samples = [0.0013, 0.0042, 0.0021, 0.0088]
        for s in samples:
            recorder.observe(s)
        for q in (1, 33, 50, 66, 99):
            assert recorder.percentile(q) in samples

    def test_decimation_keeps_the_newest_sample(self):
        recorder = LatencyRecorder(max_samples=4)
        for i in range(1, 9):
            recorder.observe(i / 1000.0)
        # The halve-before-append order guarantees the last observation
        # survives every decimation (halving after would drop odd-index
        # newcomers).
        assert recorder.percentile(100) == pytest.approx(0.008)
        assert recorder.count < recorder.max_samples
        assert recorder.total_observed == 8

    def test_summary_matches_percentile_method(self):
        recorder = LatencyRecorder()
        for ms in range(1, 42):
            recorder.observe(ms / 1000.0)
        summary = recorder.summary()
        assert summary["p50_ms"] == pytest.approx(1e3 * recorder.percentile(50))
        assert summary["p95_ms"] == pytest.approx(1e3 * recorder.percentile(95))
        assert summary["p99_ms"] == pytest.approx(1e3 * recorder.percentile(99))
