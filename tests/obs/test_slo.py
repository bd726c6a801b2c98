"""SLO objectives and burn rates: windows, policies, and both offline paths."""

from __future__ import annotations

import math

import pytest

from repro.obs import EventLog, SloPolicy
from repro.obs.slo import (
    availability_slo,
    burn_rate,
    event_log_slo,
    event_log_slo_report,
    latency_slo_from_samples,
    render_slo_report,
    telemetry_slo_report,
)


class TestPolicy:
    def test_defaults(self):
        policy = SloPolicy()
        assert policy.availability_objective == 0.99
        assert policy.windows == (8, 32, 128)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_objectives_must_be_fractions(self, objective):
        with pytest.raises(ValueError, match="inside"):
            SloPolicy(availability_objective=objective)

    @pytest.mark.parametrize("windows", [(), (0,), (8, 8), (32, 8)])
    def test_windows_strictly_increasing(self, windows):
        with pytest.raises(ValueError, match="strictly increasing"):
            SloPolicy(windows=windows)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("latency_target_ticks", -1, "latency_target_ticks must be >= 0"),
            ("latency_target_ms", 0.0, "latency_target_ms must be finite"),
            ("latency_target_ms", -5.0, "latency_target_ms must be finite"),
            ("latency_target_ms", math.nan, "latency_target_ms must be finite"),
            ("latency_target_ms", math.inf, "latency_target_ms must be finite"),
        ],
        ids=["ticks-negative", "ms-zero", "ms-negative", "ms-nan", "ms-inf"],
    )
    def test_latency_targets_must_be_servable(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SloPolicy(**{field: value})

    def test_negative_tick_target_exits_2_with_one_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.sqlite"
        log = EventLog(path)
        log.log("request", 0,
                {"seq": 0, "request": {"type": "submit-campaign"}}, client="c")
        log.log("response", 0,
                {"seq": 0, "kind": "submit-campaign", "status": "ok"},
                client="c")
        log.close()
        assert main(["engine", "slo", "--event-log", str(path),
                     "--latency-target-ticks", "-1"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "latency_target_ticks must be >= 0" in err

    def test_to_dict_is_json_ready(self):
        data = SloPolicy(windows=(4, 16)).to_dict()
        assert data["windows"] == [4, 16]
        assert data["latency_target_ticks"] == 2


class TestBurnRate:
    def test_no_evidence_is_none(self):
        assert burn_rate(0, 0, 0.99) is None

    def test_exact_budget_burns_at_one(self):
        # objective 0.99 -> 1% budget; 1 bad in 100 consumes it exactly.
        assert burn_rate(1, 100, 0.99) == pytest.approx(1.0)

    def test_clean_window_burns_zero(self):
        assert burn_rate(0, 50, 0.99) == 0.0

    def test_ten_times_budget(self):
        assert burn_rate(10, 100, 0.99) == pytest.approx(10.0)

    def test_zero_budget_objective(self):
        # A 100% objective has no error budget: any failure burns at
        # infinity, a clean window still reads zero.
        assert burn_rate(0, 10, 1.0) == 0.0
        assert burn_rate(1, 10, 1.0) == math.inf


class TestAvailability:
    def test_windows_are_trailing_ticks(self):
        # 10 clean ticks, then 2 ticks of heavy rejection.
        admitted = [5] * 10 + [1, 1]
        rejected = [0] * 10 + [4, 4]
        report = availability_slo(
            admitted, rejected, SloPolicy(windows=(2, 8, 32))
        )
        fast = report["windows"]["2"]
        assert fast == {
            "window": 2, "bad": 8, "total": 10,
            "error_rate": pytest.approx(0.8),
            "burn_rate": pytest.approx(80.0),
        }
        slow = report["windows"]["32"]
        assert slow["total"] == 60
        assert slow["bad"] == 8

    def test_burning_requires_every_window_with_evidence(self):
        # Fast window burning, slow window healthy -> not "burning"
        # (the multi-window rule suppresses short blips).
        admitted = [100] * 30 + [0]
        rejected = [0] * 30 + [2]
        report = availability_slo(
            admitted, rejected, SloPolicy(windows=(1, 16))
        )
        assert report["windows"]["1"]["burn_rate"] > 1.0
        assert report["windows"]["16"]["burn_rate"] < 1.0
        assert report["burning"] is False

    def test_sustained_burn_trips(self):
        report = availability_slo(
            [1] * 40, [1] * 40, SloPolicy(windows=(8, 32))
        )
        assert report["burning"] is True


class TestLatencySamples:
    def test_percentiles_and_bad_counts(self):
        samples = [0.001] * 98 + [0.5, 0.9]  # seconds
        report = latency_slo_from_samples(
            samples, SloPolicy(windows=(10, 100), latency_target_ms=250.0)
        )
        assert report["p50_ms"] == pytest.approx(1.0)
        # Nearest-rank p99 of 100 samples is the 99th sorted value.
        assert report["p99_ms"] == pytest.approx(500.0)
        assert report["windows"]["10"]["bad"] == 2
        assert report["windows"]["100"]["bad"] == 2
        assert report["windows"]["100"]["total"] == 100

    def test_short_history_truncates_totals(self):
        report = latency_slo_from_samples(
            [0.001] * 5, SloPolicy(windows=(8, 32))
        )
        assert report["windows"]["8"]["total"] == 5
        assert report["windows"]["32"]["total"] == 5


class TestEventLogSlo:
    def _write_log(self, path, rows):
        log = EventLog(path)
        for kind, tick, payload, client in rows:
            log.log(kind, tick, payload, client=client)
        log.close()

    def test_latency_joins_request_to_response_in_ticks(self, tmp_path):
        path = tmp_path / "events.sqlite"
        self._write_log(path, [
            ("request", 0, {"seq": 0, "request": {"type": "submit-campaign"}}, "a"),
            ("response", 1, {"seq": 0, "kind": "submit-campaign", "status": "ok"}, "a"),
            ("request", 1, {"seq": 1, "request": {"type": "submit-campaign"}}, "a"),
            ("response", 9, {"seq": 1, "kind": "submit-campaign", "status": "ok"}, "a"),
        ])
        report = event_log_slo(
            path, SloPolicy(windows=(4, 16), latency_target_ticks=2)
        )
        # Window of 16 trailing ticks sees both; only the 8-tick join is bad.
        wide = report["latency"]["windows"]["16"]
        assert wide["total"] == 2
        assert wide["bad"] == 1

    def test_rejected_submission_is_availability_bad(self, tmp_path):
        path = tmp_path / "events.sqlite"
        self._write_log(path, [
            ("request", 0, {"seq": 0, "request": {"type": "submit-campaign"}}, "a"),
            ("response", 1, {"seq": 0, "kind": "submit-campaign",
                             "status": "rejected"}, "a"),
            ("request", 0, {"seq": 1, "request": {"type": "quote"}}, "a"),
            ("response", 0, {"seq": 1, "kind": "quote", "status": "ok"}, "a"),
        ])
        report = event_log_slo(path, SloPolicy(windows=(8,)))
        window = report["availability"]["windows"]["8"]
        # Only the submission counts toward availability; the quote does not.
        assert window == {
            "window": 8, "bad": 1, "total": 1,
            "error_rate": 1.0, "burn_rate": pytest.approx(100.0),
        }

    def test_fleet_safe_join_key_is_client_and_seq(self, tmp_path):
        # A log written by an earlier build that partitioned admission can
        # carry the same ticket seq for different clients; the
        # (client, seq) join must keep the pairs apart.
        path = tmp_path / "events.sqlite"
        self._write_log(path, [
            ("request", 0, {"seq": 0, "request": {"type": "submit-campaign"}}, "a"),
            ("request", 4, {"seq": 0, "request": {"type": "submit-campaign"}}, "b"),
            ("response", 1, {"seq": 0, "kind": "submit-campaign", "status": "ok"}, "a"),
            ("response", 5, {"seq": 0, "kind": "submit-campaign", "status": "ok"}, "b"),
        ])
        report = event_log_slo(
            path, SloPolicy(windows=(16,), latency_target_ticks=2)
        )
        window = report["latency"]["windows"]["16"]
        # Joined per client both latencies are 1 tick; a seq-only join
        # would compute 5 - 0 for client b and flag it bad.
        assert window["total"] == 2
        assert window["bad"] == 0


class TestReports:
    def test_telemetry_report_availability_only(self):
        data = {"serve": {"admitted": [3, 3, 3], "rejected": [0, 0, 3]}}
        report = telemetry_slo_report(data, SloPolicy(windows=(2, 8)))
        assert report["source"] == "telemetry"
        assert "latency" not in report
        assert report["availability"]["windows"]["2"]["bad"] == 3

    def test_event_log_report_renders(self, tmp_path):
        path = tmp_path / "events.sqlite"
        log = EventLog(path)
        log.log("request", 0,
                {"seq": 0, "request": {"type": "submit-campaign"}}, client="c")
        log.log("response", 1,
                {"seq": 0, "kind": "submit-campaign", "status": "ok"},
                client="c")
        log.close()
        report = event_log_slo_report(path)
        text = render_slo_report(report)
        assert "source        : event-log" in text
        assert "availability" in text
        assert "burn" in text
