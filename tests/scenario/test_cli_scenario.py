"""CLI coverage for ``repro engine scenario run`` and ``--list-scenarios``."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from repro.scenario import CANNED_SCENARIOS

# Small stream so CLI runs stay fast: 8 hours of 20-minute ticks = 24.
FAST = ["--horizon-hours", "8"]


class TestListScenarios:
    def test_lists_every_canned_scenario(self, capsys):
        assert main(["engine", "scenario", "run", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in CANNED_SCENARIOS:
            assert name in out


class TestScenarioRun:
    def test_canned_run_smoke(self, capsys):
        code = main(["engine", "scenario", "run", "--canned", "steady-churn",
                     *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario      : 'steady-churn'" in out
        assert "telemetry     :" in out
        assert "campaigns     :" in out

    def test_factored_arrivals_flag_reaches_the_engine(self, capsys):
        runs = {}
        for arrivals in ("pooled", "factored"):
            assert main(["engine", "scenario", "run", "--canned",
                         "black-friday", *FAST, "--arrivals", arrivals]) == 0
            runs[arrivals] = capsys.readouterr().out
        assert "serving       : arrivals=factored," in runs["factored"]
        # Two random models: the realized arrivals differ.
        arrivals_line = [
            [l for l in out.splitlines() if l.startswith("intervals")]
            for out in runs.values()
        ]
        assert arrivals_line[0] != arrivals_line[1]

    def test_spec_file_and_seed_override(self, tmp_path, capsys):
        from repro.scenario import canned_scenario

        spec = tmp_path / "spec.json"
        canned_scenario("steady-churn", 24, seed=3).dump(spec)
        code = main(["engine", "scenario", "run", "--spec", str(spec),
                     "--seed", "5", *FAST])
        assert code == 0
        assert "seed=5" in capsys.readouterr().out

    def test_telemetry_out_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.json"
        code = main(["engine", "scenario", "run", "--canned", "day-night",
                     *FAST, "--telemetry-out", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["series"]["interval"]
        assert len(data["series"]["rate_factor"]) == len(data["series"]["interval"])

    def test_base_campaigns_add_static_load(self, capsys):
        assert main(["engine", "scenario", "run", "--canned", "steady-churn",
                     *FAST, "--base-campaigns", "4"]) == 0
        assert "+ 4 base" in capsys.readouterr().out

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, capsys):
        args = ["engine", "scenario", "run", "--canned", "black-friday", *FAST]
        assert main(args) == 0
        uninterrupted = capsys.readouterr().out
        bundle = tmp_path / "bundle"
        assert main([*args, "--stop-after", "7",
                     "--checkpoint-path", str(bundle)]) == 0
        assert "stopped" in capsys.readouterr().out
        assert main(["engine", "scenario", "run", "--resume", str(bundle)]) == 0
        resumed = capsys.readouterr().out
        assert "resume        :" in resumed
        ref_telemetry = [l for l in uninterrupted.splitlines()
                         if l.startswith("telemetry")]
        assert ref_telemetry == [l for l in resumed.splitlines()
                                 if l.startswith("telemetry")]

    def test_stop_after_still_writes_partial_telemetry(self, tmp_path, capsys):
        out_path = tmp_path / "partial.json"
        code = main(["engine", "scenario", "run", "--canned", "steady-churn",
                     *FAST, "--stop-after", "5",
                     "--checkpoint-path", str(tmp_path / "bundle"),
                     "--telemetry-out", str(out_path)])
        assert code == 0
        assert "partial: 5 ticks" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert len(data["series"]["interval"]) == 5

    def test_requires_exactly_one_source(self, capsys):
        assert main(["engine", "scenario", "run", *FAST]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["engine", "scenario", "run", "--canned", "day-night",
                     "--spec", "x.json", *FAST]) == 2

    def test_unknown_canned_name(self, capsys):
        assert main(["engine", "scenario", "run", "--canned", "no-such",
                     *FAST]) == 2
        assert "unknown canned scenario" in capsys.readouterr().err

    def test_checkpoint_flags_require_path(self, capsys):
        assert main(["engine", "scenario", "run", "--canned", "day-night",
                     *FAST, "--stop-after", "5"]) == 2
        assert "--checkpoint-path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("scenario", None), ("next_wave", "x")],
        ids=["no-scenario", "next-wave-not-a-number"],
    )
    def test_resume_of_corrupt_driver_state_exits_2_with_one_line(
        self, field, value, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        assert main(["engine", "scenario", "run", "--canned", "black-friday",
                     *FAST, "--stop-after", "5",
                     "--checkpoint-path", str(bundle)]) == 0
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        state = manifest["extras"]["scenario_driver"]
        if value is None:
            del state[field]
        else:
            state[field] = value
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["engine", "scenario", "run", "--resume", str(bundle)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert str(bundle) in err

    def test_resume_missing_bundle(self, tmp_path, capsys):
        assert main(["engine", "scenario", "run",
                     "--resume", str(tmp_path / "nope")]) == 2
        assert "no checkpoint bundle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,field",
        [
            ({"name": "s", "events": 5}, "field 'events'"),
            ([{"name": "s"}], "scenario must be a JSON object"),
            ({}, "missing field(s) name"),
        ],
        ids=["events-not-a-list", "top-level-list", "no-name"],
    )
    def test_malformed_spec_exits_2_naming_file_and_field(
        self, spec, field, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for command in (["scenario", "run"], ["serve"]):
            assert main(["engine", *command, "--spec", str(path), *FAST]) == 2
            err = capsys.readouterr().err.strip()
            assert "\n" not in err
            assert str(path) in err
            assert field in err

    @pytest.mark.parametrize("sink", [[], ["--keep-outcomes"]],
                             ids=["streaming", "keep-outcomes"])
    def test_mistyped_cancellation_exits_2_with_one_line(
        self, sink, tmp_path, capsys
    ):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({
            "name": "typo", "seed": 3,
            "events": [
                {"type": "campaign-churn", "start": 1, "stop": 3,
                 "per_wave": 2, "prefix": "g"},
                {"type": "cancellation", "tick": 4, "campaign_id": "g-typo"},
            ],
        }))
        assert main(["engine", "scenario", "run", "--spec", str(path),
                     *FAST, *sink]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "unknown campaign 'g-typo' at tick 4" in err
