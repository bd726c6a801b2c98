"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out and "table1" in out and "ext_adaptive" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["experiments", "run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "35" in out and "99" in out

    def test_run_unknown_id(self, capsys):
        assert main(["experiments", "run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        code = main(
            ["experiments", "report", "--ids", "table1", "fig1", "--out", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert "## table1" in text and "## fig1" in text
        assert "35" in text

    def test_report_stdout(self, capsys):
        assert main(["experiments", "report", "--ids", "table1"]) == 0
        assert "## table1" in capsys.readouterr().out

    def test_report_unknown_id(self, capsys):
        assert main(["experiments", "report", "--ids", "nope"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err

    def test_report_multiple_blocks_in_order(self, capsys):
        assert main(["experiments", "report", "--ids", "fig1", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.index("## fig1") < out.index("## table1")
        assert out.count("```") == 4  # one fenced block per experiment


class TestSolveDeadlineCommand:
    def test_small_instance(self, capsys):
        code = main(
            [
                "solve-deadline",
                "--num-tasks", "20",
                "--horizon-hours", "4",
                "--interval-minutes", "60",
                "--max-price", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "expected cost" in out
        assert "floor price" in out

    def test_save_policy(self, tmp_path, capsys):
        path = tmp_path / "policy.npz"
        code = main(
            [
                "solve-deadline",
                "--num-tasks", "10",
                "--horizon-hours", "2",
                "--interval-minutes", "60",
                "--max-price", "40",
                "--save", str(path),
            ]
        )
        assert code == 0
        assert path.exists()
        from repro.util.serialization import load_policy

        assert load_policy(path).problem.num_tasks == 10


class TestSolveBudgetCommand:
    def test_basic(self, capsys):
        assert main(["solve-budget", "--num-tasks", "50", "--budget-cents", "600"]) == 0
        out = capsys.readouterr().out
        assert "tasks at" in out

    def test_exact_flag(self, capsys):
        code = main(
            [
                "solve-budget",
                "--num-tasks", "20",
                "--budget-cents", "200",
                "--max-price", "15",
                "--exact",
            ]
        )
        assert code == 0
        assert "exact DP" in capsys.readouterr().out

    def test_infeasible_budget(self, capsys):
        assert main(["solve-budget", "--num-tasks", "100", "--budget-cents", "10"]) == 2
        assert "cannot cover" in capsys.readouterr().err


class TestEngineCommand:
    def test_run_smoke(self, capsys):
        code = main(
            [
                "engine", "run",
                "--campaigns", "8",
                "--horizon-hours", "12",
                "--interval-minutes", "30",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaigns     : 8" in out
        assert "hit rate" in out
        assert "campaigns/sec" in out

    def test_run_per_campaign_listing(self, capsys):
        code = main(
            [
                "engine", "run",
                "--campaigns", "6",
                "--horizon-hours", "12",
                "--interval-minutes", "30",
                "--budget-fraction", "0.5",
                "--per-campaign",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c/task" in out
        assert "bg-" in out and "dl-" in out

    def test_run_uniform_router_and_surge(self, capsys):
        code = main(
            [
                "engine", "run",
                "--campaigns", "5",
                "--horizon-hours", "12",
                "--interval-minutes", "30",
                "--router", "uniform",
                "--planning", "sliced",
                "--surge", "1.5",
            ]
        )
        assert code == 0
        assert "router=uniform" in capsys.readouterr().out

    def test_run_rejects_bad_workload(self, capsys):
        code = main(
            [
                "engine", "run",
                "--campaigns", "4",
                "--horizon-hours", "1",  # too short for any template
                "--interval-minutes", "30",
            ]
        )
        assert code == 2
        assert "fits" in capsys.readouterr().err

    def test_run_shard_count_never_changes_the_report(self, capsys):
        workload = [
            "engine", "run",
            "--campaigns", "6",
            "--horizon-hours", "12",
            "--interval-minutes", "30",
            "--per-campaign",
            "--seed", "3",
        ]
        reports = {}
        for shards in ("1", "4"):
            assert main([*workload, "--shards", shards]) == 0
            reports[shards] = capsys.readouterr().out
        assert "serving       : shards=4," in reports["4"]

        def deterministic_report(out: str) -> list[str]:
            # Drop the serving header (names the shard count) and the
            # wall-clock line; everything left must be bit-identical.
            return [
                line for line in out.splitlines()
                if line.split(":")[0].strip() not in ("serving", "throughput")
            ]

        assert deterministic_report(reports["1"]) == deterministic_report(
            reports["4"]
        )

    def test_run_kernels_flag(self, capsys, recwarn):
        from repro.core.batch import kernels

        code = main(
            [
                "engine", "run",
                "--campaigns", "5",
                "--horizon-hours", "12",
                "--interval-minutes", "30",
                "--kernels", "numpy",
            ]
        )
        assert code == 0
        assert kernels.active() == "numpy"
        kernels.set_kernels(None)  # restore env/auto resolution

    def test_run_kernels_numba_falls_back_when_absent(self, capsys):
        from repro.core.batch import kernels

        if kernels.HAVE_NUMBA:
            pytest.skip("numba is installed here")
        with pytest.warns(RuntimeWarning, match="falling back"):
            code = main(
                [
                    "engine", "run",
                    "--campaigns", "5",
                    "--horizon-hours", "12",
                    "--interval-minutes", "30",
                    "--kernels", "numba",
                ]
            )
        assert code == 0
        assert kernels.active() == "numpy"
        kernels.set_kernels(None)


class TestEngineCheckpointCLI:
    WORKLOAD = [
        "--campaigns", "8",
        "--horizon-hours", "12",
        "--interval-minutes", "30",
        "--seed", "3",
    ]

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, capsys):
        assert main(["engine", "run", *self.WORKLOAD]) == 0
        uninterrupted = capsys.readouterr().out

        bundle = str(tmp_path / "ck")
        code = main(
            ["engine", "run", *self.WORKLOAD,
             "--stop-after", "6", "--checkpoint-path", bundle]
        )
        assert code == 0
        stopped = capsys.readouterr().out
        assert "stopped" in stopped and "--resume" in stopped

        assert main(["engine", "run", "--resume", bundle]) == 0
        resumed = capsys.readouterr().out
        assert "resume        :" in resumed
        # Everything after the resume banner must match the uninterrupted
        # run's report except wall-clock (the throughput line).
        def body(text):
            return [
                line for line in text.splitlines()
                if line.split(":")[0].strip()
                not in ("stream", "serving", "resume", "throughput")
            ]
        assert body(resumed) == body(uninterrupted)

    def test_sharded_kill_and_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        sharded = [*self.WORKLOAD, "--shards", "3"]
        assert main(["engine", "run", *sharded]) == 0
        uninterrupted = capsys.readouterr().out

        bundle = tmp_path / "ck"
        assert main(
            ["engine", "run", *sharded,
             "--stop-after", "6", "--checkpoint-path", str(bundle)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["config"]["num_shards"] == 3

        assert main(["engine", "run", "--resume", str(bundle)]) == 0
        resumed = capsys.readouterr().out

        def body(text):
            return [
                line for line in text.splitlines()
                if line.split(":")[0].strip()
                not in ("stream", "serving", "resume", "throughput")
            ]
        assert body(resumed) == body(uninterrupted)

    def test_periodic_checkpoints_leave_a_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "ck"
        code = main(
            ["engine", "run", *self.WORKLOAD,
             "--checkpoint-every", "4", "--checkpoint-path", str(bundle)]
        )
        assert code == 0
        assert (bundle / "manifest.json").is_file()
        assert len(list(bundle.glob("arrays-*.npz"))) == 1

    def test_checkpoint_flags_require_path(self, capsys):
        code = main(["engine", "run", *self.WORKLOAD, "--checkpoint-every", "4"])
        assert code == 2
        assert "--checkpoint-path" in capsys.readouterr().err

    def test_resume_missing_bundle(self, tmp_path, capsys):
        code = main(["engine", "run", "--resume", str(tmp_path / "nope")])
        assert code == 2
        assert "no checkpoint bundle" in capsys.readouterr().err


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve-deadline"])
        assert args.num_tasks == 200
        assert args.horizon_hours == 24.0

    def test_executor_flag_is_gone(self, capsys):
        # Shards always run in one serial loop; the engine commands reject
        # the removed executor choice instead of silently ignoring it.
        for command in (["run"], ["scenario", "run"], ["serve"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(
                    ["engine", *command, "--executor", "thread"]
                )
            assert exc.value.code == 2
            assert "--executor" in capsys.readouterr().err

    def test_engine_defaults(self):
        args = build_parser().parse_args(["engine", "run"])
        assert args.campaigns == 60
        assert args.planning == "stationary"
        assert args.router == "logit"
