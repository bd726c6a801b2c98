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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["solve-budget", "--num-tasks", "50", "--budget-cents", "nan"],
             "budget must be finite"),
            (["solve-deadline", "--penalty", "nan", "--num-tasks", "20",
              "--horizon-hours", "4"], "per_task penalty must be finite"),
        ],
        ids=["budget", "penalty"],
    )
    def test_nan_input_exits_2_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and message in err


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

    def test_factored_run_equals_the_same_run_built_through_the_api(
        self, capsys
    ):
        from repro.engine import (
            LogitRouter,
            MarketplaceEngine,
            PolicyCache,
            generate_workload,
        )
        from repro.market.acceptance import paper_acceptance_model
        from repro.market.tracker import SyntheticTrackerTrace
        from repro.sim.stream import SharedArrivalStream

        assert main([
            "engine", "run", "--campaigns", "6", "--horizon-hours", "12",
            "--interval-minutes", "30", "--seed", "3",
            "--arrivals", "factored",
        ]) == 0
        report = capsys.readouterr().out.splitlines()
        assert "serving       : arrivals=factored, cache capacity 256" in report

        def api_report(arrivals: str) -> list[str]:
            stream = SharedArrivalStream.from_rate_function(
                SyntheticTrackerTrace().rate_function(), 12.0, 24,
                start_hour=7 * 24.0,
            )
            acceptance = paper_acceptance_model()
            engine = MarketplaceEngine(
                stream, acceptance, router=LogitRouter(acceptance),
                cache=PolicyCache(max_entries=256), planning="stationary",
                arrivals=arrivals,
            )
            engine.submit(generate_workload(6, 24, seed=3))
            summary = engine.run(seed=3).summary().splitlines()
            # Everything but the wall-clock line is deterministic.
            return [line for line in summary if not line.startswith("throughput")]

        factored = api_report("factored")
        assert all(line in report for line in factored)
        # The flag picks the model: the pooled run of the same seed differs.
        assert api_report("pooled") != factored

    @pytest.mark.parametrize("weights", ["1,inf", "1,1e16"])
    def test_loadtest_rejects_a_weight_that_starves_the_others(
        self, weights, capsys
    ):
        # An infinite weight, or one whose quantum is past exact deficit
        # steps, would starve every other tenant; the CLI answers with
        # one line naming the tenant instead of running.
        code = main(
            ["engine", "loadtest", "--tenants", "a,b", "--weights", weights]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "tenant 'b'" in err


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

    def test_factored_kill_and_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        factored = [*self.WORKLOAD, "--arrivals", "factored"]
        assert main(["engine", "run", *factored]) == 0
        uninterrupted = capsys.readouterr().out

        bundle = tmp_path / "ck"
        assert main(
            ["engine", "run", *factored,
             "--stop-after", "6", "--checkpoint-path", str(bundle)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["config"]["arrivals"] == "factored"

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

    @pytest.mark.parametrize(
        "command", [["run"], ["scenario", "run"], ["serve"]],
        ids=["run", "scenario-run", "serve"],
    )
    def test_resume_of_a_non_object_manifest_exits_2(
        self, command, tmp_path, capsys
    ):
        bundle = tmp_path / "ck"
        bundle.mkdir()
        (bundle / "manifest.json").write_text("[]")
        assert main(["engine", *command, "--resume", str(bundle)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "not an object" in err


#: Every command that builds a synthetic arrival stream.
STREAM_COMMANDS = {
    "run": ["engine", "run"],
    "scenario-run": ["engine", "scenario", "run", "--canned", "flash-crowd"],
    "serve": ["engine", "serve"],
    "loadtest": ["engine", "loadtest"],
    "solve-deadline": ["solve-deadline"],
}

#: Stream flag values no run can use, with the one stderr line each must
#: exit 2 with.  The first two fail the flag's own type; the others pass
#: it, but the horizon over the interval is no usable interval count.
BAD_STREAM_VALUES = (
    ("--interval-minutes", "0", "argument --interval-minutes: must be a finite"),
    ("--horizon-hours", "inf", "argument --horizon-hours: must be a finite"),
    ("--horizon-hours", "1e308", "gives inf intervals; need a finite count"),
    ("--interval-minutes", "1e-320", "gives inf intervals; need a finite count"),
    ("--horizon-hours", "0.1", "gives 0.3 intervals; need a finite count >= 1"),
)

BAD_STREAM_FLAGS = [
    pytest.param(
        [*command, flag, value], message, id=f"{name}-{flag[2:]}-{value}"
    )
    for name, command in STREAM_COMMANDS.items()
    for flag, value, message in BAD_STREAM_VALUES
] + [
    pytest.param(
        ["engine", "run", "--surge", value],
        "argument --surge: must be a finite",
        id=f"run-surge-{value}",
    )
    for value in ("nan", "inf")
]


def exit_code(argv) -> int:
    """``main``'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    @pytest.mark.parametrize("argv, message", BAD_STREAM_FLAGS)
    def test_bad_stream_flag_exits_2_naming_the_flag(
        self, argv, message, capsys
    ):
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err.strip().splitlines()[-1]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve-deadline"])
        assert args.num_tasks == 200
        assert args.horizon_hours == 24.0

    def test_executor_flag_is_gone(self, capsys):
        # The engine commands reject the removed shard-loop executor
        # choice instead of silently ignoring it.
        for command in (["run"], ["scenario", "run"], ["serve"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(
                    ["engine", *command, "--executor", "thread"]
                )
            assert exc.value.code == 2
            assert "--executor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run"], ["scenario", "run"], ["serve"], ["loadtest"]],
        ids=["run", "scenario-run", "serve", "loadtest"],
    )
    def test_arrivals_flag_replaces_shards(self, command, capsys):
        parse = build_parser().parse_args
        assert parse(["engine", *command]).arrivals == "pooled"
        assert parse(
            ["engine", *command, "--arrivals", "factored"]
        ).arrivals == "factored"
        for rejected in (["--shards", "3"], ["--arrivals", "sharded"]):
            with pytest.raises(SystemExit) as exc:
                parse(["engine", *command, *rejected])
            assert exc.value.code == 2
            assert rejected[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run"], ["scenario", "run"], ["serve"], ["loadtest"]],
        ids=["run", "scenario-run", "serve", "loadtest"],
    )
    def test_kernels_flag_is_gone(self, command, capsys):
        # One solve backend: the engine commands reject the removed
        # backend choice instead of silently ignoring it.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["engine", *command, "--kernels", "numpy"])
        assert exc.value.code == 2
        assert "--kernels" in capsys.readouterr().err

    def test_engine_defaults(self):
        args = build_parser().parse_args(["engine", "run"])
        assert args.campaigns == 60
        assert args.planning == "stationary"
        assert args.router == "logit"
