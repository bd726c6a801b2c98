"""CLI surface of the serving layer: ``engine serve`` / ``engine loadtest``."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from repro.serve import GatewayTelemetry, LoadGenerator

FAST = ["--horizon-hours", "6"]


def test_serve_canned_scenario(capsys):
    assert main(["engine", "serve", "--canned", "flash-crowd", *FAST]) == 0
    out = capsys.readouterr().out
    assert "serving       : trace 'flash-crowd'" in out
    assert "gateway       :" in out
    assert "campaigns     :" in out


def test_serve_requires_exactly_one_source(capsys):
    assert main(["engine", "serve", *FAST]) == 2
    assert "exactly one request source" in capsys.readouterr().err
    assert main([
        "engine", "serve", "--canned", "flash-crowd", "--trace", "x.json",
        *FAST,
    ]) == 2


def test_serve_unknown_canned_name_exits_2(capsys):
    assert main(["engine", "serve", "--canned", "nope", *FAST]) == 2
    assert "nope" in capsys.readouterr().err


def test_serve_bad_trace_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["engine", "serve", "--trace", str(missing), *FAST]) == 2
    assert "could not load request trace" in capsys.readouterr().err
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert main(["engine", "serve", "--trace", str(mangled), *FAST]) == 2


def test_serve_trace_with_unservable_field_exits_2_at_load(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({
        "name": "bad",
        "requests": [
            {"tick": 0, "client": "c",
             "request": {"type": "snapshot", "path": None}},
        ],
    }))
    assert main(["engine", "serve", "--trace", str(trace_path), *FAST]) == 2
    err = capsys.readouterr().err
    assert "could not load request trace" in err
    assert "path" in err


SPEC = {
    "campaign_id": "c-0", "kind": "deadline", "num_tasks": 10,
    "submit_interval": 0, "horizon_intervals": 6,
}


@pytest.mark.parametrize(
    "request_,field",
    [
        ({"type": "query-telemetry", "last": 2.5}, "last"),
        ({"type": "submit-campaign", "spec": None}, "spec"),
        ({"type": "quote", "spec": None}, "spec"),
        ({"type": "submit-campaign", "spec": SPEC, "priority": 1}, "priority"),
    ],
    ids=["fractional-window", "null-submit-spec", "null-quote-spec",
         "unknown-key"],
)
def test_serve_trace_rejects_each_unservable_request_at_load(
    request_, field, tmp_path, capsys
):
    # The replay must refuse the trace before serving its first tick,
    # never die mid-replay with a traceback.
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({
        "name": "bad",
        "requests": [
            {"tick": 0, "client": "c",
             "request": {"type": "submit-campaign", "spec": SPEC}},
            {"tick": 2, "client": "c", "request": request_},
        ],
    }))
    assert main(["engine", "serve", "--trace", str(trace_path), *FAST]) == 2
    captured = capsys.readouterr()
    assert "could not load request trace" in captured.err
    assert field in captured.err
    assert "serving       :" not in captured.out


def test_serve_flag_validation_exits_2(capsys):
    assert main([
        "engine", "serve", "--canned", "flash-crowd", "--max-live", "-2",
        *FAST,
    ]) == 2
    assert main([
        "engine", "serve", "--canned", "flash-crowd", "--stop-after", "4",
        *FAST,
    ]) == 2  # needs --checkpoint-path
    err = capsys.readouterr().err
    assert "--checkpoint-path" in err


def test_serve_trace_with_telemetry_out_and_factored_arrivals(
    tmp_path, capsys
):
    trace_path = tmp_path / "trace.json"
    LoadGenerator(18, seed=3, rate=2.0).trace("open").save(trace_path)
    telemetry_path = tmp_path / "telemetry.json"
    assert main([
        "engine", "serve", "--trace", str(trace_path), *FAST,
        "--arrivals", "factored",
        "--telemetry-out", str(telemetry_path),
    ]) == 0
    telemetry = GatewayTelemetry.load(telemetry_path)
    assert telemetry.num_ticks > 0
    out = capsys.readouterr().out
    assert "arrivals=factored" in out
    assert "telemetry     : written to" in out


QUERY = {"type": "query-telemetry"}


@pytest.mark.parametrize(
    "trace,field",
    [
        ({"name": "t", "requests": [{"client": "c", "request": QUERY}]},
         "missing field(s) tick"),
        ({"name": "t", "requests": [{"tick": 0, "request": QUERY}]},
         "missing field(s) client"),
        ({"name": "t", "requests": "zz"}, "field 'requests'"),
        ([{"tick": 0, "client": "c", "request": QUERY}],
         "trace must be a JSON object"),
    ],
    ids=["no-tick", "no-client", "requests-not-a-list", "top-level-list"],
)
def test_serve_malformed_trace_exits_2_naming_file_and_field(
    trace, field, tmp_path, capsys
):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(trace))
    assert main(["engine", "serve", "--trace", str(trace_path), *FAST]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert str(trace_path) in err
    assert field in err


def test_serve_stop_resume_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    LoadGenerator(18, seed=3, rate=2.0).trace("open").save(trace_path)
    full_out = tmp_path / "full.json"
    assert main([
        "engine", "serve", "--trace", str(trace_path), *FAST,
        "--telemetry-out", str(full_out),
    ]) == 0
    capsys.readouterr()

    bundle = tmp_path / "bundle"
    resumed_out = tmp_path / "resumed.json"
    assert main([
        "engine", "serve", "--trace", str(trace_path), *FAST,
        "--stop-after", "5", "--checkpoint-path", str(bundle),
    ]) == 0
    assert "stopped       : after 5 ticks" in capsys.readouterr().out

    assert main([
        "engine", "serve", "--resume", str(bundle),
        "--telemetry-out", str(resumed_out),
    ]) == 0
    assert "resume        :" in capsys.readouterr().out
    assert json.loads(resumed_out.read_text()) == json.loads(
        full_out.read_text()
    )


def test_serve_gateways_flag_is_gone(capsys):
    # One admission queue: the removed partition flag is refused like
    # --shards, not silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["engine", "serve", "--canned", "flash-crowd", *FAST,
              "--gateways", "2"])
    assert exc.value.code == 2
    assert "--gateways" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stopped_serve_bundle(tmp_path_factory):
    """An ``engine serve --stop-after 5`` bundle, mid-replay."""
    bundle = tmp_path_factory.mktemp("stopped") / "bundle"
    assert main([
        "engine", "serve", "--canned", "flash-crowd", *FAST,
        "--stop-after", "5", "--checkpoint-path", str(bundle),
    ]) == 0
    return bundle


def _drop(key):
    return lambda state: state.pop(key)


def _set(path, value):
    def mutate(state):
        *parents, last = path
        for key in parents:
            state = state[key]
        state[last] = value
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _drop("telemetry"),
        _drop("config"),
        _set(["queue"], 5),
        _set(["telemetry", "version"], 99),
        _set(["replay", "trace"], 3),
        _set(["telemetry", "serve", "reads"], [0]),
    ],
    ids=["no-telemetry", "no-config", "queue-not-a-list",
         "telemetry-version", "trace-not-an-object", "misaligned-series"],
)
def test_serve_resume_of_corrupt_gateway_state_exits_2_with_one_line(
    stopped_serve_bundle, mutate, tmp_path, capsys
):
    bundle = tmp_path / "bundle"
    shutil.copytree(stopped_serve_bundle, bundle)
    manifest_path = bundle / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest["extras"]["serve_gateway"])
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["engine", "serve", "--resume", str(bundle)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert str(bundle) in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--mode", "open", "--rate", "nan"], "rate must be finite"),
        (["--mode", "open", "--rate", "inf"], "rate must be finite"),
        (["--mix", "inf", "1", "1", "1"], "mix weight 'submit' must be finite"),
        (["--mix", "nan", "1", "1", "1"], "mix weight 'submit' must be finite"),
    ],
    ids=["rate-nan", "rate-inf", "mix-inf", "mix-nan"],
)
def test_loadtest_non_finite_input_exits_2_with_one_line(flags, field, capsys):
    assert main(["engine", "loadtest", *FAST, *flags]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert field in err


def test_serve_resume_of_non_gateway_bundle_exits_2(tmp_path, capsys):
    assert main([
        "engine", "serve", "--resume", str(tmp_path / "nothing"),
    ]) == 2
    assert "no checkpoint bundle" in capsys.readouterr().err


def test_loadtest_closed_mode(capsys):
    assert main([
        "engine", "loadtest", *FAST, "--clients", "3", "--requests", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "loadtest      : mode=closed" in out
    assert "requests/sec" in out
    assert "latency" in out


def test_loadtest_accepts_factored_arrivals(capsys):
    assert main([
        "engine", "loadtest", *FAST, "--clients", "3", "--requests", "5",
        "--arrivals", "factored",
    ]) == 0
    out = capsys.readouterr().out
    assert "arrivals=factored" in out
    assert "requests/sec" in out


def test_loadtest_open_mode_writes_a_replayable_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "engine", "loadtest", *FAST, "--mode", "open", "--rate", "2",
        "--trace-out", str(trace_path),
    ]) == 0
    assert "mode=open" in capsys.readouterr().out
    assert main(["engine", "serve", "--trace", str(trace_path), *FAST]) == 0


def test_loadtest_flag_validation_exits_2(capsys):
    assert main(["engine", "loadtest", *FAST, "--max-queue", "-1"]) == 2
    assert main(["engine", "loadtest", *FAST, "--clients", "0"]) == 2
    assert main([
        "engine", "loadtest", *FAST, "--mix", "0", "0", "0", "0",
    ]) == 2
    assert "positive" in capsys.readouterr().err
