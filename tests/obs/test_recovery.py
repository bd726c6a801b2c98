"""The recovery contract: bundle + event log reproduce a killed run."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.obs import EventLog
from repro.obs.drill import (
    BUNDLE_NAME,
    LOG_NAME,
    build_drill_gateway,
    drill_start_kwargs,
    drill_trace,
    run_drill_child,
    scratch_baseline,
)
from repro.obs.recovery import (
    bundle_event_seq,
    checkpoint_records,
    reconstruct_trace,
    recover_serve_run,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def finished_drill(tmp_path_factory):
    """One uninterrupted drill run shared by the cheap assertions."""
    workdir = tmp_path_factory.mktemp("drill")
    telemetry = run_drill_child(workdir, checkpoint_every=5)
    return workdir, telemetry


class TestDrillRun:
    def test_child_writes_final_telemetry(self, finished_drill):
        workdir, telemetry = finished_drill
        on_disk = json.loads((workdir / "final_telemetry.json").read_text())
        assert on_disk == telemetry
        assert "serve" in telemetry and "engine" in telemetry

    def test_log_records_every_offer(self, finished_drill):
        workdir, _ = finished_drill
        reader = EventLog.read(workdir / LOG_NAME)
        num_requests = reader.count("request")
        trace = reconstruct_trace(workdir / LOG_NAME)
        assert trace.num_requests == num_requests > 0
        ticks = [timed.tick for timed in trace.requests]
        assert ticks == sorted(ticks)

    def test_scratch_baseline_matches_uninterrupted_run(self, finished_drill):
        workdir, telemetry = finished_drill
        assert scratch_baseline(workdir / LOG_NAME) == telemetry

    def test_recovery_from_final_bundle_matches(self, finished_drill):
        workdir, telemetry = finished_drill
        gateway = recover_serve_run(workdir / BUNDLE_NAME, workdir / LOG_NAME)
        try:
            assert gateway.telemetry.to_dict() == telemetry
        finally:
            gateway.close()

    def test_checkpoint_records_are_ordered(self, finished_drill):
        workdir, _ = finished_drill
        records = checkpoint_records(workdir / LOG_NAME)
        assert records, "drill saved no checkpoints"
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        for record in records:
            assert record["path"] == str(workdir / BUNDLE_NAME)
            assert record["tick"] % 5 == 0
            assert record["last_seq"] <= record["seq"]
        # The bundle on disk is the newest checkpoint.
        assert bundle_event_seq(workdir / BUNDLE_NAME) == records[-1]["last_seq"]

    def test_tail_reconstruction_skips_bundled_requests(self, finished_drill):
        workdir, _ = finished_drill
        full = reconstruct_trace(workdir / LOG_NAME)
        last_seq = bundle_event_seq(workdir / BUNDLE_NAME)
        tail = reconstruct_trace(workdir / LOG_NAME, since_seq=last_seq)
        assert tail.num_requests < full.num_requests


class TestRecoveryGuards:
    def test_bundle_without_log_has_no_seq(self, tmp_path):
        gateway = build_drill_gateway()
        gateway.start(**drill_start_kwargs())
        for timed in drill_trace().requests[:4]:
            gateway.offer(timed.request, client=timed.client)
        gateway.step()
        bundle = gateway.save(tmp_path / BUNDLE_NAME)
        gateway.close()
        assert bundle_event_seq(bundle) is None

    def test_mid_replay_bundle_rejected(self, tmp_path):
        log = EventLog(tmp_path / LOG_NAME)
        gateway = build_drill_gateway(log)
        gateway.start(**drill_start_kwargs())
        bundle = tmp_path / BUNDLE_NAME

        def stop_and_save(gw):
            if gw.core.clock >= 6:
                gw.save(bundle)
                return False
            return None

        gateway.replay(drill_trace(), on_tick=stop_and_save)
        gateway.close()
        with pytest.raises(ValueError, match="interrupted trace replay"):
            recover_serve_run(bundle, tmp_path / LOG_NAME)

    def test_missing_log_raises(self, finished_drill, tmp_path):
        workdir, _ = finished_drill
        with pytest.raises(FileNotFoundError):
            recover_serve_run(workdir / BUNDLE_NAME, tmp_path / "nope.sqlite")


class TestTenantTaggedRecovery:
    def test_offer_driven_bundle_and_log_recover_bit_identically(self, tmp_path):
        """A stopped tenant-tagged run recovers from its bundle + log tail."""
        from repro.serve import Gateway, RequestTrace

        def gateway(event_log=None) -> Gateway:
            pinned = build_drill_gateway()  # the drill's engine and budget
            return Gateway(
                pinned.engine, max_live=pinned.max_live, event_log=event_log,
            )

        base = drill_trace()
        trace = RequestTrace(base.name, tuple(
            dataclasses.replace(timed, tenant=("acme", "beta", "gamma")[i % 3])
            for i, timed in enumerate(base.requests)
        ))
        log_path = tmp_path / LOG_NAME
        log = EventLog(log_path)
        killed = gateway(log)
        killed.start(**drill_start_kwargs())
        bundle = tmp_path / BUNDLE_NAME
        requests = trace.requests
        delivered = 0
        # Offer-driven (open mode), so the bundle carries no trace cursor:
        # save at tick 8, then keep serving until the "kill" at tick 14.
        while killed.clock < 14:
            while (
                delivered < len(requests)
                and requests[delivered].tick <= killed.clock
            ):
                timed = requests[delivered]
                delivered += 1
                killed.offer(
                    timed.request, client=timed.client, tenant=timed.tenant
                )
            assert killed.step() is not None
            if killed.clock == 8:
                killed.save(bundle)
        log.close()
        assert bundle_event_seq(bundle) < EventLog.read(log_path).last_seq

        recovered = recover_serve_run(bundle, log_path)
        baseline = gateway()
        baseline.start(**drill_start_kwargs())
        baseline.replay(reconstruct_trace(log_path))
        assert recovered.telemetry.to_dict() == baseline.telemetry.to_dict()
        recovered.close()
        baseline.close()


class TestKillMinusNine:
    """The real drill: SIGKILL a live child, recover, compare bit for bit."""

    TICK_SLEEP = 0.02

    def test_sigkill_recovery_is_bit_identical(self, tmp_path):
        workdir = tmp_path / "drill"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.obs.drill", str(workdir),
                "--tick-sleep", str(self.TICK_SLEEP),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # Wait for a durable checkpoint, then land the kill at an
            # arbitrary later moment (mid-tick, mid-batch — anywhere).
            for line in child.stdout:
                if line.startswith("CHECKPOINT"):
                    break
                assert not line.startswith("DONE"), (
                    "drill finished before the kill landed; raise TICK_SLEEP"
                )
            else:
                pytest.fail("drill exited without printing a checkpoint")
            time.sleep(3 * self.TICK_SLEEP)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            child.stdout.close()
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        bundle = workdir / BUNDLE_NAME
        log_path = workdir / LOG_NAME
        assert bundle.exists() and log_path.exists()
        gateway = recover_serve_run(bundle, log_path)
        try:
            recovered = gateway.telemetry.to_dict()
        finally:
            gateway.close()
        assert recovered == scratch_baseline(log_path)
