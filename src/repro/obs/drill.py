"""The kill -9 recovery drill: one deterministic served run, killable anywhere.

The drill is the executable proof behind the event log's recovery
contract (:mod:`repro.obs.recovery`).  A child process runs a pinned
served workload — flash-crowd scenario traffic plus a ``LoadGenerator``
client mix — with an event log wired in, checkpointing every few ticks
and printing a ``CHECKPOINT`` marker after each durable save.  A parent
(``tests/obs/test_recovery.py`` or ``scripts/obs_recovery_smoke.py``)
waits for a marker, sends ``SIGKILL`` at an arbitrary later moment, then:

1. recovers: :func:`~repro.obs.recovery.recover_serve_run` over the
   surviving bundle + log;
2. rebuilds the baseline: a *fresh* gateway replaying the full
   log-reconstructed trace from scratch (:func:`scratch_baseline`);
3. asserts the two deterministic telemetry dicts are bit-identical.

Comparing against a replay of the *log's own* trace (rather than the
original schedule) is what makes the check sound under any kill point:
requests that never reached the durable log are absent from both sides,
by construction.

Run the child directly with ``python -m repro.obs.drill <workdir>``.

Everything here is pinned — seeds, stream means, client mix — so the
drill is reproducible; the only nondeterminism is *where* the kill
lands, which is exactly what the contract must survive.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.engine import MarketplaceEngine, generate_workload
from repro.market.acceptance import paper_acceptance_model
from repro.obs.eventlog import EventLog
from repro.obs.recovery import reconstruct_trace
from repro.sim.stream import SharedArrivalStream

__all__ = [
    "DRILL_TICKS",
    "DRILL_SEED",
    "build_drill_gateway",
    "drill_trace",
    "drill_start_kwargs",
    "run_drill_child",
    "scratch_baseline",
]

#: Drill horizon in engine ticks.  Long enough that a parent can land a
#: kill between the first checkpoint and the finish line.
DRILL_TICKS = 36

#: One seed pins the scenario, the client mix, and the engine stream.
DRILL_SEED = 23

#: Campaigns admissible at once — roomy enough that the base workload
#: keeps the engine live for the whole horizon, tight enough that the
#: flash crowd still sees admission backpressure.
MAX_LIVE = 10

#: Default bundle/log filenames inside a drill working directory.
BUNDLE_NAME = "checkpoint.bundle"
LOG_NAME = "events.sqlite"


def _make_stream() -> SharedArrivalStream:
    means = 600.0 + 150.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, DRILL_TICKS))
    return SharedArrivalStream(means)


def build_drill_gateway(event_log=None, *, metrics=None):
    """A fresh, unstarted gateway over the drill's pinned engine config.

    Both sides of the drill use this — the child (with an event log) and
    the scratch baseline (without) — so the only difference between the
    recovered run and the baseline is the kill itself.
    """
    from repro.serve import Gateway

    engine = MarketplaceEngine(
        _make_stream(), paper_acceptance_model(), planning="stationary"
    )
    return Gateway(
        engine,
        max_live=MAX_LIVE,
        event_log=event_log,
        metrics=metrics,
    )


def drill_trace():
    """The drill's request schedule: base workload + flash crowd + clients.

    The tick-0 base submissions span the whole horizon, keeping the
    engine live end to end — an engine that idles mid-run would trigger
    replay's early-delivery wake-up, which is fine for determinism but
    muddies what tick a logged request "belongs" to.
    """
    from repro.scenario import canned_scenario
    from repro.serve import ClientMix, LoadGenerator, RequestTrace, SubmitCampaign
    from repro.serve.requests import TimedRequest

    base = RequestTrace(
        name="base",
        requests=tuple(
            TimedRequest(0, "seed", SubmitCampaign(spec))
            for spec in generate_workload(4, DRILL_TICKS, seed=DRILL_SEED)
        ),
    )
    scenario = canned_scenario("flash-crowd", DRILL_TICKS, seed=DRILL_SEED)
    clients = LoadGenerator(
        DRILL_TICKS,
        seed=DRILL_SEED,
        clients=3,
        rate=1.5,
        mix=ClientMix(submit=0.4, quote=0.3, cancel=0.15, query=0.15),
    ).trace("open")
    return (
        base.merge(RequestTrace.from_scenario(scenario, DRILL_TICKS))
        .merge(clients, name="obs-recovery-drill")
    )


def drill_start_kwargs() -> dict:
    """Keyword arguments for ``Gateway.start`` — shared by child and baseline."""
    from repro.scenario import canned_scenario

    scenario = canned_scenario("flash-crowd", DRILL_TICKS, seed=DRILL_SEED)
    return {
        "seed": DRILL_SEED,
        "rate_multipliers": scenario.compile(DRILL_TICKS).rate_multipliers,
    }


def run_drill_child(
    workdir: str | pathlib.Path,
    *,
    checkpoint_every: int = 5,
    tick_sleep: float = 0.0,
    out=None,
) -> dict:
    """The killable side of the drill: run, log, checkpoint, narrate.

    Replays :func:`drill_trace` through a logged gateway, saving a bundle
    every ``checkpoint_every`` ticks and printing ``CHECKPOINT <tick>``
    (flushed) after each durable save so a parent process knows when a
    kill is safe to land.  ``tick_sleep`` stretches wall-clock per tick —
    purely observational, it widens the kill window without touching any
    deterministic state.  Returns the final telemetry dict (also written
    to ``final_telemetry.json``) when allowed to finish.
    """
    from repro.serve import SubmitCampaign

    out = out if out is not None else sys.stdout
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    bundle = workdir / BUNDLE_NAME
    log = EventLog(workdir / LOG_NAME)
    gateway = build_drill_gateway(log)
    gateway.start(**drill_start_kwargs())

    # Open-mode drive: offer each request at its scheduled tick, then
    # step.  Deliberately NOT gateway.replay() — a bundle saved inside a
    # replay carries the trace cursor, and recovery must reconstruct the
    # request stream from the event log alone (that is the contract
    # under test).  Delivery semantics mirror the replay loop, so the
    # scratch baseline (which does use replay) sees identical batches.
    requests = drill_trace().requests
    i = 0
    while True:
        core = gateway.core
        assert core is not None
        while i < len(requests) and requests[i].tick <= core.clock:
            timed = requests[i]
            i += 1
            gateway.offer(timed.request, client=timed.client)
        if core.done and gateway.queue.depth == 0:
            if i >= len(requests):
                break
            # Idle mid-schedule: deliver through the next submission to
            # wake the clock (same wake-up rule as the replay loop).
            j = i
            while j < len(requests) and not isinstance(
                requests[j].request, SubmitCampaign
            ):
                j += 1
            stop = min(j + 1, len(requests))
            while i < stop:
                timed = requests[i]
                i += 1
                gateway.offer(timed.request, client=timed.client)
            continue
        report = gateway.step()
        if report is None:
            continue
        if tick_sleep:
            time.sleep(tick_sleep)
        if core.clock % checkpoint_every == 0:
            gateway.save(bundle)
            print(f"CHECKPOINT {core.clock}", file=out, flush=True)
    telemetry = gateway.telemetry.to_dict()
    gateway.telemetry.save(workdir / "final_telemetry.json")
    gateway.close()
    print("DONE", file=out, flush=True)
    return telemetry


def scratch_baseline(log_path: str | pathlib.Path) -> dict:
    """An uninterrupted run over the log's own trace, from scratch.

    Rebuilds the full request trace from the durable log and replays it
    through a fresh drill gateway — no checkpoint, no resume, no event
    log.  The returned telemetry dict is the ground truth a recovered
    run must match bit for bit.
    """
    trace = reconstruct_trace(log_path, name="scratch-baseline")
    gateway = build_drill_gateway()
    gateway.start(**drill_start_kwargs())
    gateway.replay(trace)
    telemetry = gateway.telemetry.to_dict()
    gateway.close()
    return telemetry


def main(argv=None) -> int:
    """CLI entry point for the drill child (``python -m repro.obs.drill``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.drill",
        description="Run the killable child side of the kill -9 recovery drill.",
    )
    parser.add_argument("workdir", help="directory for the event log and bundles")
    parser.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="N",
        help="save a bundle every N ticks (default: 5)",
    )
    parser.add_argument(
        "--tick-sleep", type=float, default=0.0, metavar="SECONDS",
        help="wall-clock pause per tick, to widen the kill window",
    )
    args = parser.parse_args(argv)
    run_drill_child(
        args.workdir,
        checkpoint_every=args.checkpoint_every,
        tick_sleep=args.tick_sleep,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(main())
