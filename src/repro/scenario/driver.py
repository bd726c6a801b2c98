"""The scenario driver: step any engine through a declarative timeline.

:class:`ScenarioDriver` is the conductor between a compiled
:class:`~repro.scenario.spec.Scenario` and a live
:class:`~repro.engine.clock.EngineBase` session.  Each :meth:`step`:

1. pushes submission waves whose tick has arrived through the engine's
   ordinary ``submit()`` path (and *wakes* an otherwise-done clock by
   queueing the next future wave early — queueing consumes no randomness,
   so the run is bit-identical either way);
2. applies the tick's cancellations (live targets retire with partial
   utility; pending targets are dropped; already-retired targets are
   deterministic no-ops; never-seen ids fail loudly as spec typos);
3. advances the engine clock one interval through the shared
   :meth:`~repro.engine.clock.EngineCore.tick` API;
4. records the tick into a :class:`~repro.engine.telemetry.Telemetry`
   collector.

Rate modulation needs no per-tick driving: the compiled timeline's
multiplier array is installed on the session once at :meth:`start` (and
travels inside checkpoint bundles).

The driver is engine-agnostic — pooled :class:`MarketplaceEngine` or
:class:`ShardedEngine` at any shard count — and checkpointable:
:meth:`save` snapshots the engine session *plus* the scenario cursor and
telemetry into one bundle, and :meth:`resume` reopens it mid-scenario,
bit-identical to never having stopped.
"""

from __future__ import annotations

import pathlib

from repro.engine.campaign import CampaignOutcome
from repro.engine.checkpoint import (
    CheckpointError,
    load_extras,
    restore_engine,
    save_checkpoint,
)
from repro.engine.clock import EngineBase, EngineCore, EngineResult, TickReport
from repro.engine.telemetry import Telemetry
from repro.scenario.spec import Scenario

__all__ = ["ScenarioDriver", "apply_cancellation"]

#: Key the driver's state lives under in a checkpoint bundle's extras.
_EXTRAS_KEY = "scenario_driver"


def apply_cancellation(
    engine: EngineBase, campaign_id: str, context: str = ""
) -> tuple[str, CampaignOutcome | None]:
    """Cancel one campaign with mid-run tolerance; returns ``(status, outcome)``.

    The shared cancellation semantics of every layer that drives a live
    session — the scenario driver's timeline events and the serving
    gateway's ``Cancel`` requests — so the two cannot drift:

    * a *live* target retires with partial utility →
      ``("cancelled", outcome)``;
    * a *pending* target is dropped from the queue → ``("dropped", None)``;
    * a target that already retired naturally is a legitimate,
      deterministic no-op → ``("retired", None)``;
    * an id the engine has never seen raises :class:`ValueError` — almost
      certainly a typo, and silently dropping it would hide the bug.
      ``context`` (e.g. ``"at tick 12"``) is woven into that message so
      callers can say which event fired.

    Requires an active engine session (start one first); cancellation
    consumes no randomness.
    """
    core = engine.core
    if core is None:
        raise RuntimeError(
            "no active engine session: start one before cancelling"
        )
    try:
        outcome = engine.cancel(campaign_id)
    except KeyError:
        if core.sink.has_retired(campaign_id):
            return ("retired", None)
        if not core.sink.keep:
            # Streaming mode deliberately forgets the retired set, so an
            # already-retired target is indistinguishable from a typo;
            # treat it as the deterministic no-op — raising here would
            # make streaming runs diverge from materialized ones.
            return ("retired", None)
        where = f" {context}" if context else ""
        raise ValueError(
            f"cancellation of unknown campaign {campaign_id!r}{where}: no "
            "live, pending, or retired campaign has this id (typo, or the "
            "cancellation fires before the campaign's submission?)"
        ) from None
    if outcome is not None:
        return ("cancelled", outcome)
    return ("dropped", None)


class ScenarioDriver:
    """Steps one engine session through one scenario's timeline.

    Parameters
    ----------
    engine:
        Any engine front-end (:class:`MarketplaceEngine` or
        :class:`ShardedEngine`).  Submit a base workload *before*
        :meth:`start` if the scenario should run on top of static
        traffic; churn waves arrive on top through the timeline.
    scenario:
        The declarative timeline; compiled against the engine stream's
        horizon at construction.
    telemetry:
        The collector to append to; a fresh one by default (a restored
        one when resuming).
    event_log:
        Optional durable :class:`~repro.obs.eventlog.EventLog`.  When
        wired, the driver appends admission batches, applied
        cancellations, and a per-tick summary row — buffered off the
        tick path, flushed once per tick boundary.  Purely
        observational: the log never feeds back into the run.
    keep_outcomes:
        Passed to :meth:`~repro.engine.clock.EngineBase.start`; ``False``
        runs the session in streaming mode (no materialized outcome
        list — memory stays O(live) however long the scenario runs).
    outcomes_path:
        Optional JSONL spill for every retirement (full-fidelity replay
        of a streaming run); also passed through to ``start``.
    """

    def __init__(
        self,
        engine: EngineBase,
        scenario: Scenario,
        telemetry: Telemetry | None = None,
        event_log=None,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ):
        self.engine = engine
        self.scenario = scenario
        self.timeline = scenario.compile(engine.stream.num_intervals)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.event_log = event_log
        self.keep_outcomes = keep_outcomes
        self.outcomes_path = outcomes_path
        self._next_wave = 0
        self._started = False
        self._admission_seen = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def core(self) -> EngineCore | None:
        """The engine's active session, or ``None`` outside one."""
        return self.engine.core

    @property
    def started(self) -> bool:
        """True once :meth:`start` (or :meth:`resume`) opened the session."""
        return self._started

    @property
    def done(self) -> bool:
        """True once the engine is drained and no future waves remain."""
        if not self._started:
            return False
        core = self.engine.core
        if core is None:
            return True
        return core.done and self._next_wave >= len(self.timeline.submissions)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self) -> EngineCore:
        """Open the serving session (scenario seed) and install modulation."""
        if self._started:
            raise RuntimeError("the scenario driver has already started")
        core = self.engine.start(
            seed=self.scenario.seed,
            keep_outcomes=self.keep_outcomes,
            outcomes_path=self.outcomes_path,
        )
        core.set_rate_multipliers(self.timeline.rate_multipliers)
        # Anchor the telemetry deltas to this session's counters (a no-op
        # for the cleared-at-start cache, but robust to shared caches).
        self.telemetry.sync_baselines(core)
        self._started = True
        if self.event_log is not None:
            self.event_log.log(
                "run",
                core.clock,
                {
                    "action": "start",
                    "seed": self.scenario.seed,
                    "scenario": self.scenario.name,
                },
            )
        return core

    def step(self) -> TickReport | None:
        """Apply the tick's events, advance the clock, record telemetry.

        Returns ``None`` in one edge case: a cancellation at this tick
        emptied the engine and the timeline has no traffic left, so
        there is no tick to run — the scenario is :attr:`done`.
        """
        if not self._started:
            raise RuntimeError("call start() before step()")
        core = self.engine.core
        if core is None:
            raise RuntimeError("the engine session has been closed")
        if self.done:
            raise RuntimeError("the scenario is exhausted")
        t = core.clock
        waves = self.timeline.submissions
        while self._next_wave < len(waves) and waves[self._next_wave][0] <= t:
            self.engine.submit(waves[self._next_wave][1])
            self._next_wave += 1
        if core.done and self._next_wave < len(waves):
            # Nothing live or pending, but the timeline still has traffic:
            # queue the next wave now so the clock idles forward to it.
            # The specs keep their true submit intervals, so admission
            # still happens at the wave tick and the run is bit-identical
            # to submitting on time.
            self.engine.submit(waves[self._next_wave][1])
            self._next_wave += 1
        cancelled: list[CampaignOutcome] = []
        for campaign_id in self.timeline.cancellations.get(t, ()):
            # Shared semantics with the serving gateway: live → partial
            # utility, pending → dropped, already-retired → deterministic
            # no-op, never-seen → loud failure (compile() gives
            # out-of-horizon ticks the same treatment).
            status, outcome = apply_cancellation(
                self.engine, campaign_id, context=f"at tick {t}"
            )
            if status == "cancelled":
                assert outcome is not None
                cancelled.append(outcome)
            if self.event_log is not None:
                self.event_log.log(
                    "cancel", t, {"result": status}, campaign_id=campaign_id
                )
        if core.done:
            # A cancellation just emptied the engine.  With timeline
            # traffic still ahead, queue the next wave so the clock can
            # idle forward to it; with none, the session is over — the
            # clock would refuse to tick, and the cancelled outcomes are
            # already in the session result.
            if self._next_wave < len(waves):
                self.engine.submit(waves[self._next_wave][1])
                self._next_wave += 1
            else:
                if self.event_log is not None:
                    self.event_log.flush()
                return None
        report = core.tick()
        self.telemetry.record_tick(core, report, cancelled=cancelled)
        if self.event_log is not None:
            self._log_tick(core, report)
            # One flush per boundary keeps writer batches tick-aligned
            # without ever blocking the tick path on sqlite.
            self.event_log.flush()
        return report

    def _log_tick(self, core: EngineCore, report: TickReport) -> None:
        """Append this tick's admission batches and summary row."""
        new = core.admissions_since(self._admission_seen)
        self._admission_seen += len(new)
        for interval, campaign_ids in new:
            self.event_log.log(
                "admission", interval, {"campaign_ids": list(campaign_ids)}
            )
        self.event_log.log(
            "tick",
            report.interval,
            {
                "admitted": report.admitted,
                "arrived": report.arrived,
                "considered": report.considered,
                "accepted": report.accepted,
                "retired": len(report.retired),
                "num_live": report.num_live,
                "idle": report.idle,
            },
        )

    def run(self) -> EngineResult:
        """Drive the scenario to exhaustion and return the session result.

        The session's outcome spill file is released, but the session
        stays readable (``driver.core.result()``, telemetry intact).
        """
        if not self._started:
            self.start()
        while not self.done:
            self.step()
        core = self.engine.core
        assert core is not None  # done-with-no-core only after close()
        result = core.result()
        if self.event_log is not None:
            self.event_log.log("run", core.clock, {"action": "done"})
            self.event_log.flush()
        core.close()
        return result

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Snapshot the session + scenario cursor + telemetry to a bundle.

        The bundle is a regular engine checkpoint
        (:func:`~repro.engine.checkpoint.save_checkpoint`) whose extras
        carry the scenario spec, the submission cursor, and the telemetry
        collected so far — everything :meth:`resume` needs.
        """
        if not self._started:
            raise CheckpointError(
                "the scenario driver has not started; nothing to snapshot"
            )
        return save_checkpoint(
            self.engine,
            path,
            extras={
                _EXTRAS_KEY: {
                    "scenario": self.scenario.to_dict(),
                    "next_wave": self._next_wave,
                    "telemetry": self.telemetry.to_dict(),
                }
            },
        )

    @classmethod
    def resume(
        cls, path: str | pathlib.Path, *, event_log=None
    ) -> "ScenarioDriver":
        """Reopen a scenario run from a bundle written by :meth:`save`.

        Restores the engine session (clock position, live campaigns,
        generator states, rate modulation), recompiles the timeline from
        the stored spec, and rewinds nothing: stepping the returned
        driver to exhaustion is bit-identical to never having stopped.
        ``event_log`` re-wires durable event logging for the resumed run
        (logs are observational state and never travel in the bundle).
        """
        engine = restore_engine(path)
        extras = load_extras(path)
        state = (extras or {}).get(_EXTRAS_KEY)
        if state is None:
            raise CheckpointError(
                f"bundle at {path} carries no scenario-driver state "
                "(was it written by ScenarioDriver.save?)"
            )
        driver = cls(
            engine,
            Scenario.from_dict(state["scenario"]),
            telemetry=Telemetry.from_dict(state["telemetry"]),
            event_log=event_log,
        )
        driver._next_wave = int(state["next_wave"])
        driver._started = True
        core = engine.core
        if core is not None:
            # Only mirror admission batches from here on; the restored
            # log (pre-kill) already has the earlier ones.
            driver._admission_seen = core.num_admission_batches
        if event_log is not None and core is not None:
            event_log.log("run", core.clock, {"action": "resume"})
        return driver

    def __repr__(self) -> str:
        return (
            f"ScenarioDriver({self.scenario.name!r}, "
            f"{self.timeline.num_campaigns} timeline campaigns, "
            f"wave {self._next_wave}/{len(self.timeline.submissions)})"
        )
