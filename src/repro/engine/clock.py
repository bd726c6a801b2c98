"""The engine clock: the one tick loop behind the marketplace engine.

:class:`~repro.engine.engine.MarketplaceEngine` advances a discrete clock
over the shared arrival stream: drain newly-due campaign submissions,
gather the live campaigns' posted rewards, split the interval's worker
arrivals, apply completions and adaptive observations, and retire
finished campaigns.  This module owns that loop; the engine supplies
only how one interval's arrivals are realized.

The pieces:

* :class:`EngineCore` — one *serving session* of the clock.  It owns the
  pending-submission queue, the run counters, and the explicit stepping
  API: :meth:`EngineCore.tick` advances one interval and returns a
  :class:`TickReport`; :meth:`EngineCore.run_to_completion` loops it;
  :meth:`EngineCore.result` aggregates the session into an
  :class:`EngineResult` at any point.  New campaigns may be submitted
  *between ticks* (validated against the remaining horizon), which is
  what a long-lived serving deployment needs.
* :class:`ClockBackend` — the strategy interface hiding what differs
  between the arrival models: how live campaigns are stored and how one
  interval's arrivals are realized (one pooled generator splitting
  realized workers, vs. per-campaign factored Poisson draws).  The clock
  itself never branches on the arrival model.
* :class:`EngineBase` — the front-end surface (``submit`` / ``start`` /
  ``tick`` / ``run`` / ``run_to_completion``): submission validation and
  session lifecycle, independent of the arrival model.
* :class:`EngineResult` — the aggregate outcome of one session.

Sessions are *checkpointable*: :mod:`repro.engine.checkpoint` serializes
an :class:`EngineCore` mid-flight (pending specs, live runtime state,
generator states, counters) and restores it bit-identically, so
``snapshot -> restore -> finish`` equals an uninterrupted run.

Stats scoping: a session snapshots the policy-cache and batch-solver
counters when it starts and reports *per-session deltas*, so a second
``run()`` on the same engine describes that run alone instead of leaking
cumulative counters across runs.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Sequence

import numpy as np

from repro.core.batch.solver import BatchSolveStats
from repro.engine.cache import CacheStats
from repro.engine.campaign import (
    CampaignOutcome,
    CampaignSpec,
    validate_submission,
)
from repro.engine.outcomes import OutcomeAggregate, OutcomeSink
from repro.engine.planning import CampaignPlanner, _LiveCampaign
from repro.engine.source import WorkloadSource
from repro.sim.stream import SharedArrivalStream

__all__ = [
    "ClockBackend",
    "EngineBase",
    "EngineCore",
    "EngineResult",
    "PhaseTimings",
    "TickReport",
]


def _submission_key(spec: CampaignSpec) -> tuple[int, str]:
    """Admission order: by submit interval, ties broken by campaign id."""
    return (spec.submit_interval, spec.campaign_id)


@dataclasses.dataclass(frozen=True)
class EngineResult:
    """Aggregate outcome of one engine serving session.

    Attributes
    ----------
    outcomes:
        Per-campaign accounting, in retirement order.  Empty when the
        session ran with ``keep_outcomes=False`` (streaming mode) — the
        aggregates below remain exact, and full-fidelity records live in
        the session's spill file when one was configured.
    intervals_run:
        Engine-clock intervals actually simulated.
    total_arrivals:
        Marketplace worker arrivals while any campaign was live.
    total_considered:
        Worker looks routed to campaigns.
    total_accepted:
        Workers who accepted a task (completions before capping at the
        campaigns' open-task counts).
    max_concurrent:
        Peak number of simultaneously live campaigns.
    cache_stats:
        Policy-cache counters *for this session* (deltas against the
        session-start snapshot, so reruns don't report cumulative stats).
    elapsed_seconds:
        Wall-clock spent inside the session's ticks (time the clock sat
        idle between explicit ``tick()`` calls is not counted).
    batch_stats:
        Batch-solver counters for this session (``None`` only on results
        built by hand).
    aggregate:
        The session's incrementally folded :class:`OutcomeAggregate` —
        what every aggregate property reads from in O(1) instead of
        re-scanning ``outcomes`` per access.  ``None`` only on results
        built by hand from an outcome list (legacy construction), in
        which case the first aggregate read folds the list once and
        caches the result.
    """

    outcomes: tuple[CampaignOutcome, ...]
    intervals_run: int
    total_arrivals: int
    total_considered: int
    total_accepted: int
    max_concurrent: int
    cache_stats: CacheStats
    elapsed_seconds: float
    batch_stats: BatchSolveStats | None = None
    aggregate: OutcomeAggregate | None = None

    def _agg(self) -> OutcomeAggregate:
        """The backing aggregate, folding ``outcomes`` once if needed."""
        if self.aggregate is None:
            object.__setattr__(
                self, "aggregate", OutcomeAggregate.from_outcomes(self.outcomes)
            )
        return self.aggregate

    @property
    def num_campaigns(self) -> int:
        """Campaigns retired over the run."""
        return self._agg().num_campaigns

    @property
    def total_completed(self) -> int:
        """Tasks finished across all campaigns."""
        return self._agg().total_completed

    @property
    def total_remaining(self) -> int:
        """Tasks left unfinished across all campaigns."""
        return self._agg().total_remaining

    @property
    def total_cost(self) -> float:
        """Rewards paid across all campaigns, in cents."""
        return self._agg().total_cost

    @property
    def total_penalty(self) -> float:
        """Terminal penalties across all campaigns, in cents."""
        return self._agg().total_penalty

    @property
    def completion_rate(self) -> float:
        """Fraction of all submitted tasks that finished."""
        return self._agg().completion_rate

    @property
    def checksum(self) -> str:
        """Chained SHA-256 over the retirement stream (run fingerprint)."""
        return self._agg().checksum

    @property
    def campaigns_per_second(self) -> float:
        """Engine throughput: retired campaigns per wall-clock second.

        Returns 0.0 when no wall-clock elapsed (a sub-resolution or empty
        run) — never ``inf``, which ``json.dumps`` would emit as the
        non-standard token ``Infinity`` and corrupt recorded benchmarks.
        """
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.num_campaigns / self.elapsed_seconds

    def summary(self) -> str:
        """Human-readable run report (what ``repro engine run`` prints)."""
        agg = self._agg()
        deadline = agg.num_deadline
        budget = agg.num_budget
        adaptive = agg.num_adaptive
        cancelled = agg.num_cancelled
        solves = agg.total_solves
        s = self.cache_stats
        lines = [
            f"campaigns     : {self.num_campaigns} "
            f"({deadline} deadline / {budget} budget; {adaptive} adaptive"
            + (f"; {cancelled} cancelled" if cancelled else "")
            + f"), peak {self.max_concurrent} concurrent",
            f"intervals     : {self.intervals_run} ticks of the shared stream; "
            f"{self.total_arrivals:,} worker arrivals, "
            f"{self.total_accepted:,} acceptances",
            f"tasks         : {self.total_completed:,} completed / "
            f"{self.total_remaining:,} unfinished "
            f"({100.0 * self.completion_rate:.1f}% completion)",
            f"spend         : {self.total_cost / 100.0:,.2f}$ rewards + "
            f"{self.total_penalty / 100.0:,.2f}$ penalties",
            f"policy cache  : {s.hits} hits / {s.misses} misses "
            f"(hit rate {100.0 * s.hit_rate:.1f}%), {s.entries} entries, "
            f"{solves} solves total",
        ]
        if self.batch_stats is not None and self.batch_stats.batches:
            b = self.batch_stats
            lines.append(
                f"batch solver  : {b.instances} instances in {b.batches} "
                f"array passes (widest {b.largest_batch}, "
                f"mean {b.mean_batch_size:.1f}/pass)"
            )
        lines.append(
            f"throughput    : {self.num_campaigns} campaigns in "
            f"{self.elapsed_seconds:.2f}s "
            f"({self.campaigns_per_second:,.1f} campaigns/sec)"
        )
        return "\n".join(lines)


class PhaseTimings:
    """Wall-clock seconds per tick phase, accumulated across ticks.

    The tick loop has five phases worth timing separately: the admission
    drain (due submissions through the planner into the backend), the
    backend's price gathering, its arrival split (including completion
    application), its adaptive observe pass, and retirement.  The core
    times ``admission`` and ``retire`` itself; the backend records
    ``price`` / ``split`` / ``observe`` through the :attr:`ClockBackend.phases`
    handle :meth:`EngineCore.enable_phase_timings` installs (a backend
    that never touches ``phases`` simply leaves those at zero).

    Purely observational wall-clock, like ``elapsed_seconds``: never
    serialized into checkpoints or deterministic telemetry.  When a
    metrics registry is given, each recording also feeds a
    ``engine_tick_phase_seconds`` histogram labelled by phase.
    """

    PHASES = ("admission", "price", "split", "observe", "retire")

    def __init__(self, metrics=None) -> None:
        self.totals = {phase: 0.0 for phase in self.PHASES}
        self.last = {phase: 0.0 for phase in self.PHASES}
        self.ticks = 0
        if metrics is not None:
            self._histograms = {
                phase: metrics.histogram(
                    "engine_tick_phase_seconds",
                    "Wall-clock seconds spent per tick phase",
                    labels={"phase": phase},
                )
                for phase in self.PHASES
            }
        else:
            self._histograms = None

    def record(self, phase: str, seconds: float) -> None:
        """Add ``seconds`` to ``phase`` for the tick in progress."""
        if phase not in self.totals:
            raise ValueError(
                f"unknown phase {phase!r}; expected one of {self.PHASES}"
            )
        self.totals[phase] += seconds
        self.last[phase] += seconds
        if self._histograms is not None:
            self._histograms[phase].observe(seconds)

    def tick_done(self) -> dict:
        """Close the tick in progress; returns its per-phase seconds."""
        self.ticks += 1
        finished = dict(self.last)
        self.last = {phase: 0.0 for phase in self.PHASES}
        return finished

    def mean_seconds(self) -> dict:
        """Mean seconds per phase per tick (zeros before any tick)."""
        if not self.ticks:
            return {phase: 0.0 for phase in self.PHASES}
        return {phase: total / self.ticks for phase, total in self.totals.items()}

    def to_dict(self) -> dict:
        """JSON-ready summary: tick count, per-phase totals and means."""
        return {
            "ticks": self.ticks,
            "totals": dict(self.totals),
            "mean": self.mean_seconds(),
        }

    def summary(self) -> str:
        """One line per phase: total and mean milliseconds."""
        mean = self.mean_seconds()
        lines = [f"tick phases   : {self.ticks} ticks timed"]
        for phase in self.PHASES:
            lines.append(
                f"  {phase:<9}: {1e3 * self.totals[phase]:9.2f}ms total, "
                f"{1e3 * mean[phase]:7.3f}ms/tick"
            )
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class TickReport:
    """What one :meth:`EngineCore.tick` call did.

    Attributes
    ----------
    interval:
        The engine-clock interval that was just processed.
    admitted:
        Campaigns that went live at this tick.
    arrived:
        Realized marketplace worker arrivals this interval (0 when idle).
    considered:
        Worker looks routed to live campaigns this interval.
    accepted:
        Workers who accepted a task this interval (before capping at the
        campaigns' open-task counts).
    retired:
        Campaigns that finished or hit their horizon this tick.
    num_live:
        Campaigns still live *after* this tick's retirements.
    idle:
        True when no campaign was live this interval (the marketplace
        idled until the next submission; no randomness was consumed).
    """

    interval: int
    admitted: int
    arrived: int
    considered: int
    accepted: int
    retired: tuple[CampaignOutcome, ...]
    num_live: int
    idle: bool


class ClockBackend(abc.ABC):
    """Per-tick campaign mechanics behind the shared clock.

    A backend owns the live-campaign storage and the arrival realization
    for one arrival model; :class:`EngineCore` drives it through four
    calls per tick (place / num_live / step / retire) and never needs to
    know whether arrivals are pooled or factored.
    """

    #: Optional :class:`PhaseTimings` sink; when set (by
    #: :meth:`EngineCore.enable_phase_timings`) the backend's ``step``
    #: records its ``price`` / ``split`` / ``observe`` sub-phases into it.
    phases: "PhaseTimings | None" = None

    @abc.abstractmethod
    def place(self, admitted: Sequence[_LiveCampaign]) -> None:
        """Take ownership of newly admitted live campaigns."""

    @abc.abstractmethod
    def num_live(self) -> int:
        """Number of currently live campaigns."""

    @abc.abstractmethod
    def step(self, t: int, rate_factor: float = 1.0) -> tuple[int, int, int]:
        """Realize interval ``t``: price, split arrivals, apply completions.

        ``rate_factor`` modulates the interval's arrival rate (scenario
        demand shocks and day/night schedules); backends must apply it to
        the *rate* before drawing, never to realized counts, so the
        modulated process stays Poisson and remains splittable across
        campaigns.  Feeds adaptive campaigns their observation of the
        realized marketplace arrivals, then returns the tick's
        ``(arrived, considered, accepted)`` totals.
        """

    @abc.abstractmethod
    def retire(self, t: int) -> list[CampaignOutcome]:
        """Drop campaigns that finished or expired at ``t``; return outcomes."""

    @abc.abstractmethod
    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        """Retire one live campaign early, releasing its runtime state.

        Returns the campaign's partial-utility outcome (``cancelled=True``,
        no terminal penalty) or ``None`` when no such campaign is live.
        Cancellation consumes no randomness, so the surviving campaigns'
        draws are unaffected — on the factored backend the cancelled
        campaign's private generator simply stops being used.
        """

    @abc.abstractmethod
    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        """Per-live-campaign ``(campaign_id, remaining, num_solves, adaptive)``.

        Sorted by campaign id so the listing is independent of storage
        order; telemetry builds its per-tick series from this.
        """

    # ------------------------------------------------------------------
    # Checkpoint surface (optional)
    # ------------------------------------------------------------------
    def export_live(self) -> tuple[list[tuple[_LiveCampaign, dict | None]], dict]:
        """Snapshot live-campaign state for checkpointing.

        Returns ``(entries, rng_state)``: ``entries`` is every live
        campaign paired with its serialized private generator state
        (``None`` for backends whose campaigns share one pooled
        generator), in the backend's canonical storage order;
        ``rng_state`` is the backend's own generator state.  Backends
        that don't implement this pair are simply not checkpointable.
        """
        raise NotImplementedError(
            f"backend {type(self).__name__} does not support checkpointing"
        )

    def restore_live(
        self,
        placed: list[tuple[_LiveCampaign, dict | None]],
        rng_state: dict,
    ) -> None:
        """Re-install live campaigns and generator state from a snapshot.

        The inverse of :meth:`export_live`: ``placed`` preserves the
        exported order, and each entry's generator state (where the
        backend keeps per-campaign generators) must continue the stream
        bit-for-bit.
        """
        raise NotImplementedError(
            f"backend {type(self).__name__} does not support checkpointing"
        )


class EngineCore:
    """One serving session of the engine clock, steppable tick by tick.

    Create a session through the engine's :meth:`EngineBase.start`
    rather than directly — the engine wires up the :class:`ClockBackend`
    of its arrival model and resets the session-scoped
    policy-cache/batch-solver counters.

    Parameters
    ----------
    stream:
        The shared marketplace arrival stream (defines the horizon).
    planner:
        The :class:`~repro.engine.planning.CampaignPlanner` admissions
        are resolved through.
    backend:
        The arrival model's per-tick mechanics.
    specs:
        Campaigns submitted before the session started.
    seed:
        The session's run seed (recorded for checkpoints; the backend
        derives its generators from it).
    source:
        Optional lazy :class:`~repro.engine.source.WorkloadSource`; its
        specs are pulled just-in-time as the clock reaches their submit
        intervals, so the pending frontier stays O(live) no matter how
        large the workload is.  The source must stream in nondecreasing
        ``(submit_interval, campaign_id)`` order — the clock merges it
        with the materialized pending queue on that key and raises on a
        misordered source, because admission order is what determinism
        hangs off.
    sink:
        The :class:`~repro.engine.outcomes.OutcomeSink` retirements fold
        into.  Defaults to a keep-everything sink (legacy behavior:
        ``core.outcomes`` materializes the history).
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        planner: CampaignPlanner,
        backend: ClockBackend,
        specs: Sequence[CampaignSpec],
        seed: int,
        source: WorkloadSource | None = None,
        sink: OutcomeSink | None = None,
    ):
        self.stream = stream
        self.planner = planner
        self.backend = backend
        self.seed = seed
        self.clock = 0
        self.sink = OutcomeSink() if sink is None else sink
        self.intervals_run = 0
        self.total_arrivals = 0
        self.total_considered = 0
        self.total_accepted = 0
        self.max_concurrent = 0
        self.elapsed_seconds = 0.0
        # The materialized half of the pending frontier: an id index makes
        # cancellation O(1) — cancelled entries stay in the list as stale
        # husks (id no longer in the index) and are skipped at drain time.
        self._pending = sorted(specs, key=_submission_key)
        self._next_pending = 0
        self._pending_ids = {s.campaign_id for s in self._pending}
        # The lazy half: a one-spec lookahead over the source iterator.
        # ``_source_cursor`` counts fully consumed specs (admitted or
        # tombstone-dropped) — never the lookahead — so a checkpoint can
        # resume the stream with ``iterate(skip=cursor)``.
        self._source = source
        self._source_iter = None if source is None else source.iterate()
        self._source_next: CampaignSpec | None = None
        self._source_done = source is None
        self._source_cursor = 0
        self._source_last_key: tuple[int, str] | None = None
        # Cancellations aimed at source specs that have not materialized
        # yet: tombstones consumed (and discarded) when the stream
        # reaches them.
        self._dropped: set[str] = set()
        self._rate_multipliers: np.ndarray | None = None
        # Tick-boundary hooks: callables invoked at the top of every tick,
        # before the admission drain.  This is how layers above the clock
        # (the serving gateway) coalesce externally arriving requests into
        # the tick's admission batch without owning the loop themselves.
        # Hooks are runtime wiring, not state: checkpoints never serialize
        # them, and whoever registered one re-registers after a resume.
        self._tick_boundary_hooks: list = []
        # Which campaigns were admitted at which tick, in admission order —
        # the replay script a checkpoint restore uses to rebuild the policy
        # cache exactly as the uninterrupted session would have.
        self._admission_log: list[tuple[int, tuple[str, ...]]] = []
        self._cache_baseline = planner.cache.stats
        self._batch_baseline = planner.batch_solver.stats
        # Optional per-phase tick timers (enable_phase_timings); None
        # keeps the hot path free of timing branches' bookkeeping.
        self.phase_timings: PhaseTimings | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_live(self) -> int:
        """Currently live campaigns."""
        return self.backend.num_live()

    @property
    def outcomes(self) -> list[CampaignOutcome]:
        """Materialized retirement history (empty in streaming mode).

        The list lives in the session's :attr:`sink`; when the sink was
        configured with ``keep=False`` nothing is retained here and
        aggregate questions go to :attr:`aggregate` (or the spill file).
        """
        return self.sink.outcomes

    @property
    def aggregate(self) -> OutcomeAggregate:
        """The running incremental aggregate over every retirement."""
        return self.sink.aggregate

    @property
    def num_retired(self) -> int:
        """Campaigns retired (or cancelled-while-live) so far — O(1)."""
        return self.sink.aggregate.num_campaigns

    @property
    def num_pending(self) -> int:
        """Submitted campaigns not yet admitted.

        For a session with a sized workload source this includes the
        specs not yet pulled from it (tombstoned-but-unreached source
        cancellations make the count a slight overestimate until the
        stream passes them); an unsized source contributes only its
        one-spec lookahead.
        """
        n = len(self._pending_ids)
        if self._source_next is not None:
            n += 1
        if self._source is not None and not self._source_done:
            try:
                total = len(self._source)  # type: ignore[arg-type]
            except TypeError:
                total = None
            if total is not None:
                n += max(
                    total
                    - self._source_cursor
                    - (1 if self._source_next is not None else 0),
                    0,
                )
        return n

    @property
    def admission_log(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """Which campaigns were admitted at which tick, in admission order.

        The same record checkpoint restores replay to rebuild the policy
        cache; exposed read-only so observability layers (the event log,
        recovery verification) can mirror it without reaching into
        private state.
        """
        return tuple(self._admission_log)

    def admissions_since(self, start: int) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """Admission-log entries from index ``start`` on (incremental
        consumption for event recording, without copying the whole log)."""
        return tuple(self._admission_log[start:])

    @property
    def num_admission_batches(self) -> int:
        """Admission-log entries recorded so far."""
        return len(self._admission_log)

    # ------------------------------------------------------------------
    # Phase timing
    # ------------------------------------------------------------------
    def enable_phase_timings(self, timings: PhaseTimings | None = None) -> PhaseTimings:
        """Start per-phase tick timing; returns the active sink.

        Installs ``timings`` (a fresh :class:`PhaseTimings` by default) on
        the session *and* on its backend, so both halves of a tick —
        admission/retire in the core, price/split/observe in the backend —
        land in one place.  Timing is runtime wiring like tick-boundary
        hooks: never checkpointed, re-enable after a resume.
        """
        if timings is None:
            timings = PhaseTimings()
        self.phase_timings = timings
        self.backend.phases = timings
        return timings

    def disable_phase_timings(self) -> None:
        """Stop per-phase tick timing (the sink keeps its totals)."""
        self.phase_timings = None
        self.backend.phases = None

    @property
    def done(self) -> bool:
        """True once no tick could change anything.

        The clock is done when it has crossed the stream horizon, or when
        nothing is live and nothing is pending.  A mid-flight
        :meth:`submit` can flip a done-early session back to runnable (the
        clock then idles forward to the new campaign's submit interval).
        """
        if self.clock >= self.stream.num_intervals:
            return True
        return (
            self.backend.num_live() == 0
            and not self._pending_ids
            and self._peek_source() is None
        )

    # ------------------------------------------------------------------
    # The lazy source frontier
    # ------------------------------------------------------------------
    def _peek_source(self) -> CampaignSpec | None:
        """The next not-yet-consumed source spec (pulling lazily), or None.

        Tombstoned specs (cancelled before materializing) are consumed
        and discarded on the way; order violations and horizon overruns
        fail loudly — a silently reordered source would desynchronize
        the admission order determinism hangs off.
        """
        while self._source_next is None and not self._source_done:
            spec = next(self._source_iter, None)
            if spec is None:
                self._source_done = True
                break
            key = _submission_key(spec)
            if self._source_last_key is not None and key < self._source_last_key:
                raise ValueError(
                    f"workload source yielded {spec.campaign_id!r} out of "
                    f"order: key {key} after {self._source_last_key} (sources "
                    "must stream in nondecreasing (submit_interval, "
                    "campaign_id) order)"
                )
            self._source_last_key = key
            if spec.end_interval > self.stream.num_intervals:
                raise ValueError(
                    f"source campaign {spec.campaign_id!r} runs through "
                    f"interval {spec.end_interval}, past the stream horizon "
                    f"({self.stream.num_intervals})"
                )
            if spec.campaign_id in self._dropped:
                self._dropped.discard(spec.campaign_id)
                self._source_cursor += 1
                continue
            self._source_next = spec
        return self._source_next

    def _take_source(self) -> None:
        """Consume the current lookahead (it was admitted)."""
        self._source_next = None
        self._source_cursor += 1

    def _fast_forward_source(self, cursor: int) -> list[CampaignSpec]:
        """Replay the source's consumed prefix (checkpoint restore).

        Re-pulls the first ``cursor`` specs from a fresh pass and leaves
        the iterator positioned exactly where the snapshot stopped.
        Returns the pulled specs — the restore needs them to rebuild
        live entries, outcomes, and the admission replay, since in
        streaming mode they are persisted as a cursor, not as data.
        """
        if self._source is None:
            if cursor:
                raise ValueError(
                    "checkpoint recorded a workload-source cursor of "
                    f"{cursor} but the engine has no source attached"
                )
            return []
        pulled: list[CampaignSpec] = []
        fresh = self._source.iterate()
        for _ in range(cursor):
            spec = next(fresh, None)
            if spec is None:
                raise ValueError(
                    f"workload source exhausted after {len(pulled)} specs "
                    f"while fast-forwarding to checkpoint cursor {cursor} "
                    "(the source no longer matches the bundle)"
                )
            pulled.append(spec)
        self._source_iter = fresh
        self._source_next = None
        self._source_done = False
        self._source_cursor = cursor
        self._source_last_key = (
            _submission_key(pulled[-1]) if pulled else None
        )
        return pulled

    # ------------------------------------------------------------------
    # Rate modulation
    # ------------------------------------------------------------------
    @property
    def rate_multipliers(self) -> np.ndarray | None:
        """Per-interval arrival-rate factors, or ``None`` when unmodulated."""
        return self._rate_multipliers

    def set_rate_multipliers(self, multipliers: Sequence[float] | None) -> None:
        """Install per-interval arrival-rate factors for this session.

        ``multipliers[t]`` scales interval ``t``'s arrival rate before the
        tick's draws (demand shocks, day/night schedules); campaigns keep
        planning against the unmodulated forecast and only adaptive ones
        notice the shift, through their realized-arrival observations.
        Scaling applies to the *rate*, so the modulated stream stays
        Poisson and the factored model's per-campaign split still holds.
        Pass ``None``
        to clear.  The array must cover every stream interval and be
        finite and non-negative.
        """
        if multipliers is None:
            self._rate_multipliers = None
            return
        arr = np.asarray(multipliers, dtype=float)
        if arr.shape != (self.stream.num_intervals,):
            raise ValueError(
                "rate multipliers must cover every stream interval "
                f"({self.stream.num_intervals}), got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("rate multipliers must be finite and non-negative")
        self._rate_multipliers = arr.copy()

    def rate_factor(self, t: int) -> float:
        """The arrival-rate factor interval ``t`` runs under (1.0 default)."""
        if self._rate_multipliers is None:
            return 1.0
        return float(self._rate_multipliers[t])

    # ------------------------------------------------------------------
    # Mid-flight cancellation
    # ------------------------------------------------------------------
    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        """Cancel one campaign between ticks (live or still pending).

        A *live* campaign is retired immediately: its runtime (policy
        table, adaptive repricer state, private generator) is released and
        its partial-utility outcome — completions and spend so far, no
        terminal penalty, ``cancelled=True`` — is appended to the
        session's outcomes and returned.  A *pending* campaign is simply
        dropped from the submission queue and ``None`` is returned (it
        never went live, so there is nothing to account) — an O(1)
        removal from the pending-id index; the queue entry itself is
        lazily skipped at drain time.  A campaign a lazy source has not
        materialized yet is *tombstoned*: the stream drops it on
        arrival, also returning ``None``.  Raises :class:`KeyError` when
        the id is unknown or already retired — except while a source is
        still streaming, where unknown and not-yet-materialized are
        indistinguishable, so any unrecognized id is tombstoned.
        Cancellation consumes no randomness.
        """
        outcome = self.backend.cancel(campaign_id)
        if outcome is not None:
            self.sink.append(outcome)
            return outcome
        if campaign_id in self._pending_ids:
            self._pending_ids.discard(campaign_id)
            return None
        if (
            self._source_next is not None
            and self._source_next.campaign_id == campaign_id
        ):
            # The lookahead spec: materialized but not yet admitted.
            self._take_source()
            return None
        if self._source is not None and not self._source_done:
            self._dropped.add(campaign_id)
            return None
        raise KeyError(
            f"campaign {campaign_id!r} is neither live nor pending "
            "(unknown id, or already retired)"
        )

    # ------------------------------------------------------------------
    # Tick-boundary hooks
    # ------------------------------------------------------------------
    def add_tick_boundary_hook(self, hook) -> None:
        """Register ``hook(core)`` to run at the top of every :meth:`tick`.

        Hooks fire *before* the tick's admission drain, which makes a
        tick boundary the natural coalescing point for externally
        arriving work: anything a hook submits or cancels with a due
        submit interval is admitted (or retired) in the very tick that
        follows.  The serving gateway (:mod:`repro.serve`) drains its
        request queue through one of these.

        **Ordering guarantee:** hooks run in registration order, every
        tick — registration order *is* drain precedence, identical across
        runs and resumes as long as whoever registered re-registers in
        the same order.  (A gateway registers one hook that drains its
        admission frontiers in index order.)  Hook work is not counted in
        the session's ``elapsed_seconds``, and hooks are never
        checkpointed — re-register after a resume.
        """
        self._tick_boundary_hooks.append(hook)

    def remove_tick_boundary_hook(self, hook) -> None:
        """Unregister a hook added with :meth:`add_tick_boundary_hook`."""
        self._tick_boundary_hooks.remove(hook)

    # ------------------------------------------------------------------
    # Mid-flight submission
    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[CampaignSpec]) -> None:
        """Queue campaigns mid-session (legal between ticks).

        Each spec is validated against the *remaining* horizon: its
        submit interval must not predate the current clock (the engine
        cannot admit into the past), and — as at any submission — its
        end interval must fit the stream.  Submitting a campaign before
        its submit interval has been reached produces a run bit-identical
        to having submitted it up front: queueing consumes no randomness.
        """
        batch = list(specs)
        for spec in batch:
            if spec.submit_interval < self.clock:
                raise ValueError(
                    f"campaign {spec.campaign_id!r} submits at interval "
                    f"{spec.submit_interval}, but the engine clock is already "
                    f"at {self.clock}"
                )
        # Splicing the tail is already O(tail log tail); purging stale
        # husks of cancelled entries here is free and keeps a resubmitted
        # id from resurrecting its cancelled predecessor.
        tail = [
            s
            for s in self._pending[self._next_pending :]
            if s.campaign_id in self._pending_ids
        ] + batch
        tail.sort(key=_submission_key)
        self._pending[self._next_pending :] = tail
        self._pending_ids.update(s.campaign_id for s in batch)

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------
    def tick(self) -> TickReport:
        """Advance the clock by one interval and report what happened.

        One tick = admission drain → price gathering → arrival split →
        completion/observe → retirement, exactly the loop body both
        engines historically duplicated.  Raises :class:`RuntimeError`
        once the session is :attr:`done`.
        """
        if self.done:
            raise RuntimeError(
                "the engine clock is exhausted: every submitted campaign has "
                "retired (submit more campaigns to keep serving)"
            )
        for hook in list(self._tick_boundary_hooks):
            hook(self)
        timings = self.phase_timings
        started = time.perf_counter()
        t = self.clock
        due: list[CampaignSpec] = []
        # Two-way merge of the materialized queue and the lazy source on
        # the submission key — the admission order is exactly what one
        # globally sorted list would produce, so streaming a workload is
        # bit-identical to submitting it up front.
        while True:
            head = (
                self._pending[self._next_pending]
                if self._next_pending < len(self._pending)
                else None
            )
            src = self._peek_source()
            from_source = src is not None and (
                head is None or _submission_key(src) < _submission_key(head)
            )
            if from_source:
                head = src
            if head is None or head.submit_interval > t:
                break
            if from_source:
                self._take_source()
                due.append(head)
            else:
                self._next_pending += 1
                if head.campaign_id in self._pending_ids:
                    self._pending_ids.discard(head.campaign_id)
                    due.append(head)
                # else: stale husk of a cancelled entry — skip silently.
        if due:
            self.backend.place(self.planner.admit_many(due))
            self._admission_log.append((t, tuple(s.campaign_id for s in due)))
        if timings is not None:
            timings.record("admission", time.perf_counter() - started)
        num_live = self.backend.num_live()
        self.clock = t + 1
        if num_live == 0:
            # Marketplace idles until the next submission; no randomness
            # is consumed, so idle gaps never shift downstream draws.
            self.elapsed_seconds += time.perf_counter() - started
            if timings is not None:
                timings.tick_done()
            return TickReport(
                interval=t, admitted=0, arrived=0, considered=0, accepted=0,
                retired=(), num_live=0, idle=True,
            )
        self.intervals_run += 1
        self.max_concurrent = max(self.max_concurrent, num_live)
        arrived, considered, accepted = self.backend.step(t, self.rate_factor(t))
        self.total_arrivals += arrived
        self.total_considered += considered
        self.total_accepted += accepted
        if timings is not None:
            retire_started = time.perf_counter()
        retired = tuple(self.backend.retire(t))
        self.sink.extend(retired)
        if timings is not None:
            timings.record("retire", time.perf_counter() - retire_started)
            timings.tick_done()
        self.elapsed_seconds += time.perf_counter() - started
        return TickReport(
            interval=t,
            admitted=len(due),
            arrived=arrived,
            considered=considered,
            accepted=accepted,
            retired=retired,
            num_live=self.backend.num_live(),
            idle=False,
        )

    def run_to_completion(self) -> EngineResult:
        """Tick until :attr:`done`, then return the session's result."""
        while not self.done:
            self.tick()
        return self.result()

    def result(self) -> EngineResult:
        """Aggregate the session so far (callable mid-run or when done).

        Cache and batch-solver stats are reported as deltas against the
        session-start snapshot, so results describe *this* session even
        when the underlying counters have lived through earlier runs.
        """
        return EngineResult(
            outcomes=tuple(self.sink.outcomes),
            aggregate=self.sink.aggregate.copy(),
            intervals_run=self.intervals_run,
            total_arrivals=self.total_arrivals,
            total_considered=self.total_considered,
            total_accepted=self.total_accepted,
            max_concurrent=self.max_concurrent,
            cache_stats=self.planner.cache.stats.since(self._cache_baseline),
            elapsed_seconds=self.elapsed_seconds,
            batch_stats=self.planner.batch_solver.stats.since(
                self._batch_baseline
            ),
        )

    def close(self) -> None:
        """Release the outcome spill file (if any); the session's
        aggregates and kept outcomes stay readable."""
        self.sink.close()


class EngineBase(abc.ABC):
    """The engine's serving surface, independent of its arrival model.

    :class:`~repro.engine.engine.MarketplaceEngine` builds its stream /
    planner / router in ``__init__`` and implements :meth:`_make_backend`;
    everything else — submission validation, session lifecycle, the batch
    ``run()`` — lives here.

    Two ways to drive the clock:

    * **Batch**: ``engine.run(seed)`` — a fresh, self-contained serving
      session run to completion.  Reruns are independent replays: the
      policy cache is session-scoped (cleared at session start), so two
      identical back-to-back runs report identical results *including*
      cache and batch-solver stats.
    * **Stepping**: ``core = engine.start(seed)`` then ``core.tick()``
      (or ``engine.tick()``) — explicit intervals with mid-flight
      ``submit()`` between ticks, checkpointable at any tick boundary via
      :mod:`repro.engine.checkpoint`.
    """

    def __init__(self, stream: SharedArrivalStream, planner: CampaignPlanner):
        self.stream = stream
        self.planner = planner
        self._specs: list[CampaignSpec] = []
        self._known_ids: set[str] = set()
        self._source: WorkloadSource | None = None
        self._core: EngineCore | None = None

    # ------------------------------------------------------------------
    # Planner passthroughs
    # ------------------------------------------------------------------
    @property
    def planning(self) -> str:
        """The planner's forecast mode (``"sliced"`` or ``"stationary"``)."""
        return self.planner.planning

    @property
    def planning_means(self) -> np.ndarray:
        """Per-interval forecast campaigns plan against."""
        return self.planner.planning_means

    @property
    def truncation_eps(self) -> float | None:
        """Poisson-truncation threshold handed to deadline instances."""
        return self.planner.truncation_eps

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, specs: CampaignSpec | Sequence[CampaignSpec]) -> None:
        """Queue campaigns for admission at their submit intervals.

        Legal both before a session starts and *between ticks* of an
        active one (mid-flight submission); in the latter case the specs
        are additionally validated against the session's remaining
        horizon.
        """
        batch = [specs] if isinstance(specs, CampaignSpec) else list(specs)
        # The persistent id set replaces the per-call O(num_submitted)
        # rebuild; validate_submission mutates it as it accepts, so a
        # rejected batch must roll its accepted prefix back out.
        try:
            validate_submission(
                batch, self._known_ids, self.stream.num_intervals, self.planner
            )
        except Exception:
            retained = {s.campaign_id for s in self._specs}
            for spec in batch:
                if spec.campaign_id not in retained:
                    self._known_ids.discard(spec.campaign_id)
            raise
        if self._core is not None:
            self._core.submit(batch)
        self._specs.extend(batch)

    def submit_source(self, source: WorkloadSource) -> None:
        """Attach a lazy workload source for the *next* serving session.

        The streaming alternative to :meth:`submit`: specs materialize
        only when the clock reaches their submit intervals, so memory
        stays O(live) for arbitrarily large workloads.  One source per
        engine, attached before :meth:`start`; its campaign ids must not
        collide with statically submitted ones (lazy streams cannot be
        validated against the id registry without materializing them —
        use a distinct ``id_prefix``).
        """
        if self._core is not None:
            raise RuntimeError(
                "attach the workload source before start(): the active "
                "session already fixed its admission stream"
            )
        if self._source is not None:
            raise RuntimeError("a workload source is already attached")
        self._source = source

    @property
    def source(self) -> WorkloadSource | None:
        """The attached lazy workload source, if any."""
        return self._source

    @property
    def num_submitted(self) -> int:
        """Campaigns queued so far (statically; a lazy source not included)."""
        return len(self._specs)

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        """Cancel one campaign of the active session (between ticks).

        See :meth:`EngineCore.cancel` for the live-vs-pending semantics.
        When a still-pending campaign is cancelled its spec is forgotten
        at the front-end too, so the id becomes reusable and checkpoint
        bundles stay consistent with the submission queue.
        """
        if self._core is None:
            raise RuntimeError(
                "no active serving session: call start(seed) before cancel()"
            )
        outcome = self._core.cancel(campaign_id)
        if outcome is None:
            self._specs = [
                s for s in self._specs if s.campaign_id != campaign_id
            ]
            self._known_ids.discard(campaign_id)
        return outcome

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _make_backend(self, seed: int, rng: np.random.Generator | None) -> ClockBackend:
        """Build the arrival model's per-tick mechanics for one session."""

    def start(
        self,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        *,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ) -> EngineCore:
        """Begin a fresh serving session and return its stepping core.

        Any previous session is closed.  The policy cache and
        batch-solver counters are reset: memoization is scoped to one
        serving session (shared across all of its campaigns and ticks),
        which is what makes every session an independent, reproducible
        replay.

        ``keep_outcomes=False`` runs the session in streaming mode: no
        materialized outcome list, O(1) aggregates only.
        ``outcomes_path`` additionally spills every retirement as one
        JSON line (full-fidelity replay via
        :func:`repro.engine.outcomes.replay_outcomes`); the two compose
        freely.
        """
        self.close()
        self.planner.cache.clear()
        self.planner.batch_solver.reset()
        backend = self._make_backend(seed, rng)
        sink = OutcomeSink(keep=keep_outcomes, spill_path=outcomes_path)
        self._core = EngineCore(
            self.stream,
            self.planner,
            backend,
            self._specs,
            seed,
            source=self._source,
            sink=sink,
        )
        return self._core

    @property
    def core(self) -> EngineCore | None:
        """The active serving session, or ``None`` outside one."""
        return self._core

    def tick(self) -> TickReport:
        """Advance the active session's clock by one interval."""
        if self._core is None:
            raise RuntimeError(
                "no active serving session: call start(seed) before tick()"
            )
        return self._core.tick()

    def run_to_completion(self) -> EngineResult:
        """Finish the active session (starting a fresh one if needed).

        Like :meth:`run`, the session is over once this returns: the
        engine holds no active core, so a later ``submit()`` queues for
        the *next* session instead of being validated against the
        finished session's clock.
        """
        core = self._core if self._core is not None else self.start()
        try:
            return core.run_to_completion()
        finally:
            core.close()
            self._core = None

    def run(
        self,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        *,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ) -> EngineResult:
        """Run a fresh session until every submitted campaign has retired."""
        core = self.start(
            seed=seed,
            rng=rng,
            keep_outcomes=keep_outcomes,
            outcomes_path=outcomes_path,
        )
        try:
            return core.run_to_completion()
        finally:
            core.close()
            self._core = None

    def close(self) -> None:
        """End any active session, releasing its outcome spill file."""
        if self._core is not None:
            self._core.close()
            self._core = None
