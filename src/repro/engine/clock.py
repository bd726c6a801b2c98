"""The engine clock: the one tick loop behind the marketplace engine.

:class:`~repro.engine.engine.MarketplaceEngine` advances a discrete clock
over the shared arrival stream: drain newly-due campaign submissions,
gather the live campaigns' posted rewards, draw the interval's worker
arrivals, apply completions and adaptive observations, and retire
finished campaigns.  This module owns that loop.

The pieces:

* :class:`EngineCore` — one *serving session* of the clock.  It owns the
  pending-submission queue, the one list of live campaigns, the run
  counters, and the explicit stepping API: :meth:`EngineCore.tick`
  advances one interval and returns a :class:`TickReport`;
  :meth:`EngineCore.run_to_completion` loops it; :meth:`EngineCore.result`
  aggregates the session into an :class:`EngineResult` at any point.
  New campaigns may be submitted *between ticks*, which is what a
  long-lived serving deployment needs.  The two arrival models differ
  only in how a tick's acceptances are drawn (one pooled generator
  splitting realized workers, vs. per-campaign factored Poisson draws);
  pricing, completions, observation and retirement are one code path.
* :class:`PhaseTimings` — optional wall-clock per tick phase.
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

import dataclasses
import time
import zlib
from typing import Sequence

import numpy as np

from repro.core.batch.solver import BatchSolveStats
from repro.engine.cache import CacheStats
from repro.engine.campaign import CampaignOutcome, CampaignSpec
from repro.engine.outcomes import OutcomeAggregate, OutcomeSink
from repro.engine.planning import CampaignPlanner, _LiveCampaign
from repro.engine.routing import ArrivalRouter
from repro.engine.source import WorkloadSource
from repro.sim.stream import SharedArrivalStream

__all__ = [
    "EngineCore",
    "EngineResult",
    "PhaseTimings",
    "TickReport",
]

# Sub-stream tag keeping every campaign's factored draws independent of
# the market's walk-away draws under one run seed.
_CAMPAIGN_STREAM = 0xCA4


def _submission_key(spec: CampaignSpec) -> tuple[int, str]:
    """Admission order: by submit interval, ties broken by campaign id."""
    return (spec.submit_interval, spec.campaign_id)


def _campaign_rng(seed: int, campaign_id: str) -> np.random.Generator:
    """The private generator owning every random decision of one campaign."""
    return np.random.default_rng(
        [seed, _CAMPAIGN_STREAM, zlib.crc32(campaign_id.encode())]
    )


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
    drain (due submissions through the planner onto the live list), price
    gathering, the arrival draw (the router's split or fractions and the
    completions they deliver), the adaptive observe pass, and
    retirement.  :class:`EngineCore` records all five into the instance
    :meth:`EngineCore.enable_phase_timings` installs.

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


class EngineCore:
    """One serving session of the engine clock, steppable tick by tick.

    Create a session through
    :meth:`MarketplaceEngine.start <repro.engine.engine.MarketplaceEngine.start>`
    rather than directly — the engine builds the session generator of
    its arrival model and resets the session-scoped
    policy-cache/batch-solver counters.

    Live campaigns are one list, :attr:`live`.  Under pooled arrivals it
    keeps admission order, which fixes the layout of the price vector the
    router's multinomial draws over.  Under factored arrivals it is kept
    sorted by campaign id, which fixes the order the router's fractions
    are summed in and retirements are reported in, and each campaign
    carries its private generator in ``rng``.

    Parameters
    ----------
    stream:
        The shared marketplace arrival stream (defines the horizon).
    planner:
        The :class:`~repro.engine.planning.CampaignPlanner` admissions
        are resolved through.
    router:
        Splits realized workers across the live campaigns (pooled) or
        answers their choice fractions (factored).
    specs:
        Campaigns submitted before the session started.
    seed:
        The session's run seed (recorded for checkpoints; factored
        sessions key each campaign's generator by it).
    rng:
        The session generator: it draws the realized arrivals and the
        router's split under pooled arrivals, and the market's walk-aways
        under factored ones.
    factored:
        Realize ticks under the factored arrival model.
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
        router: ArrivalRouter,
        specs: Sequence[CampaignSpec],
        seed: int,
        rng: np.random.Generator,
        factored: bool = False,
        source: WorkloadSource | None = None,
        sink: OutcomeSink | None = None,
    ):
        self.stream = stream
        self.planner = planner
        self.router = router
        self.seed = seed
        self.rng = rng
        self.factored = factored
        self.live: list[_LiveCampaign] = []
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
        return len(self.live)

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        """Per-live-campaign ``(campaign_id, remaining, num_solves, adaptive)``.

        Sorted by campaign id whatever the arrival model's live order;
        telemetry builds its per-tick series from this.
        """
        return sorted(
            (c.spec.campaign_id, c.remaining, c.num_solves(), c.spec.adaptive)
            for c in self.live
        )

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
        the session; every phase of a tick records through that one
        instance's ``record``.  Timing is runtime wiring like tick-boundary
        hooks: never checkpointed, re-enable after a resume.
        """
        if timings is None:
            timings = PhaseTimings()
        self.phase_timings = timings
        return timings

    def disable_phase_timings(self) -> None:
        """Stop per-phase tick timing (the sink keeps its totals)."""
        self.phase_timings = None

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
            not self.live
            and not self._pending_ids
            and self._peek_source() is None
        )

    # ------------------------------------------------------------------
    # The lazy source frontier
    # ------------------------------------------------------------------
    def _peek_source(self) -> CampaignSpec | None:
        """The next not-yet-consumed source spec (pulling lazily), or None.

        Tombstoned specs (cancelled before materializing) are consumed
        and discarded on the way; order violations fail loudly — a
        silently reordered source would desynchronize the admission order
        determinism hangs off — and so does a spec the planner refuses
        (:meth:`~repro.engine.planning.CampaignPlanner.refusal`), with
        the text a submission of it would get.
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
            problem = self.planner.refusal(spec)
            if problem is not None:
                raise ValueError(problem)
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
        Cancellation consumes no randomness, so the surviving campaigns'
        draws are unaffected (a cancelled factored campaign's private
        generator simply stops being used).
        """
        for i, campaign in enumerate(self.live):
            if campaign.spec.campaign_id == campaign_id:
                del self.live[i]
                outcome = campaign.outcome(cancelled=True)
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
        admission queue.)  Hook work is not counted in
        the session's ``elapsed_seconds``, and hooks are never
        checkpointed — re-register after a resume.
        """
        self._tick_boundary_hooks.append(hook)

    # ------------------------------------------------------------------
    # Mid-flight submission
    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[CampaignSpec]) -> None:
        """Queue campaigns mid-session (legal between ticks).

        The specs must already be validated, which
        :meth:`MarketplaceEngine.submit <repro.engine.engine.MarketplaceEngine.submit>`
        does — including that no submit interval predates the current
        clock (the engine cannot admit into the past).  Submitting a
        campaign before its submit interval has been reached produces a
        run bit-identical to having submitted it up front: queueing
        consumes no randomness.
        """
        batch = list(specs)
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

        One tick = admission drain → price gathering → arrival draw and
        completions → observe → retirement.  Raises :class:`RuntimeError`
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
            self._place(self.planner.admit_many(due))
            self._admission_log.append((t, tuple(s.campaign_id for s in due)))
        if timings is not None:
            timings.record("admission", time.perf_counter() - started)
        num_live = len(self.live)
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
        arrived, considered, accepted = self._step(t)
        self.total_arrivals += arrived
        self.total_considered += considered
        self.total_accepted += accepted
        if timings is not None:
            retire_started = time.perf_counter()
        retired: list[CampaignOutcome] = []
        still_live: list[_LiveCampaign] = []
        for campaign in self.live:
            if campaign.remaining == 0 or t + 1 >= campaign.spec.end_interval:
                retired.append(campaign.outcome())
            else:
                still_live.append(campaign)
        self.live = still_live
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
            retired=tuple(retired),
            num_live=len(self.live),
            idle=False,
        )

    def _place(self, admitted: list[_LiveCampaign]) -> None:
        """Put a tick's admitted campaigns live (see :attr:`live`'s order)."""
        self.live.extend(admitted)
        if self.factored:
            for campaign in admitted:
                campaign.rng = _campaign_rng(self.seed, campaign.spec.campaign_id)
            self.live.sort(key=lambda c: c.spec.campaign_id)

    def _step(self, t: int) -> tuple[int, int, int]:
        """Realize interval ``t`` over the live list; return its totals.

        Prices are gathered, acceptances drawn, completions applied and
        adaptive campaigns shown the realized arrivals; only the draw
        depends on the arrival model.  Pooled: the session generator
        draws the interval's realized workers and the router splits them
        across the live campaigns.  Factored: a worker arriving at rate
        ``lambda_t`` accepts campaign ``i`` with the router's choice
        fraction ``q_i``, and thinning a Poisson process by independent
        choices yields independent Poisson processes, so each campaign
        draws ``Pois(lambda_t * q_i)`` acceptances and its
        considered-but-declined remainder from its own generator — two
        draws per live tick whatever the fractions, so no campaign's
        stream position depends on which others are live — while the
        session generator draws the market's walk-aways.  The rate factor
        scales the *rate* before any draw, so the modulated process stays
        Poisson.  Returns ``(arrived, considered, accepted)``.
        """
        timings = self.phase_timings
        if timings is not None:
            phase_started = time.perf_counter()
        live = self.live
        prices = np.array(
            [c.runtime.price(c.remaining, t - c.spec.submit_interval) for c in live],
            dtype=float,
        )
        if timings is not None:
            now = time.perf_counter()
            timings.record("price", now - phase_started)
            phase_started = now
        if self.factored:
            accept_q, consider_q = self.router.fractions(prices)
            mean_t = self.stream.mean(t) * self.rate_factor(t)
            walked = int(
                self.rng.poisson(mean_t * max(1.0 - float(consider_q.sum()), 0.0))
            )
            accepted = []
            declined = 0
            for campaign, accept, consider in zip(
                live, accept_q.tolist(), consider_q.tolist()
            ):
                accepted.append(int(campaign.rng.poisson(mean_t * accept)))
                declined += int(
                    campaign.rng.poisson(mean_t * max(consider - accept, 0.0))
                )
            accepted_total = sum(accepted)
            considered = accepted_total + declined
            arrived = walked + considered
        else:
            arrived = self.stream.sample(t, self.rng, scale=self.rate_factor(t))
            considered_by, accepted_by = self.router.split(arrived, prices, self.rng)
            considered = int(considered_by.sum())
            accepted = accepted_by.tolist()
            accepted_total = sum(accepted)
        for campaign, taken, price in zip(live, accepted, prices.tolist()):
            if taken:
                campaign.charge(taken, price, t)
        if timings is not None:
            now = time.perf_counter()
            timings.record("split", now - phase_started)
            phase_started = now
        # Adaptive campaigns observe the interval's realized marketplace
        # arrivals (walk-aways included) after pricing it: no peeking at
        # the future.
        for campaign in live:
            observe = getattr(campaign.runtime, "observe", None)
            if observe is not None:
                observe(t - campaign.spec.submit_interval, arrived)
        if timings is not None:
            timings.record("observe", time.perf_counter() - phase_started)
        return arrived, considered, accepted_total

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
