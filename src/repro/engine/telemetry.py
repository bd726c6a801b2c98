"""Per-tick engine telemetry: what a serving session did, tick by tick.

An :class:`~repro.engine.clock.EngineResult` is the *aggregate* of a
session; operating a marketplace under churn, demand shocks, and
cancellations (:mod:`repro.scenario`) needs the *time series* — how many
campaigns were live each interval, how arrivals were routed, when the
policy cache stopped absorbing admissions, when adaptive campaigns
re-planned.  :class:`Telemetry` collects exactly that:

* **Per-tick series** (:attr:`Telemetry.series`, parallel lists keyed by
  :data:`SERIES_FIELDS`): live-campaign count, arrivals routed,
  per-tick cache hits/misses, adaptive re-plan activations, the tick's
  arrival-rate factor, tasks still open, cancellations applied.
* **Per-campaign records** (:attr:`Telemetry.campaigns`, one
  :class:`CampaignRecord` per retirement *or* cancellation, in the order
  they left the engine): completion, spend, penalty, partial-utility
  accounting for cancelled campaigns.

Telemetry is **deterministic**: every field is computed from
storage-order-invariant engine state (sorted live listings, clock
counters), never from wall-clock, so a fixed-seed scenario produces
bit-identical telemetry across checkpoint/resume boundaries — the golden-trace and fuzz suites assert
this.  It serializes to JSON (:meth:`Telemetry.to_dict` /
:meth:`Telemetry.from_dict`, :meth:`Telemetry.save` /
:meth:`Telemetry.load`) and rides inside checkpoint bundles through
:class:`~repro.scenario.driver.ScenarioDriver`, resuming mid-series
without losing its delta baselines.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.campaign import CampaignOutcome
    from repro.engine.clock import EngineCore, TickReport

__all__ = ["TELEMETRY_VERSION", "SERIES_FIELDS", "CampaignRecord", "Telemetry"]

#: Serialization format version; bumped on any incompatible change.
TELEMETRY_VERSION = 1

#: The per-tick series, in recording order.  Every key maps to a list with
#: one entry per recorded tick (idle ticks included):
#:
#: ``interval``         — the engine-clock interval the entry describes.
#: ``num_live``         — live campaigns *after* the tick's retirements.
#: ``admitted``         — campaigns that went live at this tick.
#: ``arrived``          — realized marketplace worker arrivals.
#: ``considered``       — worker looks routed to live campaigns.
#: ``accepted``         — workers who accepted a task (pre-capping).
#: ``retired``          — campaigns retired naturally this tick.
#: ``cancelled``        — live campaigns cancelled at this tick boundary.
#: ``rate_factor``      — the arrival-rate factor the tick ran under.
#: ``cache_hits``       — policy-cache hits this tick (admission lookups).
#: ``cache_misses``     — policy-cache misses this tick.
#: ``repricer_solves``  — adaptive re-plans taken this tick (see ``num_solves``).
#: ``tasks_remaining``  — open tasks across live campaigns after the tick.
#: ``idle``             — 1 when no campaign was live (no randomness drawn).
SERIES_FIELDS = (
    "interval",
    "num_live",
    "admitted",
    "arrived",
    "considered",
    "accepted",
    "retired",
    "cancelled",
    "rate_factor",
    "cache_hits",
    "cache_misses",
    "repricer_solves",
    "tasks_remaining",
    "idle",
)


@dataclasses.dataclass(frozen=True)
class CampaignRecord:
    """One campaign's completion record, written when it leaves the engine.

    Attributes
    ----------
    campaign_id:
        The campaign's id.
    kind:
        ``"deadline"`` or ``"budget"``.
    interval:
        Engine-clock interval at which the campaign left (its last tick,
        or the tick boundary a cancellation was applied at).
    completed:
        Tasks finished before it left.
    remaining:
        Tasks still open when it left.
    total_cost:
        Rewards paid, in cents.
    penalty:
        Terminal penalty charged, in cents (0 for cancellations).
    cancelled:
        True when the campaign was cancelled rather than retired.
    adaptive:
        Whether the campaign re-planned online.
    cache_hit:
        Whether admission reused a cached policy.
    num_solves:
        Plans the campaign took over its lifetime
        (:attr:`CampaignOutcome.num_solves`), not DP/LP runs.
    """

    campaign_id: str
    kind: str
    interval: int
    completed: int
    remaining: int
    total_cost: float
    penalty: float
    cancelled: bool
    adaptive: bool
    cache_hit: bool
    num_solves: int


class Telemetry:
    """Collects and serializes one serving session's per-tick series.

    Use as a collector (a :class:`~repro.scenario.driver.ScenarioDriver`
    feeds it every tick) or as a plain record (deserialized from JSON for
    comparison).  Delta baselines for the cache and adaptive-solve
    counters are part of the serialized state, so a telemetry object
    restored from a checkpoint keeps recording exactly where it left off.

    ``record_campaigns=False`` drops the per-campaign record list — the
    one O(num campaigns) part of telemetry — for streaming-scale runs;
    the per-tick series and the departure-derived counters (cancellation
    count, departed adaptive solves) are still maintained.
    """

    def __init__(self, record_campaigns: bool = True) -> None:
        self.record_campaigns = record_campaigns
        self.series: dict[str, list] = {key: [] for key in SERIES_FIELDS}
        self.campaigns: list[CampaignRecord] = []
        # Delta baselines: counters as of the previously recorded tick.
        self._cache_hits_seen = 0
        self._cache_misses_seen = 0
        self._adaptive_solves_seen = 0
        # Adaptive solves accumulated by campaigns that already left the
        # engine (their solve counters vanish from live_stats).
        self._departed_adaptive_solves = 0
        # Maintained incrementally so total_cancelled never scans the
        # (possibly absent) campaign records.
        self._cancelled_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_ticks(self) -> int:
        """Ticks recorded so far."""
        return len(self.series["interval"])

    @property
    def peak_live(self) -> int:
        """Largest live-campaign count observed (0 before any tick)."""
        return max(self.series["num_live"], default=0)

    @property
    def total_cancelled(self) -> int:
        """Campaign cancellations recorded (O(1) incremental counter)."""
        return self._cancelled_count

    def window(self, last: int) -> dict[str, list]:
        """The most recent ``last`` ticks of every series, as plain lists.

        The read the serving gateway answers ``QueryTelemetry`` requests
        with: a bounded, JSON-ready slice of the session's tail instead of
        the whole (potentially long) history.  ``last <= 0`` returns empty
        series; asking for more ticks than recorded returns everything.
        """
        if last <= 0:
            return {key: [] for key in SERIES_FIELDS}
        return {key: values[-last:] for key, values in self.series.items()}

    def summary(self) -> str:
        """Short human-readable digest (what the scenario CLI prints)."""
        active = sum(1 for idle in self.series["idle"] if not idle)
        hits = sum(self.series["cache_hits"])
        misses = sum(self.series["cache_misses"])
        lookups = hits + misses
        hit_rate = 100.0 * hits / lookups if lookups else 0.0
        return (
            f"telemetry     : {self.num_ticks} ticks recorded "
            f"({active} active / {self.num_ticks - active} idle), "
            f"peak {self.peak_live} live; "
            f"{sum(self.series['arrived']):,} arrivals, "
            f"cache {hits}/{lookups} hits ({hit_rate:.1f}%), "
            f"{sum(self.series['repricer_solves'])} adaptive re-plans, "
            f"{self.total_cancelled} cancellations"
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def sync_baselines(self, core: "EngineCore") -> None:
        """Re-anchor the per-tick delta baselines to ``core``'s counters now.

        Call when recording *begins* on a session whose cache counters or
        live campaigns predate the collector — e.g. attaching telemetry
        mid-session, or a session whose engine shares a
        :class:`~repro.engine.cache.PolicyCache` that was not cleared at
        start.  Without this, the first recorded tick would absorb every
        earlier lookup into its delta.  (The scenario driver calls it at
        :meth:`~repro.scenario.driver.ScenarioDriver.start`; sessions
        opened through ``MarketplaceEngine.start`` begin with cleared counters,
        so there it is a no-op by construction.)
        """
        cache = core.planner.cache.stats
        self._cache_hits_seen = cache.hits
        self._cache_misses_seen = cache.misses
        self._adaptive_solves_seen = self._departed_adaptive_solves + sum(
            solves
            for _, _, solves, adaptive in core.live_stats()
            if adaptive
        )

    def record_tick(
        self,
        core: "EngineCore",
        report: "TickReport",
        cancelled: Iterable["CampaignOutcome"] = (),
    ) -> None:
        """Append one tick's entry (call right after ``core.tick()``).

        ``cancelled`` lists the outcomes of campaigns cancelled at this
        tick's boundary (before the tick ran); they are folded into the
        tick's entry and recorded as :class:`CampaignRecord` rows ahead
        of the tick's natural retirements.
        """
        cancelled = list(cancelled)
        for outcome in cancelled:
            self._record_departure(outcome, report.interval)
        for outcome in report.retired:
            self._record_departure(outcome, report.interval)
        live = core.live_stats()
        cache = core.planner.cache.stats
        adaptive_total = self._departed_adaptive_solves + sum(
            solves for _, _, solves, adaptive in live if adaptive
        )
        row = {
            "interval": report.interval,
            "num_live": report.num_live,
            "admitted": report.admitted,
            "arrived": report.arrived,
            "considered": report.considered,
            "accepted": report.accepted,
            "retired": len(report.retired),
            "cancelled": len(cancelled),
            "rate_factor": core.rate_factor(report.interval),
            "cache_hits": cache.hits - self._cache_hits_seen,
            "cache_misses": cache.misses - self._cache_misses_seen,
            "repricer_solves": adaptive_total - self._adaptive_solves_seen,
            "tasks_remaining": sum(remaining for _, remaining, _, _ in live),
            "idle": int(report.idle),
        }
        for key in SERIES_FIELDS:
            self.series[key].append(row[key])
        self._cache_hits_seen = cache.hits
        self._cache_misses_seen = cache.misses
        self._adaptive_solves_seen = adaptive_total

    def _record_departure(self, outcome: "CampaignOutcome", interval: int) -> None:
        """One campaign left (retired or cancelled): freeze its record."""
        if self.record_campaigns:
            self.campaigns.append(
                CampaignRecord(
                    campaign_id=outcome.spec.campaign_id,
                    kind=outcome.spec.kind,
                    interval=interval,
                    completed=outcome.completed,
                    remaining=outcome.remaining,
                    total_cost=outcome.total_cost,
                    penalty=outcome.penalty,
                    cancelled=outcome.cancelled,
                    adaptive=outcome.spec.adaptive,
                    cache_hit=outcome.cache_hit,
                    num_solves=outcome.num_solves,
                )
            )
        if outcome.cancelled:
            self._cancelled_count += 1
        if outcome.spec.adaptive:
            self._departed_adaptive_solves += outcome.num_solves

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The full state as a JSON-ready dict (bit-exact round trip).

        Byte-stable in the default (record-everything) mode — golden
        traces depend on it; the extra streaming keys appear only when
        campaign records are disabled (the cancellation count cannot be
        recovered from the absent records, so it travels explicitly).
        """
        data = {
            "version": TELEMETRY_VERSION,
            "series": {key: list(values) for key, values in self.series.items()},
            "campaigns": [dataclasses.asdict(r) for r in self.campaigns],
            "baselines": {
                "cache_hits_seen": self._cache_hits_seen,
                "cache_misses_seen": self._cache_misses_seen,
                "adaptive_solves_seen": self._adaptive_solves_seen,
                "departed_adaptive_solves": self._departed_adaptive_solves,
            },
        }
        if not self.record_campaigns:
            data["record_campaigns"] = False
            data["cancelled_count"] = self._cancelled_count
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Telemetry":
        """Rebuild a telemetry object (and its baselines) from a dict.

        Every series must hold one entry per recorded tick (the length of
        ``series["interval"]``); a misaligned one raises ``ValueError``.
        """
        if data.get("version") != TELEMETRY_VERSION:
            raise ValueError(
                f"telemetry version {data.get('version')!r} is not supported "
                f"(this build reads version {TELEMETRY_VERSION})"
            )
        telemetry = cls(record_campaigns=data.get("record_campaigns", True))
        for key in SERIES_FIELDS:
            telemetry.series[key] = list(data["series"][key])
        ticks = telemetry.num_ticks
        for key, values in telemetry.series.items():
            if len(values) != ticks:
                raise ValueError(
                    f"telemetry series {key!r} has {len(values)} entries "
                    f"for {ticks} ticks"
                )
        telemetry.campaigns = [
            CampaignRecord(**record) for record in data["campaigns"]
        ]
        telemetry._cancelled_count = (
            sum(1 for r in telemetry.campaigns if r.cancelled)
            if telemetry.record_campaigns
            else int(data.get("cancelled_count", 0))
        )
        baselines = data["baselines"]
        telemetry._cache_hits_seen = int(baselines["cache_hits_seen"])
        telemetry._cache_misses_seen = int(baselines["cache_misses_seen"])
        telemetry._adaptive_solves_seen = int(baselines["adaptive_solves_seen"])
        telemetry._departed_adaptive_solves = int(
            baselines["departed_adaptive_solves"]
        )
        return telemetry

    def to_json(self, indent: int | None = 1) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the telemetry to ``path`` as JSON; returns the path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Telemetry":
        """Read telemetry previously written by :meth:`save`."""
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Telemetry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"Telemetry({self.num_ticks} ticks, "
            f"{len(self.campaigns)} campaign records, "
            f"peak {self.peak_live} live)"
        )
