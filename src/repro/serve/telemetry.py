"""Serving telemetry: what the gateway did, tick by tick and per request.

:class:`GatewayTelemetry` layers the request-frontier series on top of
the engine's per-tick :class:`~repro.engine.telemetry.Telemetry`:

* **Per-tick serve series** (:data:`SERVE_SERIES_FIELDS`): queue depth at
  the drain, drain batch occupancy, submissions admitted vs rejected
  (backpressure and validation), cancellations and snapshots applied,
  reads answered since the previous tick.
* **The wrapped engine telemetry** (:attr:`GatewayTelemetry.engine`):
  the same 14 per-tick series and per-campaign records an offline
  :class:`~repro.scenario.driver.ScenarioDriver` run would have
  produced — the object the serving determinism contract compares.
* **Per-request latency** (:class:`LatencyRecorder`): wall-clock
  offer→response seconds with p50/p95/p99 summaries.  Latency is
  *deliberately excluded* from the serialized form: everything
  :meth:`GatewayTelemetry.to_dict` emits is deterministic under a fixed
  trace and seed (bit-identical across checkpoint/resume boundaries —
  the golden serve trace asserts it),
  while wall-clock never is.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from typing import TYPE_CHECKING, Iterable

from repro.engine.telemetry import Telemetry
from repro.serve.requests import DEFAULT_TENANT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.campaign import CampaignOutcome
    from repro.engine.clock import EngineCore, TickReport

__all__ = [
    "SERVE_TELEMETRY_VERSION",
    "SERVE_SERIES_FIELDS",
    "TENANT_SERIES_FIELDS",
    "DrainReport",
    "LatencyRecorder",
    "GatewayTelemetry",
]

#: Serialization format version; bumped on any incompatible change.
SERVE_TELEMETRY_VERSION = 1

#: The per-tick serving series.  Every key maps to a list with one entry
#: per recorded tick:
#:
#: ``interval``       — the engine-clock interval the entry describes.
#: ``queue_depth``    — mutating requests queued when the drain fired.
#: ``drained``        — requests applied at this boundary (batch occupancy).
#: ``admitted``       — submissions accepted into the engine.
#: ``rejected``       — submissions refused (budget backpressure/validation).
#: ``cancels``        — cancellation requests applied (any tolerant status).
#: ``snapshots``      — checkpoint snapshots taken at this boundary.
#: ``reads``          — read requests answered since the previous tick.
SERVE_SERIES_FIELDS = (
    "interval",
    "queue_depth",
    "drained",
    "admitted",
    "rejected",
    "cancels",
    "snapshots",
    "reads",
)


#: Per-tenant tally keys carried by a :class:`DrainReport` and the
#: per-tenant serve series (a subset of :data:`SERVE_SERIES_FIELDS` —
#: queue depth and reads are gateway-wide, snapshots are operator ops).
TENANT_SERIES_FIELDS = ("drained", "admitted", "rejected", "cancels")


@dataclasses.dataclass
class DrainReport:
    """What one tick boundary's queue drain did (gateway-internal tally).

    A single engine tick can see two drains — an explicit revival drain
    while the clock is idle plus the in-tick hook drain — so the gateway
    accumulates both in place on one pending report and resets it after
    the tick is recorded.  ``queue_depth`` reports the deepest queue any
    drain found at the boundary.

    ``tenants`` breaks the drain down by non-default tenant
    (:data:`TENANT_SERIES_FIELDS` per tenant); the default tenant stays
    untallied so a single-tenant drain report — and everything serialized
    downstream of it — is byte-identical to the pre-tenant form.
    """

    queue_depth: int = 0
    drained: int = 0
    admitted: int = 0
    rejected: int = 0
    cancels: int = 0
    snapshots: int = 0
    tenants: dict = dataclasses.field(default_factory=dict)

    def tally(self, tenant: str, key: str, amount: int = 1) -> None:
        """Add to one tenant's breakdown (no-op for the default tenant)."""
        if tenant == DEFAULT_TENANT:
            return
        row = self.tenants.setdefault(
            tenant, {field: 0 for field in TENANT_SERIES_FIELDS}
        )
        row[key] += amount


class LatencyRecorder:
    """Wall-clock offer→response latencies with percentile summaries.

    Purely observational: latencies never enter the deterministic
    serialized telemetry (wall-clock differs run to run), they feed the
    loadtest report and ``bench_serve.py``.  Memory is bounded: past
    ``max_samples`` the recorder halves itself by keeping every other
    sample — the distribution survives, a long-lived serving session's
    footprint does not grow without bound.
    """

    def __init__(self, max_samples: int = 65536) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.max_samples = max_samples
        self._samples: list[float] = []
        #: Samples observed over the recorder's lifetime (decimation
        #: drops stored samples, never this count).
        self.total_observed = 0

    def observe(self, seconds: float) -> None:
        """Record one request's offer→response latency."""
        self.total_observed += 1
        if len(self._samples) >= self.max_samples - 1:
            # Halve *before* appending so the incoming sample always
            # survives: halving afterwards would silently drop the newest
            # observation whenever it landed on an odd index.
            self._samples = self._samples[::2]
        self._samples.append(float(seconds))

    @property
    def count(self) -> int:
        """Latency samples currently held (== observed until decimation)."""
        return len(self._samples)

    def samples(self) -> tuple[float, ...]:
        """The held samples in observation order (seconds).

        What the SLO evaluator (:mod:`repro.obs.slo`) windows over;
        decimation keeps order, so trailing slices stay meaningful.
        """
        return tuple(self._samples)

    @staticmethod
    def _rank(ordered: list[float], q: float) -> float:
        """Nearest-rank percentile of an already-sorted sample list.

        The textbook definition, ``rank = ceil(q/100 * n)`` clamped to
        ``[1, n]`` — not ``round()``, whose banker's rounding at ``.5``
        fractions picks the rank *below* (n=10, q=85 would yield the 8th
        sample instead of the 9th) and disagrees with every standard
        percentile implementation.
        """
        n = len(ordered)
        rank = math.ceil(q / 100.0 * n)
        return ordered[max(0, min(n - 1, rank - 1))]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile latency in seconds (0.0 when empty).

        Nearest-rank on the sorted samples — no numpy dependency, exact
        for the sample counts a loadtest produces.  Computing several
        percentiles?  :meth:`summary` sorts once for all of them.
        """
        if not self._samples:
            return 0.0
        return self._rank(sorted(self._samples), q)

    def summary(self) -> dict:
        """``{count, mean_ms, p50_ms, p95_ms, p99_ms}`` (milliseconds)."""
        if not self._samples:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        ordered = sorted(self._samples)
        return {
            "count": len(ordered),
            "mean_ms": 1e3 * sum(ordered) / len(ordered),
            "p50_ms": 1e3 * self._rank(ordered, 50.0),
            "p95_ms": 1e3 * self._rank(ordered, 95.0),
            "p99_ms": 1e3 * self._rank(ordered, 99.0),
        }


class GatewayTelemetry:
    """Collects one served session's request-frontier and engine series.

    Parameters
    ----------
    engine:
        The wrapped per-tick engine telemetry; a fresh
        :class:`~repro.engine.telemetry.Telemetry` by default (a restored
        one when resuming from a checkpoint).
    """

    def __init__(self, engine: Telemetry | None = None):
        self.engine = engine if engine is not None else Telemetry()
        self.serve: dict[str, list] = {key: [] for key in SERVE_SERIES_FIELDS}
        # Per-tenant serve series (non-default tenants only): tenant ->
        # {field -> list}, every list padded to num_ticks so a tenant that
        # appears mid-session still aligns with the global series.  Empty
        # for a single-tenant session — and then absent from to_dict(),
        # keeping pre-tenant serialized forms byte-identical.
        self.tenants: dict[str, dict[str, list]] = {}
        self.latency = LatencyRecorder()
        # Lifetime response counters by status, plus total reads served.
        self.responses = {"ok": 0, "rejected": 0, "error": 0}
        self.reads_served = 0
        # Delta baseline: reads as of the previously recorded tick.
        self._reads_seen = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_ticks(self) -> int:
        """Serve-series ticks recorded so far."""
        return len(self.serve["interval"])

    @property
    def total_requests(self) -> int:
        """Responses delivered (any status)."""
        return sum(self.responses.values())

    @property
    def total_rejected(self) -> int:
        """Requests answered with backpressure/validation rejections."""
        return self.responses["rejected"]

    def window(self, last: int, tenant: str = DEFAULT_TENANT) -> dict:
        """The most recent ``last`` ticks of the global series and ``tenant``'s.

        What a :class:`~repro.serve.requests.QueryTelemetry` request with
        ``last > 0`` answers with: ``{"serve": ..., "engine": ...}``,
        both JSON-ready, plus ``{"tenants": {tenant: ...}}`` when
        ``tenant`` has per-tenant series.  A tenant sees only its own
        series, never another tenant's; the default tenant is never
        tallied, so an untagged read carries no ``tenants`` key.
        ``last <= 0`` returns empty series.
        """
        if last <= 0:
            serve = {key: [] for key in SERVE_SERIES_FIELDS}
        else:
            serve = {key: values[-last:] for key, values in self.serve.items()}
        window = {"serve": serve, "engine": self.engine.window(last)}
        series = self.tenants.get(tenant)
        if series is not None:
            window["tenants"] = {
                tenant: {
                    key: (values[-last:] if last > 0 else [])
                    for key, values in series.items()
                }
            }
        return window

    def summary(self) -> str:
        """Short human-readable digest (what the serve CLI prints)."""
        peak_queue = max(self.serve["queue_depth"], default=0)
        drains = [d for d in self.serve["drained"] if d]
        mean_batch = sum(drains) / len(drains) if drains else 0.0
        lat = self.latency.summary()
        lines = [
            f"gateway       : {self.total_requests} responses "
            f"({self.responses['ok']} ok / {self.responses['rejected']} rejected "
            f"/ {self.responses['error']} error), {self.reads_served} reads",
            f"admission     : {sum(self.serve['admitted'])} campaigns admitted, "
            f"{sum(self.serve['rejected'])} submissions rejected, "
            f"{sum(self.serve['cancels'])} cancels, "
            f"{sum(self.serve['snapshots'])} snapshots; "
            f"peak queue {peak_queue}, mean batch {mean_batch:.1f}",
        ]
        if lat["count"]:
            lines.append(
                f"latency       : p50 {lat['p50_ms']:.2f}ms / "
                f"p95 {lat['p95_ms']:.2f}ms / p99 {lat['p99_ms']:.2f}ms "
                f"over {lat['count']} requests"
            )
        for tenant in sorted(self.tenants):
            series = self.tenants[tenant]
            lines.append(
                f"tenant {tenant:<7}: {sum(series['admitted'])} admitted, "
                f"{sum(series['rejected'])} rejected, "
                f"{sum(series['cancels'])} cancels "
                f"over {sum(series['drained'])} drained"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count_response(self, status: str, is_read: bool) -> None:
        """Tally one delivered response (the gateway calls this per resolve)."""
        self.responses[status] = self.responses.get(status, 0) + 1
        if is_read:
            self.reads_served += 1

    def record_tick(
        self,
        core: "EngineCore",
        report: "TickReport",
        drain: DrainReport,
        cancelled: Iterable["CampaignOutcome"] = (),
    ) -> None:
        """Append one tick: the engine series plus the serve series."""
        self.engine.record_tick(core, report, cancelled=cancelled)
        # Pad any newly-seen tenant series to the pre-append length so
        # every tenant list stays aligned with serve["interval"].
        ticks_before = self.num_ticks
        for tenant in drain.tenants:
            if tenant not in self.tenants:
                self.tenants[tenant] = {
                    key: [0] * ticks_before for key in TENANT_SERIES_FIELDS
                }
        row = {
            "interval": report.interval,
            "queue_depth": drain.queue_depth,
            "drained": drain.drained,
            "admitted": drain.admitted,
            "rejected": drain.rejected,
            "cancels": drain.cancels,
            "snapshots": drain.snapshots,
            "reads": self.reads_served - self._reads_seen,
        }
        for key in SERVE_SERIES_FIELDS:
            self.serve[key].append(row[key])
        for tenant, series in self.tenants.items():
            tallies = drain.tenants.get(tenant)
            for key in TENANT_SERIES_FIELDS:
                series[key].append(tallies[key] if tallies else 0)
        self._reads_seen = self.reads_served

    # ------------------------------------------------------------------
    # Serialization (deterministic fields only — latency stays out)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The deterministic state as a JSON-ready dict (bit-exact round trip).

        The ``tenants`` key appears only when at least one non-default
        tenant was tallied: a single-tenant session serializes
        byte-identically to the pre-tenant format (golden contract).
        """
        data = {
            "version": SERVE_TELEMETRY_VERSION,
            "serve": {key: list(values) for key, values in self.serve.items()},
            "responses": dict(self.responses),
            "reads_served": self.reads_served,
            "reads_seen": self._reads_seen,
            "engine": self.engine.to_dict(),
        }
        if self.tenants:
            data["tenants"] = {
                tenant: {key: list(values) for key, values in series.items()}
                for tenant, series in sorted(self.tenants.items())
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GatewayTelemetry":
        """Rebuild serving telemetry (and its baselines) from a dict.

        Every serve, tenant and engine series must hold one entry per
        recorded tick (the length of ``serve["interval"]``); a misaligned
        series raises ``ValueError`` rather than answering windows whose
        fields disagree on which ticks they cover.
        """
        if data.get("version") != SERVE_TELEMETRY_VERSION:
            raise ValueError(
                f"serve telemetry version {data.get('version')!r} is not "
                f"supported (this build reads version {SERVE_TELEMETRY_VERSION})"
            )
        telemetry = cls(engine=Telemetry.from_dict(data["engine"]))
        for key in SERVE_SERIES_FIELDS:
            telemetry.serve[key] = list(data["serve"][key])
        telemetry.tenants = {
            str(tenant): {
                key: list(series[key]) for key in TENANT_SERIES_FIELDS
            }
            for tenant, series in data.get("tenants", {}).items()
        }
        ticks = telemetry.num_ticks
        if telemetry.engine.num_ticks != ticks:
            raise ValueError(
                f"serve telemetry records {ticks} ticks but its engine "
                f"telemetry {telemetry.engine.num_ticks}"
            )
        owners = [("serve", telemetry.serve)] + [
            (f"tenant {tenant!r}", series)
            for tenant, series in telemetry.tenants.items()
        ]
        for owner, series in owners:
            for key, values in series.items():
                if len(values) != ticks:
                    raise ValueError(
                        f"serve telemetry {owner} series {key!r} has "
                        f"{len(values)} entries for {ticks} ticks"
                    )
        telemetry.responses = {k: int(v) for k, v in data["responses"].items()}
        telemetry.reads_served = int(data["reads_served"])
        telemetry._reads_seen = int(data["reads_seen"])
        return telemetry

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the deterministic telemetry to ``path`` as JSON."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=1))
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "GatewayTelemetry":
        """Read serving telemetry previously written by :meth:`save`."""
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GatewayTelemetry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"GatewayTelemetry({self.num_ticks} ticks, "
            f"{self.total_requests} responses, "
            f"{self.reads_served} reads)"
        )
