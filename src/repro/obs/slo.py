"""SLO objectives and multi-window burn rates over serving telemetry.

An SLO here is a *fraction-of-good-events* objective (the Google SRE
formulation): out of every request the gateway answered, at least
``objective`` of them must be good.  Two objectives cover the serving
layer:

* **Availability** — a submission is *bad* when it was rejected
  (admission backpressure, quota exhaustion, validation).  Good/bad
  counts come straight from the deterministic per-tick serve series
  (``admitted`` / ``rejected``), so this objective evaluates identically
  live, over a saved telemetry JSON, and over a durable event log.
* **Latency** — a request is *bad* when it resolved slower than the
  target.  Live, the target is wall-clock milliseconds against the
  gateway's :class:`~repro.serve.telemetry.LatencyRecorder` samples.
  Offline, wall-clock is gone by design (never serialized), so the
  event-log form measures **queueing latency in ticks**: the response
  tick minus the request tick, joined by arrival sequence — a
  deterministic twin of the same objective.

**Burn rate** is error rate divided by error budget: with a 0.99
objective the budget is 1% bad, so a window where 2% of submissions
bounced burns at 2.0 — the budget is being consumed twice as fast as
sustainable.  Each objective is evaluated over several trailing windows
at once (:data:`DEFAULT_WINDOWS`, in ticks for series, in samples for
live latency); the classic multi-window alert rule — page only when the
*short* and the *long* window both burn — falls out of reading two
entries from one report.  A window with no events reports ``null`` burn
(no evidence is not good news or bad news).

Everything here is read-only arithmetic over recorded counts: computing
an SLO report never perturbs the run it describes.  The live ``/slo``
endpoint (:mod:`repro.obs.ops`) and the offline ``repro engine slo``
command share these functions.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "DEFAULT_WINDOWS",
    "SloPolicy",
    "burn_rate",
    "availability_slo",
    "latency_slo_from_samples",
    "event_log_slo",
    "telemetry_slo_report",
    "live_slo_report",
    "event_log_slo_report",
    "render_slo_report",
]

#: Trailing evaluation windows: ticks for per-tick series, samples for
#: live latency.  Smallest window = the fast (paging) signal, largest =
#: the slow (ticket) signal.
DEFAULT_WINDOWS = (8, 32, 128)


@dataclasses.dataclass(frozen=True)
class SloPolicy:
    """The objectives one serving session is held to.

    Parameters
    ----------
    availability_objective:
        Minimum fraction of submissions that must be admitted
        (``1 - objective`` is the rejection budget).
    latency_objective:
        Minimum fraction of requests that must resolve within the
        latency target.
    latency_target_ms:
        Live latency target: offer→response wall-clock milliseconds.
    latency_target_ticks:
        Offline latency target: response tick minus request tick
        (queueing latency of the deterministic replay).
    windows:
        Trailing window sizes, strictly increasing.
    """

    availability_objective: float = 0.99
    latency_objective: float = 0.99
    latency_target_ms: float = 250.0
    latency_target_ticks: int = 2
    windows: tuple = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        for name in ("availability_objective", "latency_objective"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"{name} must be inside (0, 1), got {value}"
                )
        if not 0.0 < self.latency_target_ms < math.inf:
            raise ValueError(
                "latency_target_ms must be finite and positive, got "
                f"{self.latency_target_ms}"
            )
        if self.latency_target_ticks < 0:
            raise ValueError(
                "latency_target_ticks must be >= 0, got "
                f"{self.latency_target_ticks}"
            )
        windows = tuple(int(w) for w in self.windows)
        if not windows or any(w < 1 for w in windows) or any(
            b <= a for a, b in zip(windows, windows[1:])
        ):
            raise ValueError(
                "windows must be a non-empty strictly increasing sequence "
                f"of positive sizes, got {self.windows!r}"
            )
        object.__setattr__(self, "windows", windows)

    def to_dict(self) -> dict:
        """JSON-ready policy (embedded in every report)."""
        return {
            "availability_objective": self.availability_objective,
            "latency_objective": self.latency_objective,
            "latency_target_ms": self.latency_target_ms,
            "latency_target_ticks": self.latency_target_ticks,
            "windows": list(self.windows),
        }


def burn_rate(bad: float, total: float, objective: float) -> float | None:
    """Error rate over error budget; ``None`` when there is no evidence.

    ``1.0`` means the window consumed its budget exactly; above it the
    objective is being burned faster than sustainable.
    """
    if total <= 0:
        return None
    budget = 1.0 - objective
    rate = bad / total
    if budget <= 0.0:
        return math.inf if bad else 0.0
    return rate / budget


def _window_rows(
    bad_by_window, total_by_window, objective: float, windows
) -> dict:
    rows = {}
    for window, bad, total in zip(windows, bad_by_window, total_by_window):
        rows[str(window)] = {
            "window": window,
            "bad": bad,
            "total": total,
            "error_rate": (bad / total) if total else None,
            "burn_rate": burn_rate(bad, total, objective),
        }
    return rows


def _burning(rows: dict) -> bool:
    """True when every window *with evidence* burns above 1.0 — the
    multi-window rule (fast AND slow) collapsed over all windows."""
    burns = [
        row["burn_rate"] for row in rows.values()
        if row["burn_rate"] is not None
    ]
    return bool(burns) and all(b > 1.0 for b in burns)


def availability_slo(
    admitted, rejected, policy: SloPolicy | None = None
) -> dict:
    """The availability objective over per-tick admitted/rejected series."""
    policy = policy or SloPolicy()
    admitted = list(admitted)
    rejected = list(rejected)
    bad = [sum(rejected[-w:]) for w in policy.windows]
    good = [sum(admitted[-w:]) for w in policy.windows]
    total = [b + g for b, g in zip(bad, good)]
    rows = _window_rows(
        bad, total, policy.availability_objective, policy.windows
    )
    return {
        "objective": policy.availability_objective,
        "unit": "ticks",
        "events": "submissions (bad = rejected)",
        "windows": rows,
        "burning": _burning(rows),
    }


def latency_slo_from_samples(
    samples, policy: SloPolicy | None = None
) -> dict:
    """The live latency objective over wall-clock samples (seconds).

    Windows are trailing *sample counts* (the recorder keeps no
    timestamps); the target is :attr:`SloPolicy.latency_target_ms`.
    """
    policy = policy or SloPolicy()
    samples_ms = [1e3 * float(s) for s in samples]
    target = policy.latency_target_ms
    bad = [
        sum(1 for s in samples_ms[-w:] if s > target)
        for w in policy.windows
    ]
    total = [min(w, len(samples_ms)) for w in policy.windows]
    rows = _window_rows(bad, total, policy.latency_objective, policy.windows)
    report = {
        "objective": policy.latency_objective,
        "unit": "samples",
        "target_ms": target,
        "events": f"requests (bad = slower than {target:g}ms)",
        "windows": rows,
        "burning": _burning(rows),
    }
    if samples_ms:
        ordered = sorted(samples_ms)

        def pct(q: float) -> float:
            rank = math.ceil(q / 100.0 * len(ordered))
            return ordered[max(0, min(len(ordered) - 1, rank - 1))]

        report["p50_ms"] = pct(50.0)
        report["p95_ms"] = pct(95.0)
        report["p99_ms"] = pct(99.0)
    return report


def event_log_slo(log_path, policy: SloPolicy | None = None) -> dict:
    """Offline objectives from a durable event log.

    Availability counts ``submit-campaign`` response rows (bad =
    ``rejected``); latency joins each response to its request by
    ``(client, seq)`` and measures the deterministic queueing latency in
    ticks (bad = slower than :attr:`SloPolicy.latency_target_ticks`).
    Windows are trailing *ticks* ending at the last response tick.
    """
    from repro.obs.eventlog import EventLog

    policy = policy or SloPolicy()
    request_tick: dict[tuple[str | None, int], int] = {}
    # (response_tick, is_submit, is_rejected, latency_ticks | None)
    responses: list[tuple[int, bool, bool, int | None]] = []
    reader = EventLog.read(log_path)
    for event in reader.events():
        if event.kind == "request":
            seq = event.payload.get("seq")
            if seq is not None:
                request_tick[(event.client, int(seq))] = event.tick
        elif event.kind == "response":
            seq = event.payload.get("seq")
            offered = (
                request_tick.get((event.client, int(seq)))
                if seq is not None
                else None
            )
            latency = event.tick - offered if offered is not None else None
            responses.append((
                event.tick,
                event.payload.get("kind") == "submit-campaign",
                event.payload.get("status") == "rejected",
                latency,
            ))
    last_tick = max((tick for tick, _, _, _ in responses), default=-1)

    def in_window(tick: int, window: int) -> bool:
        return tick > last_tick - window

    avail_bad, avail_total, lat_bad, lat_total = [], [], [], []
    for window in policy.windows:
        submits = [
            rejected for tick, is_submit, rejected, _ in responses
            if is_submit and in_window(tick, window)
        ]
        avail_bad.append(sum(submits))
        avail_total.append(len(submits))
        lat = [
            latency for tick, _, _, latency in responses
            if latency is not None and in_window(tick, window)
        ]
        lat_bad.append(
            sum(1 for v in lat if v > policy.latency_target_ticks)
        )
        lat_total.append(len(lat))
    avail_rows = _window_rows(
        avail_bad, avail_total, policy.availability_objective, policy.windows
    )
    lat_rows = _window_rows(
        lat_bad, lat_total, policy.latency_objective, policy.windows
    )
    return {
        "availability": {
            "objective": policy.availability_objective,
            "unit": "ticks",
            "events": "submissions (bad = rejected)",
            "windows": avail_rows,
            "burning": _burning(avail_rows),
        },
        "latency": {
            "objective": policy.latency_objective,
            "unit": "ticks",
            "target_ticks": policy.latency_target_ticks,
            "events": (
                "requests (bad = queueing latency above "
                f"{policy.latency_target_ticks} ticks)"
            ),
            "windows": lat_rows,
            "burning": _burning(lat_rows),
        },
    }


def telemetry_slo_report(data: dict, policy: SloPolicy | None = None) -> dict:
    """Offline report from a serialized gateway-telemetry dict.

    Wall-clock latency is deliberately absent from serialized telemetry,
    so only the availability objective can be evaluated here; pair with
    an event log (``repro engine slo --event-log``) for the latency half.
    """
    policy = policy or SloPolicy()
    serve = data.get("serve", {})
    return {
        "policy": policy.to_dict(),
        "source": "telemetry",
        "availability": availability_slo(
            serve.get("admitted", []), serve.get("rejected", []), policy
        ),
    }


def live_slo_report(telemetry, policy: SloPolicy | None = None) -> dict:
    """The live report a running gateway's ``/slo`` endpoint serves.

    ``telemetry`` is a live :class:`~repro.serve.telemetry.GatewayTelemetry`:
    availability from its deterministic serve series, latency from its
    wall-clock recorder samples.
    """
    policy = policy or SloPolicy()
    return {
        "policy": policy.to_dict(),
        "source": "live",
        "availability": availability_slo(
            telemetry.serve["admitted"], telemetry.serve["rejected"], policy
        ),
        "latency": latency_slo_from_samples(
            telemetry.latency.samples(), policy
        ),
    }


def event_log_slo_report(log_path, policy: SloPolicy | None = None) -> dict:
    """Offline report from a durable event log (both objectives)."""
    policy = policy or SloPolicy()
    return {
        "policy": policy.to_dict(),
        "source": "event-log",
        **event_log_slo(log_path, policy),
    }


def render_slo_report(report: dict) -> str:
    """Aligned text rendering of any report above (the CLI's table form)."""
    lines = [f"source        : {report.get('source', '?')}"]
    for name in ("availability", "latency"):
        objective = report.get(name)
        if objective is None:
            continue
        target = ""
        if "target_ms" in objective:
            target = f", target {objective['target_ms']:g}ms"
        elif "target_ticks" in objective:
            target = f", target {objective['target_ticks']} ticks"
        state = "BURNING" if objective.get("burning") else "ok"
        lines.append(
            f"{name:<14}: objective {objective['objective']:.4g}{target} "
            f"[{state}]"
        )
        for row in objective["windows"].values():
            burn = row["burn_rate"]
            burn_text = "no data" if burn is None else f"burn {burn:.2f}x"
            rate = row["error_rate"]
            rate_text = "-" if rate is None else f"{100 * rate:.2f}%"
            lines.append(
                f"  last {row['window']:>4} {objective['unit']:<7}: "
                f"{row['bad']}/{row['total']} bad ({rate_text}), {burn_text}"
            )
        for pct in ("p50_ms", "p95_ms", "p99_ms"):
            if pct in objective:
                lines.append(
                    f"  {pct[:3]:<5}: {objective[pct]:.2f}ms"
                )
    return "\n".join(lines)
