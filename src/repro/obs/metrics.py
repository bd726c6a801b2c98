"""Metrics: counters, gauges, histograms, two export formats.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
Components *record* into one when it is wired up (the serving gateway's
``metrics=`` parameter, the engine clock's
:class:`~repro.engine.clock.PhaseTimings`, the CLI's ``--metrics-out``)
and stay metrics-free otherwise — recording is opt-in wiring, exactly
like telemetry collectors, so the deterministic hot paths carry no
mandatory bookkeeping.

Instruments follow the Prometheus data model:

* :class:`Counter` — monotone ``inc()`` totals (requests served, events
  written, flush batches).
* :class:`Gauge` — a value that goes both ways (queue depth, live
  campaigns, buffer occupancy).
* :class:`Histogram` — cumulative bucket counts plus sum/count (tick
  phase seconds, drain batch sizes).

Every instrument supports a label set (``registry.counter("requests",
labels={"kind": "quote"})``); each distinct label set is its own time
series, exported separately.  Exports: :meth:`MetricsRegistry.to_dict`
(JSON-ready) and :meth:`MetricsRegistry.to_prometheus` (the text
exposition format scrapers ingest).

Metrics are wall-clock-adjacent; they are **never** serialized into
checkpoints or deterministic telemetry (the same rule
:class:`~repro.serve.telemetry.LatencyRecorder` follows).
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "set_session_gauges",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram bucket upper bounds (seconds-flavoured, wide enough
#: for sub-millisecond tick phases and multi-second batch runs alike).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r} (letters, digits, '_', ':' only, "
            "not starting with a digit)"
        )
    return name


def _label_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash first
    (it is the escape character), then quote and newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape HELP text (backslash and newline; quotes are legal there)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount

    def snapshot(self) -> dict:
        """The counter's JSON-ready state: ``{"value": total}``."""
        return {"value": self.value}


class Gauge:
    """A value that can rise and fall."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge down by ``amount``."""
        self.value -= amount

    def snapshot(self) -> dict:
        """The gauge's JSON-ready state: ``{"value": current}``."""
        return {"value": self.value}


class Histogram:
    """Cumulative-bucket histogram with sum and count.

    ``buckets`` are the finite upper bounds; a ``+Inf`` bucket is
    implicit (== ``count``).  Observation is O(#buckets) linear scan —
    bucket lists are short and the scan beats bisect at these sizes.
    """

    kind = "histogram"

    def __init__(self, buckets=DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or any(not math.isfinite(b) for b in bounds):
            raise ValueError(
                "histogram buckets must be a non-empty, strictly increasing "
                f"sequence of finite bounds, got {buckets!r}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        # Per-bucket (non-cumulative) storage; exports cumulate.  A value
        # above every bound lands only in the implicit +Inf bucket.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    def snapshot(self) -> dict:
        """JSON-ready state: count, sum, and per-bucket (non-cumulative)
        counts keyed by upper bound."""
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.bounds, self.bucket_counts)
            },
        }


class MetricsRegistry:
    """A named collection of instruments, export-ready.

    Get-or-create semantics: asking twice for the same
    ``(name, labels)`` returns the same instrument, so callers never
    cache instrument handles unless they are on a hot path.  Asking for
    an existing name with a different instrument kind raises — one name,
    one kind, any number of label sets.  Thread-safe: an
    :class:`~repro.obs.ops.OpsServer` thread scrapes the registry the
    serving gateway records into.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, help, {label_key -> instrument})
        self._families: dict[str, tuple[str, str, dict]] = {}

    def _instrument(self, cls, name: str, help: str, labels: dict | None, **kwargs):
        _check_name(name)
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (cls.kind, help, {})
                self._families[name] = family
            elif family[0] != cls.kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {family[0]}, "
                    f"cannot re-register as a {cls.kind}"
                )
            series = family[2]
            instrument = series.get(key)
            if instrument is None:
                instrument = cls(**kwargs)
                series[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        """Get or create a counter."""
        return self._instrument(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        """Get or create a gauge."""
        return self._instrument(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets=DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._instrument(Histogram, name, help, labels, buckets=buckets)

    def clear(self) -> None:
        """Drop every registered instrument (test isolation)."""
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot: ``{name: {kind, help, series: [...]}}``."""
        with self._lock:
            return {
                name: {
                    "kind": kind,
                    "help": help,
                    "series": [
                        {"labels": dict(key), **instrument.snapshot()}
                        for key, instrument in sorted(series.items())
                    ],
                }
                for name, (kind, help, series) in sorted(self._families.items())
            }

    def to_json(self, indent: int | None = 1) -> str:
        """Serialize :meth:`to_dict` to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name, (kind, help, series) in sorted(self._families.items()):
                if help:
                    lines.append(f"# HELP {name} {_escape_help(help)}")
                lines.append(f"# TYPE {name} {kind}")
                for key, instrument in sorted(series.items()):
                    if kind == "histogram":
                        cumulative = 0
                        for bound, count in zip(
                            instrument.bounds, instrument.bucket_counts
                        ):
                            cumulative += count
                            bucket_key = key + (("le", f"{bound:g}"),)
                            lines.append(
                                f"{name}_bucket{_format_labels(bucket_key)} "
                                f"{cumulative}"
                            )
                        inf_key = key + (("le", "+Inf"),)
                        lines.append(
                            f"{name}_bucket{_format_labels(inf_key)} "
                            f"{instrument.count}"
                        )
                        lines.append(
                            f"{name}_sum{_format_labels(key)} {instrument.sum:g}"
                        )
                        lines.append(
                            f"{name}_count{_format_labels(key)} {instrument.count}"
                        )
                    else:
                        lines.append(
                            f"{name}{_format_labels(key)} {instrument.value:g}"
                        )
        return "\n".join(lines) + "\n"

    def save(self, path) -> pathlib.Path:
        """Write the registry to ``path``: Prometheus text for ``.prom``
        files, JSON otherwise.  Returns the path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.suffix == ".prom":
            target.write_text(self.to_prometheus())
        else:
            target.write_text(self.to_json())
        return target

    def __repr__(self) -> str:
        with self._lock:
            families = len(self._families)
            series = sum(len(s) for _, _, s in self._families.values())
        return f"MetricsRegistry({families} metrics, {series} series)"


def set_session_gauges(
    registry: MetricsRegistry, queue_depth: int | None, core, event_log
) -> None:
    """Set the point-in-time gauges of a served session.

    ``serve_queue_depth`` from ``queue_depth``; ``engine_live_campaigns``,
    ``engine_pending_campaigns`` and ``engine_clock_interval`` from the
    engine session ``core``; ``eventlog_buffered_events`` from
    ``event_log``.  A source passed as ``None`` leaves its gauges unset.
    The gateway calls this at every tick boundary and the ops server
    before every ``/metrics`` scrape, so both write the same series.
    """
    if queue_depth is not None:
        registry.gauge(
            "serve_queue_depth", "Mutating requests queued"
        ).set(queue_depth)
    if core is not None:
        registry.gauge(
            "engine_live_campaigns", "Campaigns currently live"
        ).set(core.num_live)
        registry.gauge(
            "engine_pending_campaigns",
            "Submitted campaigns awaiting admission",
        ).set(core.num_pending)
        registry.gauge(
            "engine_clock_interval", "Engine-clock interval"
        ).set(core.clock)
    if event_log is not None:
        registry.gauge(
            "eventlog_buffered_events",
            "Events appended but not yet committed",
        ).set(event_log.buffered)
