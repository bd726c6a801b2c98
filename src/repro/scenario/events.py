"""Declarative scenario events: the vocabulary of stress timelines.

A :class:`~repro.scenario.spec.Scenario` is a list of *events*, each a
frozen dataclass describing one way the workload or the marketplace
changes mid-run:

* :class:`CampaignChurn` — new campaigns keep arriving while the engine
  serves: waves of template-drawn submissions pushed through the ordinary
  ``submit()`` path at their wave tick.
* :class:`DemandShock` — a one-off surge or drought: the shared stream's
  arrival rate is multiplied by ``factor`` over ``[start, stop)``.
* :class:`RateSchedule` — recurring modulation (day/night, weekday
  cycles): a multiplier pattern applied cyclically, each value holding
  for ``every`` ticks.
* :class:`Cancellation` — a requester withdraws: one campaign is retired
  early at a tick boundary, reporting partial utility.

Events are pure data — they validate themselves, serialize to/from JSON
dicts (``to_dict`` / :func:`event_from_dict`), and are *compiled* by
:meth:`Scenario.compile <repro.scenario.spec.Scenario.compile>` into the
concrete per-tick actions a :class:`~repro.scenario.driver.ScenarioDriver`
applies.  Nothing here touches an engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.util.validation import require_fields

__all__ = [
    "CampaignChurn",
    "DemandShock",
    "RateSchedule",
    "Cancellation",
    "EVENT_TYPES",
    "event_from_dict",
    "event_to_dict",
]


@dataclasses.dataclass(frozen=True)
class CampaignChurn:
    """Waves of new campaigns arriving while the engine is serving.

    At every wave tick ``start, start + every, ...`` (strictly before
    ``stop``), ``per_wave`` campaigns are drawn from the named workload
    templates and submitted through the engine's ordinary ``submit()``
    path with that tick as their submit interval.  Draws come from a
    generator keyed by the scenario seed and the event's position, so the
    churn stream is fully determined by the scenario spec.

    Attributes
    ----------
    start:
        First wave tick.
    stop:
        Waves stop strictly before this tick (clipped to the stream
        horizon at compile time).
    every:
        Ticks between waves.
    per_wave:
        Campaigns submitted per wave.
    templates:
        Names from :data:`~repro.engine.workload.DEFAULT_TEMPLATES` to
        draw from; empty means the whole default pool.  Templates whose
        horizon no longer fits the stream are skipped deterministically.
    adaptive_fraction:
        Probability a drawn *deadline* campaign re-plans adaptively.
    prefix:
        Campaign-id prefix (the compiler appends the event index, wave
        tick, and within-wave counter, keeping ids unique).
    """

    start: int
    stop: int
    every: int = 1
    per_wave: int = 1
    templates: tuple[str, ...] = ()
    adaptive_fraction: float = 0.0
    prefix: str = "churn"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.stop <= self.start:
            raise ValueError(
                f"stop must exceed start, got [{self.start}, {self.stop})"
            )
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.per_wave < 1:
            raise ValueError(f"per_wave must be >= 1, got {self.per_wave}")
        if not 0.0 <= self.adaptive_fraction <= 1.0:
            raise ValueError(
                f"adaptive_fraction must lie in [0, 1], got {self.adaptive_fraction}"
            )
        if not self.prefix:
            raise ValueError("prefix must be non-empty")
        object.__setattr__(self, "templates", tuple(self.templates))

    def wave_ticks(self, num_intervals: int) -> range:
        """The wave ticks that fit a ``num_intervals`` stream."""
        return range(self.start, min(self.stop, num_intervals), self.every)


@dataclasses.dataclass(frozen=True)
class DemandShock:
    """A one-off arrival surge or drought over a tick window.

    Every interval in ``[start, stop)`` has its arrival *rate* multiplied
    by ``factor`` (>1 surge, <1 drought).  Scaling the rate keeps the
    modulated stream Poisson, so the factored arrival model's
    per-campaign split still holds.  Overlapping modulation events
    compose multiplicatively.
    """

    start: int
    stop: int
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.stop <= self.start:
            raise ValueError(
                f"stop must exceed start, got [{self.start}, {self.stop})"
            )
        if not np.isfinite(self.factor) or self.factor < 0:
            raise ValueError(
                f"factor must be finite and non-negative, got {self.factor}"
            )

    def multipliers(self, num_intervals: int) -> np.ndarray:
        """This event's per-interval factors over a ``num_intervals`` stream."""
        out = np.ones(num_intervals)
        out[self.start : self.stop] = self.factor
        return out


@dataclasses.dataclass(frozen=True)
class RateSchedule:
    """Cyclic arrival-rate modulation (day/night, weekday patterns).

    From tick ``start`` on, the pattern ``multipliers`` is applied
    cyclically with each value holding for ``every`` consecutive ticks:
    tick ``t`` gets ``multipliers[((t - start) // every) % len]``.  Ticks
    before ``start`` are unmodulated.  Composes multiplicatively with
    other modulation events.
    """

    multipliers: tuple[float, ...]
    every: int
    start: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "multipliers", tuple(float(m) for m in self.multipliers)
        )
        if not self.multipliers:
            raise ValueError("multipliers must be non-empty")
        arr = np.asarray(self.multipliers)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("multipliers must be finite and non-negative")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")

    def multipliers_over(self, num_intervals: int) -> np.ndarray:
        """This event's per-interval factors over a ``num_intervals`` stream."""
        out = np.ones(num_intervals)
        ticks = np.arange(self.start, num_intervals)
        if ticks.size:
            pattern = np.asarray(self.multipliers)
            out[self.start :] = pattern[
                ((ticks - self.start) // self.every) % pattern.size
            ]
        return out


@dataclasses.dataclass(frozen=True)
class Cancellation:
    """Retire one campaign early at a tick boundary.

    Applied by the driver *before* interval ``tick`` runs.  A live target
    is retired with its partial utility (no terminal penalty); a pending
    target is dropped from the queue; a target that already retired
    naturally makes the event a deterministic no-op.
    """

    tick: int
    campaign_id: str

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"tick must be non-negative, got {self.tick}")
        if not self.campaign_id:
            raise ValueError("campaign_id must be non-empty")


#: JSON type tag -> event class.
EVENT_TYPES: dict[str, type] = {
    "campaign-churn": CampaignChurn,
    "demand-shock": DemandShock,
    "rate-schedule": RateSchedule,
    "cancellation": Cancellation,
}

_TYPE_TAGS = {cls: tag for tag, cls in EVENT_TYPES.items()}


def event_to_dict(event) -> dict:
    """Serialize one event to a JSON-ready dict with a ``type`` tag."""
    tag = _TYPE_TAGS.get(type(event))
    if tag is None:
        raise TypeError(
            f"{type(event).__name__} is not a scenario event "
            f"(known: {sorted(EVENT_TYPES)})"
        )
    data = dataclasses.asdict(event)
    for key, value in data.items():
        if isinstance(value, tuple):
            data[key] = list(value)
    return {"type": tag, **data}


def event_from_dict(data: dict) -> object:
    """Rebuild an event from its :func:`event_to_dict` form."""
    if not isinstance(data, dict):
        raise ValueError(
            f"scenario event must be a JSON object, got {type(data).__name__}"
        )
    payload = dict(data)
    tag = payload.pop("type", None)
    cls = EVENT_TYPES.get(tag)
    if cls is None:
        raise ValueError(
            f"unknown scenario event type {tag!r} (known: {sorted(EVENT_TYPES)})"
        )
    require_fields(f"{tag} event", payload, cls)
    for field in dataclasses.fields(cls):
        if field.name in payload and isinstance(payload[field.name], list):
            payload[field.name] = tuple(payload[field.name])
    return cls(**payload)
