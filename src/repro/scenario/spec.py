"""Scenario specs: a named, seeded, JSON-serializable event timeline.

A :class:`Scenario` bundles a name, a seed, and a tuple of events
(:mod:`repro.scenario.events`) into one declarative description of a
stress workload.  It is pure data: everything random about a scenario is
derived from its seed, so the same spec always yields the same campaigns,
the same shocks, and — run on the same engine configuration — the same
telemetry (the determinism contract in ``docs/scenarios.md``).

``Scenario.compile(num_intervals)`` lowers the events onto a concrete
stream horizon, producing a :class:`Timeline`: submission waves keyed by
tick, cancellations keyed by tick, and one per-interval rate-multiplier
array (all modulation events composed multiplicatively).  The compiler is
deterministic and side-effect free, which is what lets a checkpoint
resume recompile the timeline from the spec instead of serializing it.

JSON form::

    {
      "name": "black-friday",
      "seed": 7,
      "description": "...",
      "events": [
        {"type": "campaign-churn", "start": 0, "stop": 40, "every": 8,
         "per_wave": 2, "templates": ["dl-small"], "adaptive_fraction": 0.5,
         "prefix": "churn"},
        {"type": "demand-shock", "start": 20, "stop": 30, "factor": 2.5},
        {"type": "rate-schedule", "multipliers": [1.2, 0.7], "every": 12,
         "start": 0},
        {"type": "cancellation", "tick": 25, "campaign_id": "churn0-008-00"}
      ]
    }
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

from repro.engine.campaign import CampaignSpec
from repro.engine.workload import DEFAULT_TEMPLATES, CampaignTemplate
from repro.scenario.events import (
    CampaignChurn,
    Cancellation,
    DemandShock,
    RateSchedule,
    event_from_dict,
    event_to_dict,
)
from repro.util.validation import require_fields, require_list

__all__ = ["Scenario", "Timeline", "churn_specs"]

#: Sub-stream tag keeping churn draws independent of engine run seeds.
_CHURN_STREAM = 0xC42

#: Default template pool, by name.
_TEMPLATES_BY_NAME = {t.name: t for t in DEFAULT_TEMPLATES}


def churn_specs(
    event: CampaignChurn,
    num_intervals: int,
    seed: int,
    event_index: int,
) -> list[CampaignSpec]:
    """Materialize one churn event's campaign submissions.

    Fully determined by ``(event, num_intervals, seed, event_index)``:
    the generator is keyed by the scenario seed, the churn sub-stream
    tag, and the event's position in the scenario, so recompiling after
    a checkpoint resume reproduces the exact same campaigns.  Campaign
    ids are ``{prefix}{event_index}-{wave_tick:03d}-{j:02d}``.
    """
    pool = resolve_templates(event.templates)
    rng = np.random.default_rng([seed, _CHURN_STREAM, event_index])
    specs: list[CampaignSpec] = []
    for tick in event.wave_ticks(num_intervals):
        fitting = [t for t in pool if tick + t.horizon_intervals <= num_intervals]
        for j in range(event.per_wave):
            if not fitting:
                break
            template = fitting[int(rng.integers(len(fitting)))]
            adaptive = bool(rng.random() < event.adaptive_fraction)
            specs.append(
                template.spec(
                    campaign_id=f"{event.prefix}{event_index}-{tick:03d}-{j:02d}",
                    submit_interval=tick,
                    adaptive=adaptive,
                )
            )
    return specs


def resolve_templates(names: tuple[str, ...]) -> list[CampaignTemplate]:
    """Map template names to the default pool (empty = the whole pool)."""
    if not names:
        return list(DEFAULT_TEMPLATES)
    unknown = [n for n in names if n not in _TEMPLATES_BY_NAME]
    if unknown:
        raise ValueError(
            f"unknown workload templates {unknown} "
            f"(known: {sorted(_TEMPLATES_BY_NAME)})"
        )
    return [_TEMPLATES_BY_NAME[n] for n in names]


@dataclasses.dataclass(frozen=True)
class Timeline:
    """One scenario lowered onto a concrete stream horizon.

    Attributes
    ----------
    submissions:
        Submission waves as ``(tick, specs)`` pairs, sorted by tick; the
        driver pushes each wave through ``engine.submit()`` when the
        clock reaches its tick (or earlier, to wake an idle clock —
        queueing consumes no randomness, so both are equivalent).
    cancellations:
        ``tick -> campaign ids`` cancelled at that tick's boundary.
    rate_multipliers:
        Per-interval arrival-rate factors, every modulation event
        composed multiplicatively (all ones when unmodulated).
    """

    submissions: tuple[tuple[int, tuple[CampaignSpec, ...]], ...]
    cancellations: dict[int, tuple[str, ...]]
    rate_multipliers: np.ndarray

    @property
    def num_campaigns(self) -> int:
        """Total campaigns the timeline will submit."""
        return sum(len(specs) for _, specs in self.submissions)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A declarative stress workload: named, seeded, serializable.

    Attributes
    ----------
    name:
        Scenario identifier (also used in reports and golden traces).
    seed:
        The scenario seed: drives churn draws *and* the engine session
        the driver opens, so one integer pins the entire run.
    events:
        The event timeline (:mod:`repro.scenario.events` types, any mix).
    description:
        One-line human description (surfaced by ``--list-scenarios``).
    """

    name: str
    seed: int = 0
    events: tuple = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        object.__setattr__(self, "events", tuple(self.events))

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, num_intervals: int) -> Timeline:
        """Lower the events onto a ``num_intervals`` stream horizon.

        Deterministic and side-effect free.  Raises :class:`ValueError`
        when a cancellation tick lies beyond the horizon (it could never
        be applied — almost certainly a spec typo).
        """
        if num_intervals <= 0:
            raise ValueError(
                f"num_intervals must be positive, got {num_intervals}"
            )
        waves: dict[int, list[CampaignSpec]] = {}
        cancels: dict[int, list[str]] = {}
        multipliers = np.ones(num_intervals)
        for index, event in enumerate(self.events):
            if isinstance(event, CampaignChurn):
                for spec in churn_specs(event, num_intervals, self.seed, index):
                    waves.setdefault(spec.submit_interval, []).append(spec)
            elif isinstance(event, DemandShock):
                multipliers *= event.multipliers(num_intervals)
            elif isinstance(event, RateSchedule):
                multipliers *= event.multipliers_over(num_intervals)
            elif isinstance(event, Cancellation):
                if event.tick >= num_intervals:
                    raise ValueError(
                        f"cancellation of {event.campaign_id!r} at tick "
                        f"{event.tick} lies beyond the {num_intervals}-"
                        "interval stream"
                    )
                cancels.setdefault(event.tick, []).append(event.campaign_id)
            else:
                raise TypeError(
                    f"unknown scenario event {type(event).__name__}"
                )
        return Timeline(
            submissions=tuple(
                (tick, tuple(waves[tick])) for tick in sorted(waves)
            ),
            cancellations={t: tuple(ids) for t, ids in cancels.items()},
            rate_multipliers=multipliers,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The scenario as a JSON-ready dict (see the module docstring)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "events": [event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from its :meth:`to_dict` form.

        Malformed input raises a ``ValueError`` naming the field.
        """
        require_fields("scenario", data, cls)
        events = []
        for i, entry in enumerate(
            require_list("scenario field 'events'", data.get("events", []))
        ):
            try:
                events.append(event_from_dict(entry))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"scenario events[{i}]: {exc}") from exc
        try:
            seed = int(data.get("seed", 0))
        except (TypeError, ValueError):
            raise ValueError(
                f"scenario field 'seed' must be an integer, got "
                f"{data['seed']!r}"
            ) from None
        return cls(
            name=data["name"],
            seed=seed,
            events=tuple(events),
            description=data.get("description", ""),
        )

    def to_json(self, indent: int | None = 1) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from a JSON string."""
        return cls.from_dict(json.loads(text))

    def dump(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the scenario spec to ``path`` as JSON; returns the path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Scenario":
        """Read a scenario spec previously written by :meth:`dump`."""
        return cls.from_json(pathlib.Path(path).read_text())
