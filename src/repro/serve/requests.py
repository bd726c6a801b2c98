"""Typed gateway requests: the vocabulary clients speak to a served engine.

A serving session receives five request kinds, split by what they may do
to the engine:

* **Mutating** requests change session state and are *coalesced*: the
  gateway queues them and applies the queue at the next tick boundary, in
  arrival order, so served traffic rides the exact mid-flight
  ``submit()``/``cancel()`` paths an offline run would use.

  - :class:`SubmitCampaign` — submit one campaign for admission.
  - :class:`Cancel` — retire a campaign early (partial utility).
  - :class:`Snapshot` — checkpoint the served session to a bundle
    (tick boundaries are the only legal checkpoint points, so snapshots
    queue like mutations even though they leave engine state untouched).

* **Read** requests are answered immediately, between ticks, without
  perturbing the session:

  - :class:`Quote` — would-be pricing for a campaign shape, peeked from
    the :class:`~repro.engine.cache.PolicyCache` without counting a
    lookup (see :meth:`~repro.engine.cache.PolicyCache.peek`).
  - :class:`QueryTelemetry` — the serving telemetry summary, optionally
    with a trailing window of the per-tick series.

Every request answers with a :class:`Response`.  Requests are pure data:
frozen dataclasses that validate their fields on construction (a field
the gateway cannot serve raises a :class:`ValueError` naming it, so a
bad request is rejected where it is built rather than crashing the
session later) and round-trip through JSON dicts
(:func:`request_to_dict` / :func:`request_from_dict`), which is what lets
a :class:`RequestTrace` — a deterministic, replayable recording of timed
client traffic — be saved, loaded, merged, and carried inside checkpoint
bundles.  :meth:`RequestTrace.from_scenario` lowers a declarative
:class:`~repro.scenario.spec.Scenario` into the same trace form, so any
scenario is replayable *through* the gateway.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import pathlib
from typing import Iterable

from repro.engine.campaign import CampaignSpec
from repro.util.validation import require_fields, require_list

__all__ = [
    "DEFAULT_TENANT",
    "SubmitCampaign",
    "Quote",
    "Cancel",
    "QueryTelemetry",
    "Snapshot",
    "Response",
    "TimedRequest",
    "RequestTrace",
    "REQUEST_TYPES",
    "is_mutating",
    "request_kind",
    "request_to_dict",
    "request_from_dict",
]

#: The tenant untagged requests belong to.  A gateway that only ever
#: sees this tenant behaves (and serializes) bit-identically to the
#: pre-tenant gateway: the field is omitted from trace dicts, the
#: admission queue degenerates to one global FIFO, and no quota applies
#: unless one was configured for ``"default"`` explicitly.
DEFAULT_TENANT = "default"


def _check_spec(spec) -> None:
    if not isinstance(spec, CampaignSpec):
        raise ValueError(f"spec must be a CampaignSpec, got {spec!r}")


@dataclasses.dataclass(frozen=True)
class SubmitCampaign:
    """Submit one campaign for admission at its spec's submit interval.

    The gateway applies queued submissions at the next tick boundary
    through the engine's ordinary mid-flight ``submit()`` path, subject to
    admission control: when the live-campaign budget is exhausted the
    request is *rejected* (backpressure), never silently dropped.  A spec
    whose submit interval already passed, whose horizon outruns the
    stream, or whose id is taken is rejected with the validation message.
    """

    spec: CampaignSpec

    def __post_init__(self) -> None:
        _check_spec(self.spec)


@dataclasses.dataclass(frozen=True)
class Quote:
    """Ask what a campaign shape would be priced at, without submitting it.

    Answered by :meth:`~repro.engine.planning.CampaignPlanner.quote` from
    the policy cache via a side-effect-free peek — quoting never counts a
    cache lookup, so serving quotes cannot perturb the admission
    telemetry of the underlying run.  On a cache miss the gateway either
    answers ``cached=False`` with no price (the default) or, when
    ``solve_on_miss`` is set, solves the instance *outside* the cache
    (nothing is stored) and quotes the resulting initial price.

    Attributes
    ----------
    spec:
        The campaign shape to quote.  Its id is irrelevant to the price;
        its submit interval picks the forecast slice under ``"sliced"``
        planning.  A shape the planner refuses (too large, running past
        the stream, or unaffordable) is answered ``rejected``, exactly as
        its submission would be.
    solve_on_miss:
        Solve uncached shapes on the spot (costly but exact) instead of
        answering "not cached".
    """

    spec: CampaignSpec
    solve_on_miss: bool = False

    def __post_init__(self) -> None:
        _check_spec(self.spec)


@dataclasses.dataclass(frozen=True)
class Cancel:
    """Retire one campaign early, with the shared mid-run tolerance.

    Applied at the next tick boundary via
    :func:`~repro.scenario.driver.apply_cancellation`: a live target
    retires with partial utility, a pending one is dropped, an
    already-retired one is a deterministic no-op, and a never-seen id
    answers an error response.
    """

    campaign_id: str


@dataclasses.dataclass(frozen=True)
class QueryTelemetry:
    """Read the serving telemetry: summary counters plus an optional window.

    Attributes
    ----------
    last:
        Also return the most recent ``last`` ticks of the global per-tick
        series plus the caller's own tenant's (0 = summary only).  Any
        integer ``>= 0`` (numpy ints included, stored as ``int``).
    """

    last: int = 0

    def __post_init__(self) -> None:
        if type(self.last) is not int:
            try:
                object.__setattr__(self, "last", int(operator.index(self.last)))
            except TypeError:
                raise ValueError(
                    f"last must be an integer, got {self.last!r}"
                ) from None
        if self.last < 0:
            raise ValueError(f"last must be non-negative, got {self.last}")


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """Checkpoint the served session to a bundle directory.

    Queued like a mutation so the save lands exactly at a tick boundary,
    *after* every request that arrived before it — the bundle then
    carries the still-queued later requests in its extras, and a resumed
    gateway finishes them bit-identically.

    ``path`` accepts any ``str`` or :class:`os.PathLike` and is stored as
    ``str``, so the request serializes to JSON.
    """

    path: str

    def __post_init__(self) -> None:
        if type(self.path) is not str:
            path = self.path
            if isinstance(path, os.PathLike):
                path = os.fspath(path)
            if not isinstance(path, str):
                raise ValueError(
                    f"path must be a str or os.PathLike path, got {self.path!r}"
                )
            object.__setattr__(self, "path", path)


#: Request type tag -> class, the JSON serialization registry.
REQUEST_TYPES = {
    "submit-campaign": SubmitCampaign,
    "quote": Quote,
    "cancel": Cancel,
    "query-telemetry": QueryTelemetry,
    "snapshot": Snapshot,
}

_TYPE_TAGS = {cls: tag for tag, cls in REQUEST_TYPES.items()}

#: Field names in declaration order, what :func:`request_to_dict` walks.
_FIELD_NAMES = {
    tag: tuple(field.name for field in dataclasses.fields(cls))
    for tag, cls in REQUEST_TYPES.items()
}
_SPEC_FIELDS = tuple(field.name for field in dataclasses.fields(CampaignSpec))

#: Request kinds the gateway queues for the next tick-boundary drain.
_MUTATING = (SubmitCampaign, Cancel, Snapshot)


def is_mutating(request) -> bool:
    """True for requests the gateway coalesces into per-tick batches."""
    return isinstance(request, _MUTATING)


def request_kind(request) -> str:
    """The request's type tag without serializing it (hot-path safe)."""
    tag = _TYPE_TAGS.get(type(request))
    if tag is None:
        raise TypeError(f"unknown request type {type(request).__name__}")
    return tag


def request_to_dict(request) -> dict:
    """Serialize one request to a JSON-ready tagged dict.

    Built field by field: every request field is a scalar or a
    :class:`~repro.engine.campaign.CampaignSpec` of scalars, so this
    equals ``{"type": tag, **dataclasses.asdict(request)}``, key order
    included, without ``asdict``'s recursive deep copy.
    """
    tag = _TYPE_TAGS.get(type(request))
    if tag is None:
        raise TypeError(f"unknown request type {type(request).__name__}")
    data = {"type": tag}
    for name in _FIELD_NAMES[tag]:
        value = getattr(request, name)
        if isinstance(value, CampaignSpec):
            value = {field: getattr(value, field) for field in _SPEC_FIELDS}
        data[name] = value
    return data


def request_from_dict(data: dict) -> object:
    """Rebuild a request from its :func:`request_to_dict` form.

    Malformed input — an unknown type tag, an unknown or missing field, a
    field value the request type rejects — raises a ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"request must be a dict, got {data!r}")
    tag = data.get("type")
    cls = REQUEST_TYPES.get(tag)
    if cls is None:
        raise ValueError(f"unknown request type {tag!r}")
    kwargs = {k: v for k, v in data.items() if k != "type"}
    require_fields(f"{tag} request", kwargs, cls)
    if "spec" in kwargs:
        spec = require_fields("spec", kwargs["spec"], CampaignSpec)
        kwargs["spec"] = CampaignSpec(**spec)
    return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class Response:
    """What the gateway answers a request with.

    Attributes
    ----------
    kind:
        The request's type tag (``"submit-campaign"``, ``"quote"``, ...).
    status:
        ``"ok"`` (applied/answered), ``"rejected"`` (admission control or
        validation said no — deterministic backpressure, retry later), or
        ``"error"`` (the request could never succeed, e.g. cancelling an
        unknown id).
    tick:
        The engine-clock interval the request was answered at (reads) or
        applied at (mutations; the tick boundary it was drained into).
    detail:
        Human-readable explanation, filled on rejections and errors.
    payload:
        Kind-specific result data (quote prices, cancellation accounting,
        telemetry windows, bundle paths); JSON-ready.
    """

    kind: str
    status: str
    tick: int
    detail: str = ""
    payload: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the request was applied or answered."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """The response as a JSON-ready dict."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class TimedRequest:
    """One request of a trace: who sends what, and at which engine tick.

    Attributes
    ----------
    tick:
        Engine-clock interval the request arrives at.  Replay delivers it
        to the gateway before that interval's tick runs, so a mutating
        request lands in exactly that tick's admission batch.
    client:
        Client session id; the gateway preserves FIFO order per client
        (and, within a trace, globally — arrival order is total).
    request:
        The request itself (any :data:`REQUEST_TYPES` member).
    tenant:
        Tenant the client belongs to (:data:`DEFAULT_TENANT` when
        untagged).  Weighted-fair scheduling and quotas key on it;
        replay hands it to :meth:`Gateway.offer
        <repro.serve.gateway.Gateway.offer>` with each request.
    """

    tick: int
    client: str
    request: object
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"tick must be non-negative, got {self.tick}")
        if not self.client:
            raise ValueError("client id must be non-empty")
        if not self.tenant:
            raise ValueError("tenant id must be non-empty")
        if type(self.request) not in _TYPE_TAGS:
            raise TypeError(
                f"unknown request type {type(self.request).__name__}"
            )


@dataclasses.dataclass(frozen=True)
class RequestTrace:
    """A deterministic, replayable recording of timed client traffic.

    The serving layer's equivalent of a scenario spec: pure data, sorted
    by arrival tick (stable, so same-tick arrival order is preserved),
    JSON round-trippable, and — replayed through
    :meth:`~repro.serve.gateway.Gateway.replay` — bit-identical across
    checkpoint/resume boundaries.

    Attributes
    ----------
    name:
        Trace identifier (reports, golden traces).
    requests:
        The timed requests, in arrival order.
    """

    name: str
    requests: tuple[TimedRequest, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("trace name must be non-empty")
        ordered = tuple(
            sorted(self.requests, key=lambda r: r.tick)  # stable: ties keep order
        )
        object.__setattr__(self, "requests", ordered)

    @property
    def num_requests(self) -> int:
        """Requests in the trace."""
        return len(self.requests)

    def merge(self, other: "RequestTrace", name: str | None = None) -> "RequestTrace":
        """Interleave two traces by arrival tick (stable: self before other).

        How a scenario replay and synthetic client traffic combine into
        one served workload — e.g. the golden serve trace rides a canned
        ``flash-crowd`` scenario with a load-generator client mix on top.
        """
        return RequestTrace(
            name=name if name is not None else f"{self.name}+{other.name}",
            requests=self.requests + other.requests,
        )

    # ------------------------------------------------------------------
    # Scenarios as traces
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(
        cls, scenario, num_intervals: int, client: str = "scenario"
    ) -> "RequestTrace":
        """Lower a :class:`~repro.scenario.spec.Scenario` into a trace.

        Submission waves become :class:`SubmitCampaign` requests at their
        wave tick and timeline cancellations become :class:`Cancel`
        requests at theirs (submissions before cancellations at the same
        tick, matching :meth:`ScenarioDriver.step
        <repro.scenario.driver.ScenarioDriver.step>` order), so replaying
        the trace through a gateway reproduces the scenario's engine
        telemetry bit-for-bit.  Rate modulation is not part of the trace:
        install ``timeline.rate_multipliers`` when starting the gateway
        session.
        """
        timeline = scenario.compile(num_intervals)
        requests: list[TimedRequest] = []
        cancels = {
            t: list(ids) for t, ids in timeline.cancellations.items()
        }
        ticks = sorted(
            {t for t, _ in timeline.submissions} | set(cancels)
        )
        waves = dict(timeline.submissions)
        for t in ticks:
            for spec in waves.get(t, ()):
                requests.append(TimedRequest(t, client, SubmitCampaign(spec)))
            for campaign_id in cancels.get(t, ()):
                requests.append(TimedRequest(t, client, Cancel(campaign_id)))
        return cls(name=scenario.name, requests=tuple(requests))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The trace as a JSON-ready dict.

        The ``tenant`` key is written only for non-default tenants, so a
        single-tenant trace serializes byte-identically to a pre-tenant
        one (the golden traces rely on this).
        """
        return {
            "name": self.name,
            "requests": [
                {
                    "tick": r.tick,
                    "client": r.client,
                    **(
                        {"tenant": r.tenant}
                        if r.tenant != DEFAULT_TENANT
                        else {}
                    ),
                    "request": request_to_dict(r.request),
                }
                for r in self.requests
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestTrace":
        """Rebuild a trace from its :meth:`to_dict` form.

        Malformed input raises a ``ValueError`` naming the field.
        """
        require_fields("trace", data, cls)
        requests = []
        for i, entry in enumerate(
            require_list("trace field 'requests'", data["requests"])
        ):
            where = f"trace requests[{i}]"
            require_fields(where, entry, TimedRequest)
            try:
                tick = int(entry["tick"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where} field 'tick' must be an integer, got "
                    f"{entry['tick']!r}"
                ) from None
            try:
                requests.append(
                    TimedRequest(
                        tick=tick,
                        client=entry["client"],
                        request=request_from_dict(entry["request"]),
                        tenant=entry.get("tenant", DEFAULT_TENANT),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc
        return cls(name=data["name"], requests=tuple(requests))

    def with_tenant(self, tenant: str) -> "RequestTrace":
        """The same trace with every request re-tagged to ``tenant``.

        How an untagged workload (a lowered scenario, a load-generator
        draw) becomes one tenant's traffic in a multi-tenant run — the
        fairness benchmark and the tenant-mode invariance guard both
        build their workloads this way.
        """
        return RequestTrace(
            name=self.name,
            requests=tuple(
                dataclasses.replace(r, tenant=tenant) for r in self.requests
            ),
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the trace to ``path`` as JSON; returns the path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=1))
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RequestTrace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    def __iter__(self) -> Iterable[TimedRequest]:
        return iter(self.requests)
