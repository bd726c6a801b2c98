"""Event vocabulary for the durable event log.

An :class:`Event` is one row in the append-only log: something that
happened to the run at a known tick.  The vocabulary
(:data:`EVENT_KINDS`) spans every layer the log observes:

``admission``
    An engine tick admitted a batch of campaigns (one event per batch,
    campaign ids in the payload — mirrors ``EngineCore``'s admission
    log).
``cancel``
    A campaign was cancelled (payload carries the shared
    cancelled/dropped/retired outcome from the scenario layer).
``tick``
    A tick-summary row: the deterministic per-tick counters a
    :class:`~repro.engine.telemetry.Telemetry` collector would record.
``request`` / ``response``
    A serve-layer request was offered / resolved.  Request events are
    the recovery-critical rows: after ``kill -9`` they are what
    reconstructs the request tail beyond the last checkpoint.
``checkpoint``
    A checkpoint bundle was saved (payload: bundle id, last event seq).
``run``
    Run lifecycle marker (started / finished, configuration summary).

Events are JSON-ready and deliberately flat: fixed columns that queries
filter on (``tick``, ``kind``, ``campaign_id``, ``client``,
``trace_id``) plus a free-form JSON ``payload`` for everything else.
The sequence number is assigned by the log at append time, not by the
producer.
"""

from __future__ import annotations

import dataclasses
import json

__all__ = ["EVENT_KINDS", "Event"]

#: Every kind the log accepts; appends with other kinds are rejected.
EVENT_KINDS = (
    "admission",
    "cancel",
    "tick",
    "request",
    "response",
    "checkpoint",
    "run",
)


@dataclasses.dataclass(frozen=True)
class Event:
    """One immutable log row.

    ``seq`` is ``None`` until the log assigns it (append order == seq
    order, gap-free).  ``campaign_id``, ``client``, and ``trace_id`` are
    optional filter columns; anything else goes in ``payload``.
    """

    kind: str
    tick: int
    payload: dict = dataclasses.field(default_factory=dict)
    campaign_id: str | None = None
    client: str | None = None
    trace_id: str | None = None
    seq: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r} "
                f"(expected one of {', '.join(EVENT_KINDS)})"
            )

    # ------------------------------------------------------------------
    # sqlite row conversion
    # ------------------------------------------------------------------
    def to_row(self) -> tuple:
        """The ``(tick, kind, campaign_id, client, trace_id, payload)``
        columns the log's INSERT binds after ``seq``, the rowid."""
        return (
            int(self.tick),
            self.kind,
            self.campaign_id,
            self.client,
            self.trace_id,
            json.dumps(self.payload, sort_keys=True),
        )

    @classmethod
    def from_row(cls, row) -> "Event":
        """Rebuild an event from a ``SELECT seq, tick, kind, campaign_id,
        client, trace_id, payload`` row."""
        seq, tick, kind, campaign_id, client, trace_id, payload = row
        return cls(
            kind=kind,
            tick=tick,
            payload=json.loads(payload),
            campaign_id=campaign_id,
            client=client,
            trace_id=trace_id,
            seq=seq,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict (``repro engine analytics --format json``)."""
        return {
            "seq": self.seq,
            "tick": self.tick,
            "kind": self.kind,
            "campaign_id": self.campaign_id,
            "client": self.client,
            "trace_id": self.trace_id,
            "payload": self.payload,
        }
