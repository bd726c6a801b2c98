"""Incremental outcome accounting: the streaming side of the engine.

Historically the engine *materialized* its history — every retired
:class:`~repro.engine.campaign.CampaignOutcome` was appended to an
unbounded list, :class:`~repro.engine.clock.EngineResult` re-scanned that
list for every aggregate property, and checkpoints serialized all of it.
At millions of campaigns that is the memory bottleneck (PIMDAL's lesson:
aggregation workloads are bound by data movement, not compute).  This
module is the O(live) replacement:

* :class:`OutcomeAggregate` — every aggregate the engine reports, folded
  **incrementally** as campaigns retire: totals, per-kind counts, and a
  chained SHA-256 checksum over the canonical record stream, so two runs
  can be compared bit-for-bit without either holding its outcomes.
* :class:`OutcomeSink` — the boundary between the tick loop and outcome
  storage.  Every retirement is folded into the aggregate; *optionally*
  the sink also keeps the materialized list (the legacy default — every
  existing API keeps working) and/or spills each outcome as one JSON
  line to disk for full-fidelity replay.
* :func:`replay_outcomes` — iterate a spill file back into
  :class:`CampaignOutcome` objects (specs included), in retirement order.

Determinism: outcomes are folded in retirement order, which the engine's
contract fixes independent of shard count, kernel backend, or
checkpoint/resume cuts — so the aggregate (checksum included) is itself
a deterministic fingerprint of the run.  Float totals are summed in that
same fixed order, keeping them bit-identical across modes too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pathlib
from typing import Iterable, Iterator

from repro.engine.campaign import DEADLINE, CampaignOutcome, CampaignSpec

__all__ = [
    "OutcomeAggregate",
    "OutcomeSink",
    "outcome_record",
    "outcome_from_record",
    "replay_outcomes",
]


#: ``CampaignSpec`` fields in declaration order, the keys of a record's
#: ``"spec"``.  Every field is a scalar, so reading them one by one gives
#: what ``dataclasses.asdict`` would, without its per-call deep copy.
_SPEC_FIELDS = tuple(field.name for field in dataclasses.fields(CampaignSpec))

#: The one encoder every canonical record goes through (``json.dumps``
#: with these options would build a fresh encoder per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def outcome_record(outcome: CampaignOutcome, with_spec: bool = True) -> dict:
    """One outcome as a canonical JSON-ready dict.

    The single serialization used by the aggregate checksum, the spill
    file, and checkpoint manifests, so the three can never disagree on
    what an outcome *is*.  ``with_spec=False`` drops the embedded spec
    (checkpoint manifests key outcomes by id against their stored specs).
    """
    record = {
        "campaign_id": outcome.spec.campaign_id,
        "completed": outcome.completed,
        "remaining": outcome.remaining,
        "total_cost": outcome.total_cost,
        "penalty": outcome.penalty,
        "finished_interval": outcome.finished_interval,
        "cache_hit": outcome.cache_hit,
        "num_solves": outcome.num_solves,
        "cancelled": outcome.cancelled,
    }
    if with_spec:
        spec = outcome.spec
        record["spec"] = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    return record


def outcome_from_record(
    record: dict, spec: CampaignSpec | None = None
) -> CampaignOutcome:
    """Rebuild a :class:`CampaignOutcome` from :func:`outcome_record`.

    ``spec`` overrides the embedded one (checkpoint restores pass the
    already-rebuilt spec); records written with ``with_spec=False`` must
    provide it.
    """
    if spec is None:
        spec = CampaignSpec(**record["spec"])
    return CampaignOutcome(
        spec=spec,
        completed=record["completed"],
        remaining=record["remaining"],
        total_cost=record["total_cost"],
        penalty=record["penalty"],
        finished_interval=record["finished_interval"],
        cache_hit=record["cache_hit"],
        num_solves=record["num_solves"],
        cancelled=record.get("cancelled", False),
    )


def _canonical_bytes(record: dict) -> bytes:
    """The byte form the checksum chain and the spill file both write."""
    return _ENCODER.encode(record).encode()


class OutcomeAggregate:
    """Every engine-level outcome aggregate, folded one retirement at a time.

    All reads are O(1); :meth:`fold` is O(1) per outcome.  The running
    ``checksum`` chains SHA-256 over each outcome's canonical record in
    fold order — equal aggregates (operator ``==`` compares the full
    state, checksum included) mean the two runs retired *identical
    outcomes in identical order*, which is how the streaming-mode
    differential tests compare runs without materializing either side.
    """

    __slots__ = (
        "num_campaigns",
        "total_completed",
        "total_remaining",
        "total_cost",
        "total_penalty",
        "num_deadline",
        "num_adaptive",
        "num_cancelled",
        "num_cache_hits",
        "num_finished",
        "total_solves",
        "_digest",
    )

    def __init__(self) -> None:
        self.num_campaigns = 0
        self.total_completed = 0
        self.total_remaining = 0
        self.total_cost = 0.0
        self.total_penalty = 0.0
        self.num_deadline = 0
        self.num_adaptive = 0
        self.num_cancelled = 0
        self.num_cache_hits = 0
        self.num_finished = 0
        self.total_solves = 0
        self._digest = b"\x00" * 32

    def fold(self, outcome: CampaignOutcome) -> bytes:
        """Absorb one retired campaign into every aggregate.

        Returns the outcome's canonical record bytes (what the checksum
        chain hashed), so a spilling sink writes them without a second
        encode.
        """
        self.num_campaigns += 1
        self.total_completed += outcome.completed
        self.total_remaining += outcome.remaining
        self.total_cost += outcome.total_cost
        self.total_penalty += outcome.penalty
        if outcome.spec.kind == DEADLINE:
            self.num_deadline += 1
        if outcome.spec.adaptive:
            self.num_adaptive += 1
        if outcome.cancelled:
            self.num_cancelled += 1
        if outcome.cache_hit:
            self.num_cache_hits += 1
        if outcome.remaining == 0:
            self.num_finished += 1
        self.total_solves += outcome.num_solves
        data = _canonical_bytes(outcome_record(outcome))
        self._digest = hashlib.sha256(self._digest + data).digest()
        return data

    @property
    def checksum(self) -> str:
        """Hex digest of the chained outcome-record hash (fold order)."""
        return self._digest.hex()

    @property
    def num_budget(self) -> int:
        """Budget-kind campaigns retired."""
        return self.num_campaigns - self.num_deadline

    @property
    def completion_rate(self) -> float:
        """Fraction of all submitted tasks that finished."""
        total = self.total_completed + self.total_remaining
        return self.total_completed / total if total else 0.0

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[CampaignOutcome]) -> "OutcomeAggregate":
        """Fold an already-materialized outcome sequence (legacy bridge)."""
        agg = cls()
        for outcome in outcomes:
            agg.fold(outcome)
        return agg

    def copy(self) -> "OutcomeAggregate":
        """An independent snapshot (results freeze the aggregate they saw)."""
        twin = OutcomeAggregate()
        for slot in self.__slots__:
            setattr(twin, slot, getattr(self, slot))
        return twin

    def to_dict(self) -> dict:
        """JSON-ready state (bit-exact round trip through ``from_dict``)."""
        return {
            "num_campaigns": self.num_campaigns,
            "total_completed": self.total_completed,
            "total_remaining": self.total_remaining,
            "total_cost": self.total_cost,
            "total_penalty": self.total_penalty,
            "num_deadline": self.num_deadline,
            "num_adaptive": self.num_adaptive,
            "num_cancelled": self.num_cancelled,
            "num_cache_hits": self.num_cache_hits,
            "num_finished": self.num_finished,
            "total_solves": self.total_solves,
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OutcomeAggregate":
        """Rebuild an aggregate (checkpoint restores resume the chain)."""
        agg = cls()
        agg.num_campaigns = int(data["num_campaigns"])
        agg.total_completed = int(data["total_completed"])
        agg.total_remaining = int(data["total_remaining"])
        agg.total_cost = float(data["total_cost"])
        agg.total_penalty = float(data["total_penalty"])
        agg.num_deadline = int(data["num_deadline"])
        agg.num_adaptive = int(data["num_adaptive"])
        agg.num_cancelled = int(data["num_cancelled"])
        agg.num_cache_hits = int(data["num_cache_hits"])
        agg.num_finished = int(data["num_finished"])
        agg.total_solves = int(data["total_solves"])
        agg._digest = bytes.fromhex(data["checksum"])
        return agg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomeAggregate):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"OutcomeAggregate({self.num_campaigns} campaigns, "
            f"{self.total_completed} completed, "
            f"checksum {self.checksum[:12]}...)"
        )


class OutcomeSink:
    """Where retired campaigns go: fold, optionally keep, optionally spill.

    Parameters
    ----------
    keep:
        Retain the materialized outcome list (and a retired-id index) in
        memory.  The legacy default — ``core.outcomes`` and
        ``result.outcomes`` stay populated.  ``keep=False`` is streaming
        mode: memory stays O(live) and only the aggregate (plus any
        spill) survives.
    spill_path:
        Optional JSONL file receiving one canonical record per outcome
        (spec embedded) in retirement order — the full-fidelity replay
        channel for streaming runs; read it back with
        :func:`replay_outcomes`.
    resume_offset:
        Internal (checkpoint restore): byte offset to truncate the spill
        file to before appending, so post-resume lines continue exactly
        where the snapshot left off.  ``None`` starts a fresh file.
    """

    def __init__(
        self,
        keep: bool = True,
        spill_path: str | pathlib.Path | None = None,
        resume_offset: int | None = None,
    ) -> None:
        self.keep = keep
        self.spill_path = None if spill_path is None else pathlib.Path(spill_path)
        self.outcomes: list[CampaignOutcome] = []
        self.aggregate = OutcomeAggregate()
        self._retired_ids: set[str] = set()
        self.spill_count = 0
        self._spill: io.BufferedWriter | None = None
        self._spill_offset = 0
        if self.spill_path is not None:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            if resume_offset is None:
                self._spill = open(self.spill_path, "wb")
            else:
                if not self.spill_path.is_file():
                    if resume_offset:
                        raise ValueError(
                            f"cannot resume outcome spill at {self.spill_path}:"
                            f" the file is missing but {resume_offset} bytes "
                            "were already spilled (replay fidelity would be "
                            "silently lost)"
                        )
                    self._spill = open(self.spill_path, "wb")
                else:
                    fh = open(self.spill_path, "r+b")
                    fh.truncate(resume_offset)
                    fh.seek(resume_offset)
                    self._spill = fh
                    self._spill_offset = resume_offset

    @property
    def spill_offset(self) -> int:
        """Bytes of spill written so far (what checkpoints persist)."""
        return self._spill_offset

    def append(self, outcome: CampaignOutcome) -> None:
        """Fold one retirement (and keep/spill it per the sink's policy)."""
        data = self.aggregate.fold(outcome)
        if self.keep:
            self.outcomes.append(outcome)
            self._retired_ids.add(outcome.spec.campaign_id)
        if self._spill is not None:
            line = data + b"\n"
            self._spill.write(line)
            self._spill_offset += len(line)
            self.spill_count += 1

    def extend(self, outcomes: Iterable[CampaignOutcome]) -> None:
        """Fold a batch in order (one tick's retirements)."""
        for outcome in outcomes:
            self.append(outcome)

    def has_retired(self, campaign_id: str) -> bool:
        """O(1): did this campaign retire through the sink?

        Only answerable when the sink keeps outcomes; in streaming mode
        the retired set is exactly what we refuse to hold, so this
        returns ``False`` and callers must treat unknown ids leniently
        (see :func:`repro.scenario.driver.apply_cancellation`).
        """
        return campaign_id in self._retired_ids

    def restore(
        self,
        aggregate: OutcomeAggregate,
        outcomes: Iterable[CampaignOutcome] = (),
    ) -> None:
        """Install checkpointed state without re-folding or re-spilling.

        The aggregate arrives verbatim from the manifest (its checksum
        chain continues where the snapshot stopped), and ``outcomes``
        repopulates the kept list when the sink keeps one.  Spill state
        is positioned by the constructor's ``resume_offset``.
        """
        self.aggregate = aggregate
        if self.keep:
            self.outcomes = list(outcomes)
            self._retired_ids = {o.spec.campaign_id for o in self.outcomes}
        self.spill_count = self.aggregate.num_campaigns if self._spill is not None else 0

    def flush(self) -> None:
        """Push buffered spill lines to the OS (checkpoint saves call this)."""
        if self._spill is not None:
            self._spill.flush()

    def close(self) -> None:
        """Close the spill file; aggregates and kept outcomes stay readable."""
        if self._spill is not None:
            self._spill.close()
            self._spill = None

    def __repr__(self) -> str:
        mode = "keep" if self.keep else "stream"
        spill = f", spill={self.spill_path}" if self.spill_path else ""
        return (
            f"OutcomeSink({mode}, {self.aggregate.num_campaigns} folded{spill})"
        )


def replay_outcomes(
    path: str | pathlib.Path,
) -> Iterator[CampaignOutcome]:
    """Stream a spill file back as :class:`CampaignOutcome` objects.

    Yields outcomes in retirement order without loading the file into
    memory — the replay half of the spill contract: a streaming run plus
    its spill is informationally identical to a materialized run.
    """
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield outcome_from_record(json.loads(line))
