"""Pieces every workload module shares: the round record and output checks.

This module imports nothing from ``repro``, so ``run.py`` can load it
before the timed import of a workload.
"""

from __future__ import annotations

import dataclasses


class CheckFailed(Exception):
    """A workload produced outputs that fail its correctness checks."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass
class Round:
    """What one execution of a workload produced and how long it took.

    Attributes
    ----------
    seed:
        The input seed of this round.
    setup_s:
        Engine/gateway construction plus ``start``; input generation is
        not included.
    wall_s:
        Wall-clock of the measured region (the tick loop or the replay),
        less the reference probes timed inside it.
    retired:
        Campaigns retired with an outcome.
    attempted, failed:
        Operations attempted and how many failed: campaigns submitted and
        campaigns left without an outcome for the engine workloads,
        requests offered and ``error``/``rejected`` responses for the
        serving workload.
    fingerprint:
        The round's output fingerprint (engine checksum, or the digest of
        response statuses plus the engine checksum).
    tick_s:
        Wall seconds of every engine tick, in order (for the serving
        workload, everything between two ticks but the offers).
    read_s:
        Client-side offer-to-response seconds of every read request.
    span_s, probe_s:
        The round split at tick boundaries, and the reference probe timed
        at the start and at every boundary (:mod:`pacing`); both empty
        for a traced round.
    requests:
        Requests answered (serving workload only).
    layer:
        Deterministic per-layer figures taken from the program's own
        results (cache counters, queue waits, telemetry size).
    """

    seed: int
    setup_s: float
    wall_s: float
    retired: int
    attempted: int
    failed: int
    fingerprint: str
    tick_s: list[float]
    read_s: list[float] = dataclasses.field(default_factory=list)
    span_s: list[float] = dataclasses.field(default_factory=list)
    probe_s: list[float] = dataclasses.field(default_factory=list)
    requests: int = 0
    layer: dict = dataclasses.field(default_factory=dict)
