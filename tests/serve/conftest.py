"""Shared factories for the serving-gateway suites: small, fast engines."""

from __future__ import annotations

import numpy as np

from repro.engine import MarketplaceEngine
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream

NUM_INTERVALS = 36


def make_stream(num_intervals: int = NUM_INTERVALS) -> SharedArrivalStream:
    """A small diurnal-ish stream every serve test runs against."""
    means = 700.0 + 150.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, num_intervals))
    return SharedArrivalStream(means)


def make_engine(arrivals: str = "pooled", num_intervals: int = NUM_INTERVALS):
    """A stationary-planning engine under the given arrival model."""
    return MarketplaceEngine(
        make_stream(num_intervals), paper_acceptance_model(),
        planning="stationary", arrivals=arrivals,
    )
