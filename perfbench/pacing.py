"""A host-speed reference timed beside the workload, for the throughputs.

The benchmark runs on a few cores of a shared host whose speed swings by
up to half for tens of seconds at a time: on a 2-core host, one input
read 52 campaigns/s in one 30-second run and 76 in the next, and no
choice among the run's own timings (fastest round, fastest repeat of
each tick) escapes a spell that lasts the whole run.

So a round also times a fixed reference :func:`probe` at every tick
boundary.  The probe mixes interpreter work and small numpy calls, as
the workloads do; with its untimed warm-up pass it costs about 0.6 ms a
boundary, a few percent of a tick, left out of the round's time.  A
*span* is the wall time between two probes (a tick, plus for the
serving workload the offers before the next tick); dividing it by the
mean of the probes on either side gives its cost in probe units, which
a slow spell moves far less than the span itself.  ``run.py`` sums, per
span, the median of that ratio over the run's identical rounds and
converts it back to seconds with :data:`PROBE_REFERENCE_S`.  A change to
the program moves the spans and not the probe, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :func:`probe` takes on the reference host: close to the
#: fastest it ran on the 2-core host the benchmark was tuned on.
PROBE_REFERENCE_S = 3.2e-4


def _reference_work() -> None:
    counts: dict[int, int] = {}
    for i in range(1200):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
    values = np.arange(64.0)
    for _ in range(120):
        values = np.maximum(values * 0.5, values - 1.0)


def probe() -> float:
    """CPU seconds of this thread over a fixed piece of dict and array work.

    The work runs once untimed first, so the timed pass finds its code
    and data in cache whatever the tick before it evicted: otherwise the
    probe would slow down with the program's memory footprint.  Thread
    CPU time rather than wall time: the serving workload's event-log
    writer thread holds the GIL now and then, and a probe that waited for
    it would charge the program's own threading to the host.
    """
    _reference_work()
    started = time.thread_time()
    _reference_work()
    return time.thread_time() - started


def to_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` timed while a probe took ``probe_s``, in reference seconds."""
    return seconds * PROBE_REFERENCE_S / probe_s


class Pacer:
    """Splits one round into spans at tick boundaries, probing at each.

    Call :meth:`start` right before the measured region and
    :meth:`boundary` after every tick.  ``overhead_s`` is the time the
    probes took inside the region, which the round leaves out of its
    wall-clock.  A disabled pacer (the traced rounds) records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[float] = []
        self.probes: list[float] = []
        self.overhead_s = 0.0
        self._mark = 0.0

    def start(self) -> None:
        if self.enabled:
            self.probes.append(probe())
        self._mark = time.perf_counter()

    def boundary(self) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        self.spans.append(now - self._mark)
        self.probes.append(probe())
        self._mark = time.perf_counter()
        self.overhead_s += self._mark - now
