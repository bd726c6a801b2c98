"""Per-layer self times for the traced benchmark run, by wrapping public calls.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.installed`
swaps wrappers onto public methods of the ``repro`` layers for the length
of one traced round, in this process only, and puts the originals back
afterwards, so the untraced rounds of the same process run the program
exactly as shipped.

A *span* is one wrapped call; its self time is its wall time minus the
spans nested inside it.  Two kinds of *segments* split the
``EngineCore.tick`` span further without wrapping anything private: the
engine's own ``PhaseTimings`` report the admission / price / split /
observe / retire phases, and a tick-boundary hook registered after the
gateway's marks the end of the request drain.  A segment's self time
excludes the spans that ran inside it, so the price phase excludes the
re-solves it triggered and the retire phase excludes the outcome fold.
Every second of a traced round therefore lands in exactly one layer or
in the residual ``wall - sum(self times)``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import repro.core.deadline.adaptive as adaptive_module
import repro.engine.planning as planning_module
from repro.core.batch.solver import BatchPolicySolver
from repro.engine.clock import EngineCore
from repro.engine.outcomes import OutcomeSink
from repro.engine.planning import CampaignPlanner
from repro.engine.source import StreamedWorkload
from repro.engine.telemetry import Telemetry
from repro.obs.eventlog import EventLog
from repro.scenario.driver import ScenarioDriver
from repro.serve.admission import AdmissionQueue
from repro.serve.gateway import Gateway
from repro.serve.requests import is_mutating
from repro.serve.telemetry import GatewayTelemetry
from repro.serve.tenants import TenantLedger

_TICK = "engine.clock.tick"


class _Frame:
    """One open span: its start, nested span time, and the segment mark."""

    __slots__ = ("name", "start", "child", "mark")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.mark = 0.0


class Tracer:
    """Collects self seconds and counts per layer for one traced round."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.resolve_signatures: set = set()
        self.batch_instances = 0
        self._stack: list[_Frame] = []
        self._recording = False
        self._drain_segment = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start recording (the measured region of the round begins)."""
        self._recording = True

    def end(self) -> None:
        """Stop recording; spans after this run untimed."""
        self._recording = False

    def call(self, name: str, count: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as a span of layer ``name``.

        ``count`` is added to the layer's count unless the enclosing span
        belongs to the same layer (``admit`` inside ``admit_many``,
        ``append`` inside ``log``), so each unit of work counts once.
        """
        if not self._recording:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(name)
        stack.append(frame)
        frame.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame.start
            stack.pop()
            self.seconds[name] += elapsed - frame.child
            if parent is None or parent.name != name:
                self.counts[name] += count
            if parent is not None:
                parent.child += elapsed

    def segment(self, name: str, seconds: float) -> None:
        """Book the ``seconds``-long segment of the open tick that just ended.

        Spans that finished since the previous segment mark ran inside
        this segment, so they are taken off its self time.
        """
        if not self._recording:
            return
        frame = self._stack[-1]
        if frame.name != _TICK:
            raise RuntimeError(f"segment {name!r} outside a tick span")
        inner = frame.child - frame.mark
        self.seconds[name] += seconds - inner
        frame.child += seconds - inner
        frame.mark = frame.child

    def _boundary(self, core) -> None:
        """Last tick-boundary hook: the drain (if any) ends, admission starts."""
        if not self._recording:
            return
        frame = self._stack[-1]
        if self._drain_segment:
            self.segment("serve.drain", time.perf_counter() - frame.start)
        else:
            frame.mark = frame.child

    def attach(self, core: EngineCore, drain: bool = False) -> None:
        """Wire a started session: phase timings and the boundary marker.

        ``drain=True`` books the stretch from tick entry to the marker as
        the gateway's ``serve.drain`` segment; the marker must then be
        registered after the gateway's own drain hook, which holds when
        this runs after ``Gateway.start``.
        """
        timings = core.enable_phase_timings()
        record = timings.record

        def traced_record(phase: str, seconds: float) -> None:
            record(phase, seconds)
            self.segment("engine.clock." + phase, seconds)

        timings.record = traced_record
        self._drain_segment = drain
        core.add_tick_boundary_hook(self._boundary)

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' public calls for the duration of the block."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, replacement) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        def span(owner, attr: str, name: str, count=None) -> None:
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                n = 1 if count is None else count(args)
                return self.call(name, n, original, args, kwargs)

            patch(owner, attr, wrapper)

        span(EngineCore, "tick", _TICK)
        span(ScenarioDriver, "step", "scenario.driver")
        span(CampaignPlanner, "admit", "engine.planning.admit")
        span(CampaignPlanner, "admit_many", "engine.planning.admit",
             count=lambda args: len(args[1]))
        span(OutcomeSink, "extend", "engine.outcomes.fold",
             count=lambda args: len(args[1]))
        span(Telemetry, "record_tick", "engine.telemetry.record")
        span(GatewayTelemetry, "record_tick", "serve.telemetry.record")
        span(TenantLedger, "settle", "serve.tenants.ledger")
        span(TenantLedger, "end_tick", "serve.tenants.ledger")
        # ``log`` builds the event and calls ``append``; both are the
        # event-log layer, and each event counts once.
        span(EventLog, "log", "obs.eventlog.append")
        span(EventLog, "append", "obs.eventlog.append")

        for attr in ("solve_deadline_many", "solve_budget_many"):
            original_many = getattr(BatchPolicySolver, attr)

            def batch(*args, _original=original_many, **kwargs):
                if self._recording:
                    self.batch_instances += len(args[1])
                return self.call("core.batch.solve", 1, _original, args, kwargs)

            patch(BatchPolicySolver, attr, batch)

        solve = adaptive_module.solve_deadline

        def signed_solve(problem, *args, **kwargs):
            if self._recording:
                self.resolve_signatures.add(problem.signature())
            return solve(problem, *args, **kwargs)

        def resolve(problem, *args, **kwargs):
            return self.call(
                "core.deadline.resolve", 1, signed_solve, (problem, *args), kwargs
            )

        patch(adaptive_module, "solve_deadline", resolve)
        # Admissions of a single campaign skip the batch kernels and solve
        # one instance at a time (CampaignPlanner.admit).
        span(planning_module, "solve_deadline", "core.scalar.solve")
        span(planning_module, "solve_budget_hull", "core.scalar.solve")

        offer = Gateway.offer

        def traced_offer(*args, **kwargs):
            request = args[1] if len(args) > 1 else kwargs["request"]
            name = "serve.offer.write" if is_mutating(request) else "serve.offer.read"
            return self.call(name, 1, offer, args, kwargs)

        patch(Gateway, "offer", traced_offer)

        pop = AdmissionQueue.pop

        def counted_pop(queue):
            ticket = pop(queue)
            if ticket is not None and self._recording:
                self.counts["serve.drain"] += 1
            return ticket

        patch(AdmissionQueue, "pop", counted_pop)

        iterate = StreamedWorkload.iterate
        end = object()

        def traced_iterate(source, skip: int = 0):
            items = iterate(source, skip)
            while True:
                # Counted only when it yields: the final, exhausted pull
                # produced nothing.
                spec = self.call("engine.source.pull", 0, next, (items, end), {})
                if spec is end:
                    return
                if self._recording:
                    self.counts["engine.source.pull"] += 1
                yield spec

        patch(StreamedWorkload, "iterate", traced_iterate)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """The round's figures as plain data."""
        return {
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "resolve_distinct": len(self.resolve_signatures),
            "batch_instances": self.batch_instances,
        }
