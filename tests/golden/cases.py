"""The canonical golden-trace cases, shared by the test and the regen script.

Everything here must be deterministic: fixed stream means, fixed seeds,
fixed scenario events.  ``run_case`` returns the full golden payload —
scenario spec, deterministic result fields, telemetry — as a
JSON-normalized dict, so the comparator can diff it 1:1 against the
committed trace.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.engine import (
    ListSource,
    MarketplaceEngine,
    generate_workload,
    replay_outcomes,
)
from repro.engine.clock import EngineResult
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import (
    CampaignChurn,
    Cancellation,
    DemandShock,
    Scenario,
    ScenarioDriver,
    canned_scenario,
)
from repro.serve import ClientMix, Gateway, LoadGenerator, RequestTrace
from repro.sim.stream import SharedArrivalStream

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

NUM_INTERVALS = 28
SCENARIO_SEED = 17
BASE_SEED = 9

#: Case name -> engine keyword arguments.
CASES = {
    "pooled_small": {"arrivals": "pooled"},
    "factored_small": {"arrivals": "factored"},
}

#: Served cases: a request trace replayed through the Gateway.
#: ``serve_flash_crowd`` rides the canned flash-crowd scenario with a
#: LoadGenerator client mix on top, under a tight live-campaign budget so
#: the trace exercises admission backpressure as well as quotes, reads,
#: and cancellations.
SERVE_CASES = {
    "serve_flash_crowd": {"arrivals": "pooled", "max_live": 8},
}


def golden_scenario() -> Scenario:
    """Churn + shock + one cancellation, hand-pinned for trace stability."""
    return Scenario(
        name="golden-small",
        seed=SCENARIO_SEED,
        description="canonical churn + shock + cancellation trace case",
        events=(
            CampaignChurn(start=0, stop=20, every=7, per_wave=1,
                          templates=("dl-small", "bg-lean"),
                          adaptive_fraction=0.5, prefix="g"),
            DemandShock(start=10, stop=16, factor=2.0),
            # Cancels the first churn campaign mid-flight (id pinned: the
            # churn event sits at index 0 under SCENARIO_SEED).
            Cancellation(tick=4, campaign_id="g0-000-00"),
        ),
    )


def make_stream() -> SharedArrivalStream:
    means = 650.0 + 200.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, NUM_INTERVALS))
    return SharedArrivalStream(means)


def build_driver(
    case: str,
    streaming: bool = False,
    outcomes_path: pathlib.Path | None = None,
    event_log=None,
) -> ScenarioDriver:
    """Construct one canonical case's engine + driver (not yet started).

    ``streaming=True`` feeds the same workload through a lazy
    ``ListSource`` and runs with a streaming outcome sink (no
    materialized outcome list; full fidelity via the ``outcomes_path``
    spill) — the memory-mode arm of the invariance proof.
    ``event_log`` attaches a caller-owned
    :class:`~repro.obs.eventlog.EventLog` to the driver.
    """
    engine = MarketplaceEngine(
        make_stream(), paper_acceptance_model(), planning="stationary",
        arrivals=CASES[case]["arrivals"],
    )
    specs = generate_workload(4, NUM_INTERVALS, seed=BASE_SEED)
    if streaming:
        engine.submit_source(ListSource(specs))
        return ScenarioDriver(
            engine, golden_scenario(), event_log=event_log,
            keep_outcomes=False, outcomes_path=outcomes_path,
        )
    engine.submit(specs)
    return ScenarioDriver(engine, golden_scenario(), event_log=event_log)


def result_to_dict(result: EngineResult, outcomes=None) -> dict:
    """The deterministic slice of an EngineResult (no wall-clock fields).

    ``outcomes`` substitutes an externally reconstructed outcome list —
    how a streaming run's spill replay slots into the same payload shape.
    """
    if outcomes is None:
        outcomes = result.outcomes
    return {
        "intervals_run": result.intervals_run,
        "total_arrivals": result.total_arrivals,
        "total_considered": result.total_considered,
        "total_accepted": result.total_accepted,
        "max_concurrent": result.max_concurrent,
        "cache": {
            "hits": result.cache_stats.hits,
            "misses": result.cache_stats.misses,
            "evictions": result.cache_stats.evictions,
            "entries": result.cache_stats.entries,
        },
        "outcomes": [
            {
                "campaign_id": o.spec.campaign_id,
                "kind": o.spec.kind,
                "completed": o.completed,
                "remaining": o.remaining,
                "total_cost": o.total_cost,
                "penalty": o.penalty,
                "finished_interval": o.finished_interval,
                "cancelled": o.cancelled,
                "cache_hit": o.cache_hit,
                "num_solves": o.num_solves,
            }
            for o in sorted(outcomes, key=lambda o: o.spec.campaign_id)
        ],
    }


def run_case(case: str, streaming: bool = False) -> dict:
    """Run one canonical case and return its JSON-normalized golden payload.

    ``streaming=True`` runs the case with a lazy source and a streaming
    sink, rebuilding the per-campaign outcome block from the JSONL spill
    — the payload must byte-compare against the materialized run's, which
    is exactly the invariance ``regen_golden.py`` guards.
    """
    if streaming:
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            spill = pathlib.Path(td) / "outcomes.jsonl"
            driver = build_driver(case, streaming=True, outcomes_path=spill)
            result = driver.run()
            outcomes = list(replay_outcomes(spill))
        assert result.outcomes == ()  # nothing was materialized
        payload = {
            "case": case,
            "scenario": driver.scenario.to_dict(),
            "result": result_to_dict(result, outcomes=outcomes),
            "telemetry": driver.telemetry.to_dict(),
        }
        return json.loads(json.dumps(payload))
    driver = build_driver(case)
    result = driver.run()
    payload = {
        "case": case,
        "scenario": driver.scenario.to_dict(),
        "result": result_to_dict(result),
        "telemetry": driver.telemetry.to_dict(),
    }
    # Round-trip through JSON so tuples/np scalars normalize exactly the
    # way the committed trace file stores them.
    return json.loads(json.dumps(payload))


def serve_trace() -> RequestTrace:
    """The canonical served workload: flash-crowd traffic + a client mix."""
    scenario = canned_scenario("flash-crowd", NUM_INTERVALS, seed=SCENARIO_SEED)
    clients = LoadGenerator(
        NUM_INTERVALS,
        seed=SCENARIO_SEED,
        clients=3,
        rate=1.5,
        mix=ClientMix(submit=0.4, quote=0.3, cancel=0.15, query=0.15),
    ).trace("open")
    return RequestTrace.from_scenario(scenario, NUM_INTERVALS).merge(
        clients, name="serve-flash-crowd"
    )


def build_serve_gateway(
    case: str,
    tenant_weights: dict[str, float] | None = None,
    sinks: dict | None = None,
) -> Gateway:
    """Construct one served case's engine + gateway (session not yet open).

    ``sinks`` passes observability keyword arguments (``event_log`` /
    ``metrics``) straight through — the instrumented arm of the golden
    invariance guard.
    """
    sinks = sinks or {}
    engine = MarketplaceEngine(
        make_stream(), paper_acceptance_model(), planning="stationary",
        arrivals=SERVE_CASES[case]["arrivals"],
    )
    return Gateway(
        engine,
        max_live=SERVE_CASES[case]["max_live"],
        tenant_weights=tenant_weights,
        **sinks,
    )


def tenant_tagged_trace(tenants: tuple[str, ...]) -> RequestTrace:
    """The canonical served trace with tenant ids assigned round-robin."""
    import dataclasses

    trace = serve_trace()
    return RequestTrace(
        trace.name,
        tuple(
            dataclasses.replace(timed, tenant=tenants[i % len(tenants)])
            for i, timed in enumerate(trace.requests)
        ),
    )


def run_serve_case(
    case: str,
    tenants: tuple[str, ...] | None = None,
    instrumented: bool = False,
    event_log=None,
) -> dict:
    """Run one served case; payload = trace + result + serving telemetry.

    ``tenants`` replays the tenant-tagged twin of the trace under fair
    scheduling (weights 2:1:...), which may not change the engine
    ``result`` block — what the regen guard verifies before rewriting
    any golden.
    ``instrumented`` wires every observability layer the ops plane rides
    on — event log, metrics registry with phase timings, and a
    live :class:`~repro.obs.ops.OpsServer` scraped at tick boundaries —
    and must leave the payload **byte-identical** to a dark run: that is
    the serialization-inert contract the regen guard enforces.
    ``event_log`` attaches a caller-owned
    :class:`~repro.obs.eventlog.EventLog` to an uninstrumented run.
    """
    scenario = canned_scenario("flash-crowd", NUM_INTERVALS, seed=SCENARIO_SEED)
    weights = None
    if tenants:
        weights = {t: float(2 if i == 0 else 1) for i, t in enumerate(tenants)}
        trace = tenant_tagged_trace(tenants)
    else:
        trace = serve_trace()
    sinks = None if event_log is None else {"event_log": event_log}
    cleanup = []
    on_tick = None
    if instrumented:
        import shutil
        import tempfile
        import urllib.error
        import urllib.request

        from repro.obs import EventLog, MetricsRegistry
        from repro.obs.ops import OpsServer

        tmp = tempfile.mkdtemp(prefix="repro-golden-obs-")
        event_log = EventLog(pathlib.Path(tmp) / "events.sqlite")
        metrics = MetricsRegistry()
        sinks = {"event_log": event_log, "metrics": metrics}
        cleanup = [event_log.close, lambda: shutil.rmtree(tmp)]
    gateway = build_serve_gateway(case, tenant_weights=weights, sinks=sinks)
    if instrumented:
        ops = OpsServer(gateway, metrics=metrics, event_log=sinks["event_log"])
        ops.start_in_thread()
        cleanup.insert(0, ops.close)
        scrapes = {"left": 3}

        def on_tick(_gw):
            # Scrape a live endpoint mix at a few tick boundaries: the
            # guard must hold under concurrent scraping, not just with a
            # passive listener.
            if scrapes["left"] > 0:
                scrapes["left"] -= 1
                for path in ("/metrics", "/readyz", "/tenants", "/slo"):
                    try:
                        urllib.request.urlopen(
                            ops.address + path, timeout=5
                        ).read()
                    except urllib.error.HTTPError:
                        pass  # a 503 is still a served scrape
            return True

    try:
        gateway.start(
            seed=SCENARIO_SEED,
            rate_multipliers=scenario.compile(NUM_INTERVALS).rate_multipliers,
        )
        gateway.replay(trace, on_tick=on_tick)
        core = gateway.core
        assert core is not None
        payload = {
            "case": case,
            "trace": trace.to_dict(),
            "result": result_to_dict(core.result()),
            "telemetry": gateway.telemetry.to_dict(),
        }
        return json.loads(json.dumps(payload))
    finally:
        for step in cleanup:
            step()


def run_any_case(case: str) -> dict:
    """Dispatch a case name to its runner (scenario-driven or served)."""
    if case in SERVE_CASES:
        return run_serve_case(case)
    return run_case(case)


def trace_path(case: str) -> pathlib.Path:
    """Where the committed golden trace for ``case`` lives."""
    return GOLDEN_DIR / f"{case}.json"


#: Window width the golden analytics queries are pinned at.
ANALYTICS_WINDOW = 8


def analytics_path() -> pathlib.Path:
    """Where the committed golden analytics results live."""
    return GOLDEN_DIR / "analytics_flash_crowd.json"


def run_analytics_case() -> dict:
    """Canned analytics over the committed ``serve_flash_crowd`` trace.

    Loads the golden served run's telemetry into an
    :class:`~repro.obs.analytics.AnalyticsDB` and runs every canned
    query the telemetry tables can answer at :data:`ANALYTICS_WINDOW`.
    Input and queries are both pinned, so the result is deterministic —
    a golden trace for the SQL layer itself.  (Event-log queries are
    exercised by live tests; a sqlite file is not a reviewable golden
    artifact the way JSON is.)
    """
    from repro.obs.analytics import AnalyticsDB, canned_queries

    telemetry = json.loads(trace_path("serve_flash_crowd").read_text())[
        "telemetry"
    ]
    queries = {}
    with AnalyticsDB() as db:
        db.load_telemetry(telemetry)
        for query in canned_queries():
            if set(query.requires) <= db.loaded:
                columns, rows = db.run(query.name, window=ANALYTICS_WINDOW)
                queries[query.name] = {
                    "columns": list(columns),
                    "rows": [list(row) for row in rows],
                }
    return json.loads(
        json.dumps({"window": ANALYTICS_WINDOW, "queries": queries})
    )
