"""Command-line interface: ``python -m repro <command>`` (or just ``repro``).

Four commands cover the library's day-to-day uses:

* ``experiments`` — list or run the paper's table/figure reproductions.
* ``solve-deadline`` — solve a fixed-deadline instance against the bundled
  synthetic marketplace and print (optionally save) the policy.
* ``solve-budget`` — run Algorithm 3 for a fixed-budget batch.
* ``engine`` — run the multi-campaign marketplace engine: many concurrent
  campaigns priced against one shared worker stream, with policy caching,
  batched solving, optional sharding (``--shards N``), and durable
  checkpoint/resume (``--checkpoint-every``/``--resume``).  ``engine
  run`` drives a *static* workload (every campaign known up front);
  ``engine scenario run`` drives a *declarative stress scenario* — churn,
  demand shocks, cancellations — with per-tick telemetry
  (``--list-scenarios`` prints the canned library); ``engine serve``
  replays a *request trace* (or a scenario lowered into one) through the
  serving gateway, and ``engine loadtest`` drives live synthetic clients
  against it, reporting requests/sec and latency percentiles.

Examples::

    python -m repro experiments list
    python -m repro experiments run table1
    python -m repro solve-deadline --num-tasks 200 --horizon-hours 24 \
        --penalty 200 --save policy.npz
    python -m repro solve-budget --num-tasks 200 --budget-cents 2500
    python -m repro engine run --campaigns 60 --planning stationary
    python -m repro engine run --campaigns 200 --shards 4
    python -m repro engine run --checkpoint-every 24 --checkpoint-path ck/
    python -m repro engine run --resume ck/
    python -m repro engine scenario run --canned black-friday --shards 3
    python -m repro engine scenario run --spec my_scenario.json \
        --telemetry-out telemetry.json
    python -m repro engine scenario run --list-scenarios
    python -m repro engine serve --canned flash-crowd --max-live 32
    python -m repro engine serve --trace requests.json --shards 3
    python -m repro engine loadtest --clients 8 --requests 24
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _add_serving_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The stream/engine flags every serving command shares.

    ``engine run``, ``engine scenario run``, ``engine serve``, and
    ``engine loadtest`` all construct the same synthetic-trace stream and
    engine front-end; defining the flags once keeps the four commands'
    serving surface from drifting.
    """
    parser.add_argument("--horizon-hours", type=float, default=48.0)
    parser.add_argument("--interval-minutes", type=float, default=20.0)
    parser.add_argument(
        "--start-day", type=int, default=7, help="trace day the stream starts on"
    )
    parser.add_argument(
        "--planning", choices=["sliced", "stationary"], default="stationary",
        help="campaign planning forecast: time-aligned slices, or one "
        "canonical flat forecast (maximizes policy-cache reuse)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=256,
        help="policy-cache capacity; 0 disables memoization",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="partition campaigns across N worker shards (ShardedEngine); "
        "0 = classic single-loop engine.  Results are identical for any "
        "N >= 1 under the same seed",
    )
    parser.add_argument(
        "--kernels", choices=["auto", "numpy", "numba"], default=None,
        help="compiled-kernel backend for the hot solve loops (default: "
        "the REPRO_KERNELS env var, else auto); numba falls back to "
        "numpy with a warning where the compiler is absent, and the "
        "backend never changes results",
    )


def _add_tenant_flags(parser: argparse.ArgumentParser) -> None:
    """The multi-tenancy flags ``engine serve`` and ``engine loadtest`` share."""
    parser.add_argument(
        "--tenants", metavar="A,B,...", default=None,
        help="comma-separated tenant names; requests are scheduled "
        "weighted-fair across per-tenant FIFO queues (loadtest assigns "
        "clients to tenants round-robin)",
    )
    parser.add_argument(
        "--weights", metavar="W,W,...", default=None,
        help="per-tenant drain weights matching --tenants order "
        "(default: all 1.0 — equal-share round-robin)",
    )
    parser.add_argument(
        "--tenant-quota", action="append", metavar="NAME=LIVE[/RATE]",
        default=None,
        help="per-tenant quota: LIVE caps the tenant's live+pending "
        "campaigns, RATE its admissions per tick; either may be empty "
        "(NAME=/4).  Repeatable.  Exhausted quotas answer typed "
        "backpressure naming the tenant and quota",
    )
    parser.add_argument(
        "--max-drain", type=int, default=0, metavar="N",
        help="cap mutating requests applied per tick boundary "
        "(0 = drain everything; a bound is what makes weighted-fair "
        "scheduling observable under backlog)",
    )


def _tenant_kwargs(args: argparse.Namespace) -> dict:
    """Parse the tenant flags into Gateway keyword arguments."""
    from repro.serve import parse_tenant_quotas, parse_tenant_weights

    if args.max_drain < 0:
        raise _CliError("--max-drain must be >= 0")
    try:
        weights = parse_tenant_weights(args.tenants, args.weights)
        quotas = parse_tenant_quotas(args.tenant_quota)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    return {
        "max_drain": args.max_drain or None,
        "tenant_weights": weights,
        "tenant_quotas": quotas,
    }


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    """The structured-logging flags shared by every engine subcommand.

    One switch configures the whole ``repro`` logger tree
    (:func:`repro.obs.logsetup.setup_logging`); reports keep going to
    stdout, diagnostics to stderr, so piped output stays clean.
    """
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable structured logging for the 'repro' logger tree at "
        "this level (default: library logging stays silent)",
    )
    parser.add_argument(
        "--log-format", choices=("text", "json"), default="text",
        help="log line format: human-readable text or one JSON object "
        "per line (with --log-level)",
    )


def _apply_logging(args: argparse.Namespace) -> None:
    """Configure structured logging when the subcommand asked for it."""
    if getattr(args, "log_level", None):
        from repro.obs.logsetup import setup_logging

        setup_logging(args.log_level, fmt=args.log_format)


def _add_checkpoint_flags(parser: argparse.ArgumentParser, what: str) -> None:
    """The durable-run flags shared by ``run``/``scenario run``/``serve``."""
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help=f"save a {what} bundle every N engine ticks (0 = never); "
        "requires --checkpoint-path",
    )
    parser.add_argument(
        "--checkpoint-path", metavar="P", default=None,
        help="checkpoint bundle directory (manifest.json + arrays.npz)",
    )
    parser.add_argument(
        "--stop-after", type=int, default=0, metavar="T",
        help=f"stop after T ticks, saving a final {what} bundle (simulates "
        "a kill mid-run; requires --checkpoint-path)",
    )
    parser.add_argument(
        "--resume", metavar="P", default=None,
        help=f"resume a {what} from bundle P and finish it (workload and "
        "stream flags are ignored; the bundle carries the state)",
    )


def _add_outcome_flags(parser: argparse.ArgumentParser) -> None:
    """The streaming-outcome flags shared by ``run`` and ``scenario run``."""
    parser.add_argument(
        "--keep-outcomes", action="store_true",
        help="materialize every retired CampaignOutcome in memory (legacy "
        "behavior; by default retirements stream into O(1) aggregates and "
        "only the summary survives)",
    )
    parser.add_argument(
        "--outcomes-out", metavar="PATH", default=None,
        help="while streaming, spill each retired campaign to PATH as one "
        "JSONL record (full fidelity; replay with "
        "repro.engine.replay_outcomes)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Pricing algorithms for human computation "
            "(Gao & Parameswaran, VLDB 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="list or run the paper's table/figure reproductions"
    )
    experiments_sub = experiments.add_subparsers(dest="action", required=True)
    experiments_sub.add_parser("list", help="list experiment ids")
    run = experiments_sub.add_parser("run", help="run one experiment")
    run.add_argument("exp_id", help="experiment id (see 'experiments list')")
    report = experiments_sub.add_parser(
        "report", help="run experiments and write one combined report"
    )
    report.add_argument(
        "--ids", nargs="*", default=None,
        help="experiment ids to include (default: all — takes minutes)",
    )
    report.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to a file instead of stdout",
    )

    deadline = sub.add_parser(
        "solve-deadline", help="solve a fixed-deadline pricing instance"
    )
    deadline.add_argument("--num-tasks", type=int, default=200)
    deadline.add_argument("--horizon-hours", type=float, default=24.0)
    deadline.add_argument("--interval-minutes", type=float, default=20.0)
    deadline.add_argument("--max-price", type=int, default=50)
    deadline.add_argument("--penalty", type=float, default=200.0)
    deadline.add_argument(
        "--start-day", type=int, default=7, help="trace day the window starts on"
    )
    deadline.add_argument(
        "--confidence", type=float, default=0.999,
        help="confidence for the fixed-price baseline comparison",
    )
    deadline.add_argument(
        "--save", metavar="PATH", default=None, help="write the policy as .npz"
    )

    budget = sub.add_parser(
        "solve-budget", help="solve a fixed-budget pricing instance (Algorithm 3)"
    )
    budget.add_argument("--num-tasks", type=int, default=200)
    budget.add_argument("--budget-cents", type=float, default=2500.0)
    budget.add_argument("--max-price", type=int, default=50)
    budget.add_argument(
        "--exact", action="store_true",
        help="also run the pseudo-polynomial exact DP for comparison",
    )

    engine = sub.add_parser(
        "engine", help="multiplex many campaigns over one shared worker stream"
    )
    engine_sub = engine.add_subparsers(dest="action", required=True)
    engine_run = engine_sub.add_parser(
        "run",
        help="run a synthetic multi-campaign workload (static; see "
        "'engine scenario run' for churn/shock/cancellation timelines)",
        description=(
            "Run the marketplace engine over a synthetic campaign workload: "
            "a *static* workload — every campaign generated up front from "
            "the --seed'ed template pool and submitted at its wave time.  "
            "For dynamic workloads (campaigns churning in mid-run, demand "
            "shocks, cancellations) use 'engine scenario run'.  "
            "The report surfaces the routing choice (the 'stream' line), the "
            "policy-cache hit rate (the 'policy cache' line), the batched-"
            "solver utilization, and campaign throughput.  --shards N "
            "partitions campaigns across N parallel worker shards; shard "
            "count never changes the outcome, only wall-clock.  "
            "--checkpoint-every N snapshots the run every N ticks and "
            "--resume P finishes an interrupted run bit-identically."
        ),
    )
    engine_run.add_argument(
        "--campaigns", type=int, default=60,
        help="number of campaigns to submit (default 60)",
    )
    engine_run.add_argument(
        "--router", choices=["logit", "uniform"], default="logit",
        help="how arriving workers choose among live campaigns",
    )
    engine_run.add_argument(
        "--budget-fraction", type=float, default=0.3,
        help="expected fraction of fixed-budget campaigns",
    )
    engine_run.add_argument(
        "--adaptive-fraction", type=float, default=0.25,
        help="expected fraction of deadline campaigns that re-plan online",
    )
    engine_run.add_argument(
        "--surge", type=float, default=1.0,
        help="scale realized arrivals by this factor (planning keeps the "
        "unscaled forecast; adaptive campaigns compensate online)",
    )
    engine_run.add_argument(
        "--seed", type=int, default=7,
        help="seeds both the workload draw (which campaigns exist) and the "
        "engine run (realized arrivals); scenario timelines carry their "
        "own seed — see 'engine scenario run'",
    )
    engine_run.add_argument(
        "--per-campaign", action="store_true",
        help="also print one line per retired campaign",
    )
    _add_serving_engine_flags(engine_run)
    _add_checkpoint_flags(engine_run, "checkpoint")
    _add_outcome_flags(engine_run)
    _add_logging_flags(engine_run)

    scenario = engine_sub.add_parser(
        "scenario",
        help="declarative stress workloads: churn, demand shocks, cancellations",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_action", required=True)
    scenario_run = scenario_sub.add_parser(
        "run",
        help="drive the engine through a scenario timeline",
        description=(
            "Step the engine tick-by-tick through a declarative scenario — "
            "campaigns churning in mid-run, demand shocks and day/night "
            "rate schedules modulating the shared stream, cancellations "
            "retiring campaigns early — while recording per-tick telemetry "
            "(live campaigns, routed arrivals, cache hits, adaptive "
            "re-plans).  A scenario with a fixed seed is bit-identical "
            "across shard counts and checkpoint/resume "
            "boundaries; see docs/scenarios.md for the spec schema."
        ),
    )
    scenario_run.add_argument(
        "--spec", metavar="FILE", default=None,
        help="scenario spec to run (JSON; see docs/scenarios.md)",
    )
    scenario_run.add_argument(
        "--canned", metavar="NAME", default=None,
        help="run a built-in scenario (see --list-scenarios)",
    )
    scenario_run.add_argument(
        "--list-scenarios", action="store_true",
        help="list the canned scenario library and exit",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed (default: the spec's own)",
    )
    scenario_run.add_argument(
        "--base-campaigns", type=int, default=0, metavar="N",
        help="also submit N static workload campaigns up front, under the "
        "scenario's churn (default 0: scenario traffic only)",
    )
    scenario_run.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write the per-tick telemetry to PATH as JSON",
    )
    scenario_run.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="append admissions, cancellations, and tick summaries to a "
        "durable sqlite event log at PATH (see 'engine analytics')",
    )
    _add_serving_engine_flags(scenario_run)
    _add_checkpoint_flags(scenario_run, "scenario run")
    _add_outcome_flags(scenario_run)
    _add_logging_flags(scenario_run)

    serve = engine_sub.add_parser(
        "serve",
        help="serve a request trace (or a scenario) through the gateway",
        description=(
            "Run the serving gateway over one engine session: typed client "
            "requests — campaign submissions, quotes, cancellations, "
            "telemetry reads, snapshots — are coalesced into per-tick "
            "admission batches riding the engine's ordinary mid-flight "
            "submit()/cancel() paths, with backpressure once the "
            "live-campaign budget (--max-live) or the request queue "
            "(--max-queue) fills.  The request source is a recorded trace "
            "(--trace, see 'engine loadtest' and RequestTrace.save) or a "
            "declarative scenario lowered into one (--canned/--spec).  A "
            "served run is deterministic: the same trace and seed produce "
            "per-campaign outcomes and telemetry bit-identical to the "
            "offline run, across shard counts and checkpoint/resume "
            "boundaries; see docs/serving.md."
        ),
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="request trace to replay (JSON; see RequestTrace.save)",
    )
    serve.add_argument(
        "--canned", metavar="NAME", default=None,
        help="serve a built-in scenario's traffic through the gateway "
        "(see 'engine scenario run --list-scenarios')",
    )
    serve.add_argument(
        "--spec", metavar="FILE", default=None,
        help="serve a scenario spec's traffic through the gateway",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="engine session seed (default: the scenario's own seed, or 0 "
        "for --trace)",
    )
    serve.add_argument(
        "--base-campaigns", type=int, default=0, metavar="N",
        help="also submit N static workload campaigns up front",
    )
    serve.add_argument(
        "--max-live", type=int, default=0, metavar="N",
        help="live-campaign admission budget: submissions are rejected "
        "(backpressure) while N campaigns are live or pending "
        "(0 = unlimited)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="mutating-request queue depth; offers beyond it are rejected "
        "at offer time (0 = unbounded)",
    )
    serve.add_argument(
        "--gateways", type=int, default=1, metavar="N",
        help="split admission into N frontiers, each with its own queue, "
        "drain budget and fair scheduler (tenants hash to frontiers); "
        "ignored with --resume, which reads N from the bundle",
    )
    _add_tenant_flags(serve)
    serve.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write the serving telemetry (serve + engine series) as JSON",
    )
    serve.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="append requests, responses, admissions, and tick summaries "
        "to a durable sqlite event log at PATH (see 'engine analytics' "
        "and docs/observability.md)",
    )
    serve.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the process metrics registry at exit: Prometheus text "
        "for .prom paths, JSON otherwise",
    )
    serve.add_argument(
        "--ops-port", type=int, default=None, metavar="PORT",
        help="expose the live ops plane (GET /metrics /healthz /readyz "
        "/tenants /slo) on 127.0.0.1:PORT while the run is live "
        "(0 = pick a free port; see docs/observability.md)",
    )
    _add_serving_engine_flags(serve)
    _add_checkpoint_flags(serve, "served run")
    _add_logging_flags(serve)

    loadtest = engine_sub.add_parser(
        "loadtest",
        help="drive synthetic clients against a served engine session",
        description=(
            "Run the seeded LoadGenerator against an in-process gateway "
            "and report sustained requests/sec plus offer-to-response "
            "latency percentiles (p50/p95/p99).  Closed mode (default) "
            "runs real asyncio client sessions — issue, await the "
            "response, think, repeat — against a live serve() loop; open "
            "mode draws a Poisson per-tick arrival trace and replays it "
            "deterministically.  The same knobs feed "
            "benchmarks/bench_serve.py."
        ),
    )
    loadtest.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed: real client sessions adapt to service speed; "
        "open: exogenous Poisson arrivals replayed deterministically",
    )
    loadtest.add_argument(
        "--clients", type=int, default=8, help="concurrent client sessions"
    )
    loadtest.add_argument(
        "--requests", type=int, default=24,
        help="requests per client before it goes quiet (closed mode)",
    )
    loadtest.add_argument(
        "--rate", type=float, default=4.0,
        help="mean requests per tick (open mode)",
    )
    loadtest.add_argument(
        "--think", type=int, default=1,
        help="mean think ticks between a response and the next request",
    )
    loadtest.add_argument(
        "--loadgen-seed", type=int, default=3,
        help="seeds the client traffic draw (independent of --seed)",
    )
    loadtest.add_argument(
        "--mix", nargs=4, type=float, default=[0.5, 0.3, 0.1, 0.1],
        metavar=("SUBMIT", "QUOTE", "CANCEL", "QUERY"),
        help="relative request-kind weights of the client mix",
    )
    loadtest.add_argument(
        "--max-live", type=int, default=0, metavar="N",
        help="live-campaign admission budget (0 = unlimited)",
    )
    loadtest.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="request queue depth (0 = unbounded)",
    )
    _add_tenant_flags(loadtest)
    loadtest.add_argument(
        "--seed", type=int, default=7, help="engine session seed"
    )
    loadtest.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also save the generated open-mode trace to PATH (replayable "
        "with 'engine serve --trace')",
    )
    loadtest.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the process metrics registry at exit: Prometheus text "
        "for .prom paths, JSON otherwise",
    )
    loadtest.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="append requests, responses, admissions, and tick summaries "
        "to a durable sqlite event log at PATH (feeds 'engine slo' and "
        "'engine analytics')",
    )
    loadtest.add_argument(
        "--ops-port", type=int, default=None, metavar="PORT",
        help="expose the live ops plane (GET /metrics /healthz /readyz "
        "/tenants /slo) on 127.0.0.1:PORT while the run is live "
        "(0 = pick a free port; see docs/observability.md)",
    )
    _add_serving_engine_flags(loadtest)
    _add_logging_flags(loadtest)

    analytics = engine_sub.add_parser(
        "analytics",
        help="SQL window-function analytics over telemetry + event logs",
        description=(
            "Load recorded run artifacts — per-tick telemetry JSON "
            "(--telemetry-out) and/or a durable sqlite event log "
            "(--event-log) — into an in-memory SQL store and answer "
            "canned window-function queries: rolling queue-depth "
            "percentiles, per-window admission/rejection rates, policy-"
            "cache hit-rate trends, cumulative per-campaign fill, request "
            "outcome joins.  Each query declares which tables it needs; "
            "by default every query the loaded artifacts can answer runs. "
            "See docs/observability.md for the schema and query list."
        ),
    )
    analytics.add_argument(
        "--telemetry", metavar="FILE", default=None,
        help="telemetry JSON written by --telemetry-out (engine scenario "
        "form or serve gateway form; the gateway form loads both)",
    )
    analytics.add_argument(
        "--event-log", metavar="FILE", default=None,
        help="durable sqlite event log written by --event-log",
    )
    analytics.add_argument(
        "--query", action="append", metavar="NAME", default=None,
        help="canned query to run (repeatable; see --list-queries); "
        "default: every query the loaded artifacts support",
    )
    analytics.add_argument(
        "--list-queries", action="store_true",
        help="list the canned query library and exit",
    )
    analytics.add_argument(
        "--window", type=int, default=10, metavar="N",
        help="window width in ticks for windowed queries (default 10)",
    )
    analytics.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format: aligned text tables or one JSON document",
    )
    _add_logging_flags(analytics)

    slo = engine_sub.add_parser(
        "slo",
        help="SLO attainment and burn rates from recorded run artifacts",
        description=(
            "Evaluate service-level objectives offline over a recorded "
            "run: availability (submissions not rejected) from serve "
            "telemetry (--telemetry) and availability + queueing latency "
            "in ticks from a durable event log (--event-log).  Each "
            "objective reports attainment and burn rate (error rate over "
            "the objective's error budget; > 1 means the budget is "
            "burning) across multiple trailing windows — the same "
            "multi-window report a live gateway answers at GET /slo "
            "(--ops-port).  See docs/observability.md."
        ),
    )
    slo.add_argument(
        "--telemetry", metavar="FILE", default=None,
        help="serve telemetry JSON written by --telemetry-out",
    )
    slo.add_argument(
        "--event-log", metavar="FILE", default=None,
        help="durable sqlite event log written by --event-log",
    )
    slo.add_argument(
        "--windows", metavar="N,N,...", default=None,
        help="trailing window widths in ticks, shortest first "
        "(default 8,32,128)",
    )
    slo.add_argument(
        "--availability-objective", type=float, default=0.99, metavar="F",
        help="fraction of submissions that must not be rejected "
        "(default 0.99)",
    )
    slo.add_argument(
        "--latency-objective", type=float, default=0.99, metavar="F",
        help="fraction of requests that must answer within the latency "
        "target (default 0.99)",
    )
    slo.add_argument(
        "--latency-target-ticks", type=int, default=2, metavar="N",
        help="offline latency target: queueing latency in engine ticks "
        "(default 2)",
    )
    slo.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format: aligned text or one JSON document",
    )
    _add_logging_flags(slo)
    return parser


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, render_report, run_experiment

    if args.action == "list":
        width = max(len(exp_id) for exp_id in EXPERIMENTS)
        for exp_id in sorted(EXPERIMENTS):
            print(f"{exp_id.ljust(width)}  {EXPERIMENTS[exp_id].description}")
        return 0
    if args.action == "report":
        try:
            report = render_report(args.ids)
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
        if args.out:
            import pathlib

            pathlib.Path(args.out).write_text(report)
            print(f"report written to {args.out}")
        else:
            print(report)
        return 0
    try:
        print(run_experiment(args.exp_id))
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    return 0


def _cmd_solve_deadline(args: argparse.Namespace) -> int:
    from repro.core.baselines import faridani_fixed_price, floor_price
    from repro.core.deadline.vectorized import solve_deadline
    from repro.experiments.config import PaperSetting

    setting = PaperSetting(
        num_tasks=args.num_tasks,
        horizon_hours=args.horizon_hours,
        interval_minutes=args.interval_minutes,
        max_price=args.max_price,
        start_day=args.start_day,
        penalty_per_task=args.penalty,
    )
    problem = setting.problem()
    policy = solve_deadline(problem)
    outcome = policy.evaluate()
    print(f"instance      : N={args.num_tasks}, T={args.horizon_hours}h, "
          f"{problem.num_intervals} intervals, prices 1..{args.max_price}c")
    print(f"expected cost : {outcome.expected_cost / 100:.2f}$ "
          f"({outcome.average_reward:.2f}c/task)")
    print(f"E[remaining]  : {outcome.expected_remaining:.4f}  "
          f"P(all done) = {outcome.prob_all_done:.4f}")
    try:
        c0 = floor_price(problem)
        baseline = faridani_fixed_price(problem, args.confidence)
        print(f"floor price   : {c0:.0f}c; fixed baseline at "
              f"{100 * args.confidence:.1f}%: {baseline.price:.0f}c")
    except ValueError as exc:
        print(f"baseline      : {exc}")
    print("initial price : "
          f"{policy.price(problem.num_tasks, 0):.0f}c (full batch, t=0)")
    if args.save:
        from repro.util.serialization import save_policy

        path = save_policy(policy, args.save)
        print(f"saved         : {path}")
    return 0


def _cmd_solve_budget(args: argparse.Namespace) -> int:
    from repro.core.budget.exact_dp import solve_budget_exact
    from repro.core.budget.static_lp import solve_budget_hull
    from repro.market.acceptance import paper_acceptance_model

    grid = np.arange(1.0, args.max_price + 1.0)
    model = paper_acceptance_model()
    try:
        hull = solve_budget_hull(args.num_tasks, args.budget_cents, model, grid)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"instance    : N={args.num_tasks}, B={args.budget_cents:.0f}c "
          f"({args.budget_cents / args.num_tasks:.1f}c/task)")
    for price, count in zip(hull.prices, hull.counts):
        print(f"  {count:>5} tasks at {price:.0f}c")
    print(f"spend       : {hull.total_cost:.0f}c; "
          f"E[worker arrivals] = {hull.expected_arrivals:,.0f}")
    if args.exact:
        exact = solve_budget_exact(args.num_tasks, args.budget_cents, model, grid)
        gap = hull.expected_arrivals - exact.expected_arrivals
        print(f"exact DP    : E[W] = {exact.expected_arrivals:,.0f} "
              f"(hull excess {gap:.1f}, Theorem-8 bound "
              f"{hull.rounding_gap_bound:.1f})")
    return 0


class _CliError(Exception):
    """A bad command line or input; the message prints to stderr, exit 2.

    Every serving command (``engine run``, ``engine scenario run``,
    ``engine serve``, ``engine loadtest``) funnels its flag validation and
    construction failures through this one exception, so the exit-code-2
    behaviour cannot drift between them.
    """


def _check_serving_flags(args: argparse.Namespace) -> None:
    """Validate the flags shared by every serving command."""
    if args.shards < 0:
        raise _CliError(f"--shards must be >= 0, got {args.shards}")
    checkpoint_every = getattr(args, "checkpoint_every", 0)
    stop_after = getattr(args, "stop_after", 0)
    if checkpoint_every < 0 or stop_after < 0:
        raise _CliError("--checkpoint-every and --stop-after must be >= 0")
    if (checkpoint_every or stop_after) and not getattr(
        args, "checkpoint_path", None
    ):
        raise _CliError("--checkpoint-every/--stop-after need --checkpoint-path")


def _make_serving_engine(
    args: argparse.Namespace, router=None, surge: float = 1.0
):
    """Validate the shared flags, then build the stream and engine.

    The one construction path behind ``engine run``, ``engine scenario
    run``, ``engine serve``, and ``engine loadtest``: the synthetic-trace
    arrival stream comes from the common stream flags
    (``--horizon-hours``/``--interval-minutes``/``--start-day``) and the
    engine front-end from the common serving flags (``--shards``/
    ``--planning``/``--cache-size``), so the
    commands can never diverge on what an engine *is*.  ``surge`` scales
    realized arrivals while planning keeps the unscaled forecast;
    ``router=None`` uses the engine's default.  Returns
    ``(num_intervals, engine)``; every bad configuration surfaces as
    :class:`_CliError` (one exit-2 message, uniform across commands).
    """
    _check_serving_flags(args)
    try:
        if getattr(args, "kernels", None):
            from repro.core.batch import kernels

            kernels.set_kernels(args.kernels)
        return _build_engine(args, router=router, surge=surge)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _build_engine(args: argparse.Namespace, router=None, surge: float = 1.0):
    """Construct the stream + engine (see :func:`_make_serving_engine`)."""
    from repro.engine import MarketplaceEngine, PolicyCache, ShardedEngine
    from repro.market.acceptance import paper_acceptance_model
    from repro.market.tracker import SyntheticTrackerTrace
    from repro.sim.stream import SharedArrivalStream

    num_intervals = int(round(args.horizon_hours * 60.0 / args.interval_minutes))
    forecast = SharedArrivalStream.from_rate_function(
        SyntheticTrackerTrace().rate_function(),
        args.horizon_hours,
        num_intervals,
        start_hour=args.start_day * 24.0,
    )
    common = dict(
        stream=forecast.scaled(surge),
        acceptance=paper_acceptance_model(),
        cache=PolicyCache(max_entries=args.cache_size),
        planning=args.planning,
        planning_means=forecast.arrival_means,
    )
    if router is not None:
        common["router"] = router
    engine: MarketplaceEngine | ShardedEngine
    if args.shards > 0:
        engine = ShardedEngine(num_shards=args.shards, **common)
    else:
        engine = MarketplaceEngine(**common)
    return num_intervals, engine


def _cmd_engine(args: argparse.Namespace) -> int:
    dispatch = {
        "scenario": _cmd_engine_scenario,
        "serve": _cmd_engine_serve,
        "loadtest": _cmd_engine_loadtest,
        "run": _cmd_engine_run,
        "analytics": _cmd_engine_analytics,
        "slo": _cmd_engine_slo,
    }
    try:
        _apply_logging(args)
        return dispatch[args.action](args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_engine_run(args: argparse.Namespace) -> int:
    from repro.engine import (
        CheckpointError,
        LogitRouter,
        UniformRouter,
        generate_workload,
        restore_engine,
        save_checkpoint,
    )
    from repro.market.acceptance import paper_acceptance_model

    _check_serving_flags(args)
    if args.resume:
        try:
            engine = restore_engine(args.resume)
        except CheckpointError as exc:
            raise _CliError(str(exc)) from exc
        core = engine.core
        assert core is not None  # restore_engine always opens a session
        print(f"resume        : {args.resume} at tick {core.clock} "
              f"({core.num_live} live, {core.num_pending} pending, "
              f"{core.num_retired} already retired)")
    else:
        acceptance = paper_acceptance_model()
        router = (
            LogitRouter(acceptance)
            if args.router == "logit"
            else UniformRouter(acceptance)
        )
        num_intervals, engine = _make_serving_engine(
            args, router=router, surge=args.surge
        )
        try:
            specs = generate_workload(
                args.campaigns,
                num_intervals,
                seed=args.seed,
                budget_fraction=args.budget_fraction,
                adaptive_fraction=args.adaptive_fraction,
            )
            engine.submit(specs)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        # --per-campaign needs the full outcome list, so it forces the
        # legacy materialized sink; everything else streams into aggregates.
        core = engine.start(
            seed=args.seed,
            keep_outcomes=args.keep_outcomes or args.per_campaign,
            outcomes_path=args.outcomes_out,
        )
        sharding = f"shards={args.shards}" if args.shards > 0 else "unsharded"
        print(f"stream        : {num_intervals} x {args.interval_minutes:.0f}min "
              f"intervals from trace day {args.start_day}; router={args.router}, "
              f"planning={args.planning}, surge={args.surge:g}")
        print(f"serving       : {sharding}, cache capacity {args.cache_size}")
    # One shared stepping loop drives plain runs, periodic checkpointing,
    # and the simulated-kill path alike.
    ticks = 0
    while not core.done:
        core.tick()
        ticks += 1
        if args.checkpoint_every and ticks % args.checkpoint_every == 0:
            save_checkpoint(engine, args.checkpoint_path)
        if args.stop_after and ticks >= args.stop_after and not core.done:
            save_checkpoint(engine, args.checkpoint_path)
            engine.close()
            print(f"stopped       : after {ticks} ticks at interval {core.clock}; "
                  f"checkpoint saved to {args.checkpoint_path} "
                  f"(finish with --resume {args.checkpoint_path})")
            return 0
    result = core.result()
    engine.close()
    print(result.summary())
    if args.outcomes_out:
        print(f"outcomes      : spilled to {args.outcomes_out} "
              f"({result.num_campaigns} campaigns, "
              f"checksum {result.checksum[:12]})")
    if args.per_campaign and not result.outcomes and result.num_campaigns:
        print("per-campaign  : unavailable — this run streamed its outcomes "
              "(resume bundles keep the sink mode; rerun with "
              "--keep-outcomes)")
    elif args.per_campaign:
        print()
        for o in sorted(result.outcomes, key=lambda o: o.spec.campaign_id):
            status = "done" if o.finished else f"{o.remaining} left"
            print(f"  {o.spec.campaign_id:<16} {o.spec.kind:<8} "
                  f"N={o.spec.num_tasks:<3} t0={o.spec.submit_interval:<3} "
                  f"{o.average_reward:5.1f}c/task  {status}"
                  f"{'  [cached]' if o.cache_hit else ''}"
                  f"{'  [adaptive]' if o.spec.adaptive else ''}")
    return 0


def _cmd_engine_scenario(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.engine import CheckpointError, generate_workload
    from repro.scenario import (
        Scenario,
        ScenarioDriver,
        canned_scenario,
        list_scenarios,
    )

    if args.list_scenarios:
        width = max(len(name) for name, _ in list_scenarios())
        for name, description in list_scenarios():
            print(f"{name.ljust(width)}  {description}")
        return 0
    _check_serving_flags(args)
    event_log = None
    if args.event_log:
        from repro.obs import EventLog

        event_log = EventLog(args.event_log)
    if args.resume:
        try:
            driver = ScenarioDriver.resume(args.resume, event_log=event_log)
        except CheckpointError as exc:
            raise _CliError(str(exc)) from exc
        core = driver.core
        assert core is not None  # resume always reopens the session
        print(f"resume        : {args.resume} scenario "
              f"{driver.scenario.name!r} at tick {core.clock} "
              f"({core.num_live} live, {core.num_pending} pending, "
              f"{driver.telemetry.num_ticks} ticks of telemetry)")
    else:
        if (args.spec is None) == (args.canned is None):
            raise _CliError(
                "pick exactly one scenario source: --spec FILE or "
                "--canned NAME (--list-scenarios shows the library)"
            )
        num_intervals = int(
            round(args.horizon_hours * 60.0 / args.interval_minutes)
        )
        try:
            if args.spec is not None:
                scenario = Scenario.load(args.spec)
                if args.seed is not None:
                    scenario = dataclasses.replace(scenario, seed=args.seed)
            else:
                scenario = canned_scenario(
                    args.canned, num_intervals,
                    seed=args.seed if args.seed is not None else 0,
                )
        except (OSError, KeyError, ValueError) as exc:
            raise _CliError(str(exc)) from exc
        num_intervals, engine = _make_serving_engine(args)
        try:
            if args.base_campaigns:
                engine.submit(generate_workload(
                    args.base_campaigns, num_intervals, seed=scenario.seed
                ))
            driver = ScenarioDriver(
                engine, scenario, event_log=event_log,
                keep_outcomes=args.keep_outcomes,
                outcomes_path=args.outcomes_out,
            )
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        driver.start()
        sharding = f"shards={args.shards}" if args.shards > 0 else "unsharded"
        print(f"scenario      : {scenario.name!r} seed={scenario.seed}, "
              f"{len(scenario.events)} events, "
              f"{driver.timeline.num_campaigns} timeline campaigns "
              f"+ {args.base_campaigns} base")
        print(f"stream        : {num_intervals} x {args.interval_minutes:.0f}min "
              f"intervals from trace day {args.start_day}; "
              f"planning={args.planning}")
        print(f"serving       : {sharding}, cache capacity {args.cache_size}")
    ticks = 0
    while not driver.done:
        driver.step()
        ticks += 1
        if args.checkpoint_every and ticks % args.checkpoint_every == 0:
            driver.save(args.checkpoint_path)
        if args.stop_after and ticks >= args.stop_after and not driver.done:
            driver.save(args.checkpoint_path)
            driver.engine.close()
            print(f"stopped       : after {ticks} ticks; scenario bundle "
                  f"saved to {args.checkpoint_path} "
                  f"(finish with --resume {args.checkpoint_path})")
            if args.telemetry_out:
                path = driver.telemetry.save(args.telemetry_out)
                print(f"telemetry     : written to {path} "
                      f"(partial: {driver.telemetry.num_ticks} ticks)")
            if event_log is not None:
                event_log.close()
                print(f"event log     : {args.event_log} "
                      f"({event_log.last_seq} events)")
            return 0
    core = driver.core
    assert core is not None
    result = core.result()
    driver.engine.close()
    print(result.summary())
    if args.outcomes_out:
        print(f"outcomes      : spilled to {args.outcomes_out} "
              f"({result.num_campaigns} campaigns, "
              f"checksum {result.checksum[:12]})")
    print(driver.telemetry.summary())
    if args.telemetry_out:
        path = driver.telemetry.save(args.telemetry_out)
        print(f"telemetry     : written to {path}")
    if event_log is not None:
        event_log.close()
        print(f"event log     : {args.event_log} "
              f"({event_log.last_seq} events)")
    return 0


def _serve_scenario_inputs(args: argparse.Namespace, num_intervals: int):
    """Resolve ``engine serve``'s request source into a trace + modulation.

    Returns ``(trace, rate_multipliers, seed)``; every bad source (missing
    file, unknown canned name, malformed JSON) surfaces as
    :class:`_CliError`.
    """
    import dataclasses

    from repro.scenario import Scenario, canned_scenario
    from repro.serve import RequestTrace

    sources = [s for s in (args.trace, args.canned, args.spec) if s is not None]
    if len(sources) != 1:
        raise _CliError(
            "pick exactly one request source: --trace FILE, --canned NAME, "
            "or --spec FILE"
        )
    if args.trace is not None:
        try:
            trace = RequestTrace.load(args.trace)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise _CliError(
                f"could not load request trace {args.trace}: {exc}"
            ) from exc
        return trace, None, args.seed if args.seed is not None else 0
    try:
        if args.spec is not None:
            scenario = Scenario.load(args.spec)
            if args.seed is not None:
                scenario = dataclasses.replace(scenario, seed=args.seed)
        else:
            scenario = canned_scenario(
                args.canned, num_intervals,
                seed=args.seed if args.seed is not None else 0,
            )
        trace = RequestTrace.from_scenario(scenario, num_intervals)
        multipliers = scenario.compile(num_intervals).rate_multipliers
    except (OSError, KeyError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    return trace, multipliers, scenario.seed


def _make_metrics(args: argparse.Namespace):
    """A registry when anything will read it (--metrics-out / --ops-port)."""
    if args.metrics_out or getattr(args, "ops_port", None) is not None:
        from repro.obs import MetricsRegistry

        return MetricsRegistry()
    return None


def _start_ops(args: argparse.Namespace, gateway, metrics, event_log):
    """Start the threaded ops server when --ops-port asks for one.

    Threaded mode works under both driving styles: the synchronous
    replay paths never yield to an event loop, and the asyncio loadtest
    loop must not share its loop with a daemon listener anyway.
    """
    if getattr(args, "ops_port", None) is None:
        return None
    from repro.obs.ops import OpsServer

    ops = OpsServer(
        gateway, metrics=metrics, event_log=event_log, port=args.ops_port
    )
    try:
        host, port = ops.start_in_thread()
    except OSError as exc:
        raise _CliError(f"--ops-port {args.ops_port}: {exc}") from exc
    print(f"ops server    : http://{host}:{port} "
          "(GET /metrics /healthz /readyz /tenants /slo)")
    return ops


def _cmd_engine_serve(args: argparse.Namespace) -> int:
    from repro.engine import CheckpointError, generate_workload
    from repro.serve import Gateway

    _check_serving_flags(args)
    if args.max_live < 0 or args.max_queue < 0:
        raise _CliError("--max-live and --max-queue must be >= 0")
    if args.gateways < 1:
        raise _CliError("--gateways must be >= 1")
    tenant_kwargs = _tenant_kwargs(args)
    event_log = None
    if args.event_log:
        from repro.obs import EventLog

        event_log = EventLog(args.event_log)
    metrics = _make_metrics(args)
    if args.resume:
        try:
            gateway = Gateway.resume(
                args.resume, event_log=event_log, metrics=metrics
            )
        except CheckpointError as exc:
            raise _CliError(str(exc)) from exc
        core = gateway.core
        assert core is not None  # resume always reopens the session
        remaining = gateway.replay_remaining
        print(f"resume        : {args.resume} at tick {core.clock} "
              f"({core.num_live} live, {core.num_pending} pending, "
              f"{gateway.queue_depth} queued requests, "
              f"{remaining if remaining is not None else 'no'} trace "
              "requests left)")
        if remaining is None:
            raise _CliError(
                "the bundle carries no trace cursor to finish "
                "(snapshot taken outside 'engine serve'?)"
            )
        runner = gateway.resume_replay
    else:
        num_intervals, engine = _make_serving_engine(args)
        trace, multipliers, seed = _serve_scenario_inputs(args, num_intervals)
        try:
            if args.base_campaigns:
                engine.submit(
                    generate_workload(args.base_campaigns, num_intervals,
                                      seed=seed)
                )
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        gateway = Gateway(
            engine,
            frontiers=args.gateways,
            max_live=args.max_live or None,
            max_queue=args.max_queue or None,
            event_log=event_log,
            metrics=metrics,
            **tenant_kwargs,
        )
        gateway.start(seed=seed, rate_multipliers=multipliers)
        sharding = f"shards={args.shards}" if args.shards > 0 else "unsharded"
        front = (
            f"gateway with {args.gateways} frontiers"
            if args.gateways > 1
            else "gateway"
        )
        print(f"serving       : trace {trace.name!r} "
              f"({trace.num_requests} requests), seed={seed}, "
              f"{sharding}, {front}")
        print(f"admission     : max-live "
              f"{args.max_live if args.max_live else 'unlimited'}, "
              f"queue depth {args.max_queue if args.max_queue else 'unbounded'}")
        if args.tenants:
            weights = tenant_kwargs["tenant_weights"] or {}
            print("tenants       : "
                  + ", ".join(f"{t} (w={w:g})" for t, w in weights.items()))

        def runner(on_tick=None):
            return gateway.replay(trace, on_tick=on_tick)

    state = {"ticks": 0, "stopped": False}

    def on_tick(gw: "Gateway"):
        state["ticks"] += 1
        if args.checkpoint_every and state["ticks"] % args.checkpoint_every == 0:
            gw.save(args.checkpoint_path)
        if (
            args.stop_after
            and state["ticks"] >= args.stop_after
            and not (gw.done and not gw.replay_remaining)
        ):
            gw.save(args.checkpoint_path)
            state["stopped"] = True
            return False
        return True

    def _write_observability() -> None:
        if event_log is not None:
            event_log.close()
            print(f"event log     : {args.event_log} "
                  f"({event_log.last_seq} events)")
        if metrics is not None and args.metrics_out:
            path = metrics.save(args.metrics_out)
            print(f"metrics       : written to {path}")

    ops = _start_ops(args, gateway, metrics, event_log)
    try:
        runner(on_tick=on_tick)
    finally:
        if ops is not None:
            ops.close()
    if state["stopped"]:
        gateway.engine.close()
        print(f"stopped       : after {state['ticks']} ticks; served bundle "
              f"saved to {args.checkpoint_path} "
              f"(finish with --resume {args.checkpoint_path})")
        if args.telemetry_out:
            path = gateway.telemetry.save(args.telemetry_out)
            print(f"telemetry     : written to {path} "
                  f"(partial: {gateway.telemetry.num_ticks} ticks)")
        _write_observability()
        return 0
    core = gateway.core
    assert core is not None
    result = core.result()
    gateway.engine.close()
    print(result.summary())
    print(gateway.telemetry.summary())
    if args.telemetry_out:
        path = gateway.telemetry.save(args.telemetry_out)
        print(f"telemetry     : written to {path}")
    _write_observability()
    return 0


def _cmd_engine_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from repro.serve import ClientMix, Gateway, LoadGenerator

    if args.max_live < 0 or args.max_queue < 0:
        raise _CliError("--max-live and --max-queue must be >= 0")
    tenant_kwargs = _tenant_kwargs(args)
    tenant_names = (
        list(tenant_kwargs["tenant_weights"])
        if tenant_kwargs["tenant_weights"]
        else None
    )
    metrics = _make_metrics(args)
    event_log = None
    if args.event_log:
        from repro.obs import EventLog

        event_log = EventLog(args.event_log)
    num_intervals, engine = _make_serving_engine(args)
    try:
        generator = LoadGenerator(
            num_intervals,
            seed=args.loadgen_seed,
            clients=args.clients,
            mix=ClientMix(*args.mix),
            rate=args.rate,
            think=args.think,
            requests_per_client=args.requests,
            tenants=tenant_names,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    gateway = Gateway(
        engine,
        max_live=args.max_live or None,
        max_queue=args.max_queue or None,
        event_log=event_log,
        metrics=metrics,
        **tenant_kwargs,
    )
    gateway.start(seed=args.seed)
    print(f"loadtest      : mode={args.mode}, {args.clients} clients, "
          f"loadgen seed {args.loadgen_seed}, engine seed {args.seed}, "
          f"{num_intervals} intervals")
    ops = _start_ops(args, gateway, metrics, event_log)
    started = time.perf_counter()
    try:
        if args.mode == "closed":
            responses = asyncio.run(generator.run_closed(gateway))
            num_responses = len(responses)
        else:
            trace = generator.trace("open")
            if args.trace_out:
                path = trace.save(args.trace_out)
                print(f"trace         : written to {path} "
                      f"({trace.num_requests} requests)")
            tickets = gateway.replay(trace)
            num_responses = len(tickets)
    finally:
        if ops is not None:
            ops.close()
    elapsed = time.perf_counter() - started
    rps = num_responses / elapsed if elapsed > 0 else 0.0
    core = gateway.core
    assert core is not None
    print(core.result().summary())
    print(gateway.telemetry.summary())
    print(f"throughput    : {num_responses} requests in {elapsed:.2f}s "
          f"({rps:,.0f} requests/sec)")
    gateway.engine.close()
    if event_log is not None:
        event_log.close()
        print(f"event log     : {args.event_log} "
              f"({event_log.last_seq} events)")
    if metrics is not None and args.metrics_out:
        path = metrics.save(args.metrics_out)
        print(f"metrics       : written to {path}")
    return 0


def _cmd_engine_analytics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.analytics import (
        AnalyticsDB,
        AnalyticsError,
        canned_queries,
        render_table,
    )

    if args.list_queries:
        width = max(len(q.name) for q in canned_queries())
        for q in canned_queries():
            needs = ", ".join(q.requires)
            print(f"{q.name.ljust(width)}  {q.title} (needs: {needs})")
        return 0
    if args.telemetry is None and args.event_log is None:
        raise _CliError(
            "nothing to analyze: provide --telemetry FILE (from "
            "--telemetry-out) and/or --event-log FILE (from --event-log); "
            "--list-queries shows the query library"
        )
    if args.window < 1:
        raise _CliError("--window must be >= 1")
    db = AnalyticsDB()
    try:
        if args.telemetry is not None:
            db.load_telemetry(args.telemetry)
        if args.event_log is not None:
            db.load_event_log(args.event_log)
    except (OSError, AnalyticsError, KeyError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    if args.query:
        selected = list(dict.fromkeys(args.query))
    else:
        # Default sweep: every query the loaded artifacts can answer.
        selected = [
            q.name for q in canned_queries()
            if set(q.requires) <= db.loaded
        ]
        if not selected:
            raise _CliError(
                "the loaded artifacts support none of the canned queries "
                "(an event log alone answers event queries; telemetry in "
                "the gateway form answers serve queries)"
            )
    results = {}
    for name in selected:
        try:
            columns, rows = db.run(name, window=args.window)
        except AnalyticsError as exc:
            raise _CliError(str(exc)) from exc
        results[name] = (columns, rows)
    if args.format == "json":
        document = {
            "window": args.window,
            "queries": {
                name: {
                    "columns": list(columns),
                    "rows": [list(row) for row in rows],
                }
                for name, (columns, rows) in results.items()
            },
        }
        print(json.dumps(document, indent=1))
        return 0
    by_name = {q.name: q for q in canned_queries()}
    first = True
    for name, (columns, rows) in results.items():
        if not first:
            print()
        first = False
        print(f"{name}: {by_name[name].title}")
        print(render_table(columns, rows))
    return 0


def _cmd_engine_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slo import (
        SloPolicy,
        event_log_slo_report,
        render_slo_report,
        telemetry_slo_report,
    )

    if args.telemetry is None and args.event_log is None:
        raise _CliError(
            "nothing to evaluate: provide --telemetry FILE (from "
            "--telemetry-out) and/or --event-log FILE (from --event-log)"
        )
    windows = None
    if args.windows:
        try:
            windows = tuple(
                int(part) for part in args.windows.split(",") if part.strip()
            )
        except ValueError as exc:
            raise _CliError(
                f"--windows {args.windows!r} must be comma-separated integers"
            ) from exc
    try:
        policy = SloPolicy(
            availability_objective=args.availability_objective,
            latency_objective=args.latency_objective,
            latency_target_ticks=args.latency_target_ticks,
            **({"windows": windows} if windows else {}),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    reports = []
    try:
        if args.telemetry is not None:
            with open(args.telemetry, encoding="utf-8") as handle:
                data = json.load(handle)
            reports.append(telemetry_slo_report(data, policy))
        if args.event_log is not None:
            reports.append(event_log_slo_report(args.event_log, policy))
    except (OSError, KeyError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    if args.format == "json":
        print(json.dumps(
            reports[0] if len(reports) == 1 else {"reports": reports}, indent=1
        ))
        return 0
    first = True
    for report in reports:
        if not first:
            print()
        first = False
        print(render_slo_report(report))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "solve-deadline":
        return _cmd_solve_deadline(args)
    if args.command == "solve-budget":
        return _cmd_solve_budget(args)
    if args.command == "engine":
        return _cmd_engine(args)
    raise AssertionError(f"unhandled command {args.command!r}")
