"""Streaming scale benchmark: a million campaigns in bounded memory.

The proof obligation for the streaming memory core
(:mod:`repro.engine.source` + :mod:`repro.engine.outcomes`): no
per-campaign *object* outlives its campaign.  A :class:`StreamedWorkload`
materializes each spec just before its submit tick, retirements fold
into the O(1) :class:`OutcomeAggregate`, and telemetry runs with
per-campaign records disabled — so specs, live state and outcomes track
the *live* frontier (wave size x horizon), not the workload size.

Campaign count is still a memory axis through one structure: the
engine's admission log keeps every admitted campaign id for the whole
session, because checkpoint manifests write it and resume replays it to
rebuild the policy cache.  It retains about 72 bytes per campaign
(tracemalloc, the heap freed by clearing the log after stream-scale-shaped
runs: 1.73 MiB at 25,000 campaigns, 6.91 MiB at 100,000), roughly 69 MiB
of the scale arm's peak at 1M.  The ceilings below bound that growth;
they do not make it flat.

Two arms, both driven through a scenario end-to-end:

* **Traced arm** — a smaller campaign count under ``tracemalloc``: the
  traced Python-heap peak must stay under a budget that a materialized
  spec+outcome list for the same count would blow through.  Precise
  attribution, paid for with tracing overhead.
* **Scale arm** — the headline count (>= 1M campaigns full, 20k smoke)
  untraced and timed, with a hard ``ru_maxrss`` ceiling.  This is the
  ISSUE-level acceptance bar: a million campaigns through submit ->
  price -> route -> retire inside a fixed RSS budget.

Campaigns use deliberately tiny templates (6-8 tasks, 5-6 tick
horizons, low price grids) so the bounded frontier — not per-campaign
solve cost — dominates; stationary planning lets the policy cache
collapse the million admissions into a handful of solves.

Both modes also assert what they record: the scale arm's outcome
checksum must equal a committed literal (in full mode, the checksum of
the committed ``BENCH_engine.json`` ``"scale"`` record), so a change to
any retired byte fails the run, and its campaigns/sec must clear a
ratcheted floor.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks both arms (CI proves the
memory *shape* and the outcome bytes, not the headline count); the
committed ``BENCH_engine.json`` ``"scale"`` record is only rewritten by
full runs.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import time
import tracemalloc

import numpy as np

from repro.engine import (
    BUDGET,
    CampaignTemplate,
    DEADLINE,
    MarketplaceEngine,
    StreamedWorkload,
    Telemetry,
)
from repro.engine.clock import EngineResult
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import DemandShock, Scenario, ScenarioDriver
from repro.sim.stream import SharedArrivalStream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Headline campaign count (the ISSUE bar is >= 1M in full mode).
SCALE_CAMPAIGNS = 20_000 if SMOKE else 1_000_000
#: Traced-arm count: small enough that tracemalloc overhead stays civil.
TRACED_CAMPAIGNS = 4_000 if SMOKE else 50_000
CAMPAIGNS_PER_WAVE = 100 if SMOKE else 250
SEED = 11

#: Hard ceilings.  The scale arm bounds whole-process peak RSS (numpy +
#: solver tables included); the traced arm bounds the *Python heap* the
#: run allocates, which is where a materialized workload would live
#: (1M specs + outcomes ≈ 1 GiB of dataclasses — two orders over this).
RSS_BUDGET_MIB = 512 if SMOKE else 1024
TRACED_BUDGET_MIB = 256

#: The scale arm's outcome checksum.  Full mode: the committed
#: ``BENCH_engine.json`` ``"scale"`` checksum; smoke mode: the same
#: workload at 20k campaigns.  Either moves only if a retired byte does.
EXPECTED_CHECKSUM = (
    "ffbe848c15dffadf59080ea0d5edc447db61ec021f94188fa9f331febad21e1d"
    if SMOKE
    else "4326ccd9a9bb69bd6a44a46809dcaa88c7fb787745f711b643a1ecb3ae9bfb40"
)

#: Ratcheted scale-arm floor (campaigns/sec); raise it when the recorded
#: figure rises, never lower it.  Smoke mode only guards against hangs.
REQUIRED_MIN_CPS = 500.0 if SMOKE else 20_000.0

#: Tiny shapes: the frontier stays wide (one wave every ~tick) while
#: each campaign's policy and lifetime stay small.
SCALE_TEMPLATES = (
    CampaignTemplate("sc-dl", DEADLINE, num_tasks=6, horizon_intervals=5,
                     max_price=12, penalty_per_task=20.0),
    CampaignTemplate("sc-bg", BUDGET, num_tasks=8, horizon_intervals=6,
                     max_price=10, per_task_budget=6.0),
)

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"

MIB = 1024.0 * 1024.0


def peak_rss_mib() -> float:
    """High-water RSS of this process, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_streamed(num_campaigns: int) -> tuple[EngineResult, Telemetry, int]:
    """One streamed scenario run: source -> engine -> aggregate-only sink."""
    num_waves = -(-num_campaigns // CAMPAIGNS_PER_WAVE)
    num_intervals = num_waves + 8
    source = StreamedWorkload(
        num_campaigns,
        num_intervals,
        seed=SEED,
        templates=SCALE_TEMPLATES,
        budget_fraction=0.25,
        adaptive_fraction=0.0,
        campaigns_per_wave=CAMPAIGNS_PER_WAVE,
        id_prefix="sc",
    )
    stream = SharedArrivalStream(np.full(num_intervals, 400.0))
    engine = MarketplaceEngine(
        stream, paper_acceptance_model(), planning="stationary"
    )
    engine.submit_source(source)
    scenario = Scenario(
        name="scale-steady",
        seed=SEED,
        description="streamed scale workload under a mid-run demand shock",
        events=(
            DemandShock(
                start=num_intervals // 3, stop=num_intervals // 2, factor=1.5
            ),
        ),
    )
    driver = ScenarioDriver(
        engine,
        scenario,
        telemetry=Telemetry(record_campaigns=False),
        keep_outcomes=False,
    )
    result = driver.run()
    engine.close()
    return result, driver.telemetry, num_intervals


def test_scale_report(emit):
    """>= SCALE_CAMPAIGNS streamed campaigns inside the fixed RSS budget."""
    # Traced arm first (it is the smaller run): the Python-heap peak is
    # what a materialized workload would scale with.
    tracemalloc.start()
    traced_result, _, _ = run_streamed(TRACED_CAMPAIGNS)
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert traced_result.num_campaigns == TRACED_CAMPAIGNS
    traced_peak_mib = traced_peak / MIB
    assert traced_peak_mib < TRACED_BUDGET_MIB, (
        f"traced arm peaked at {traced_peak_mib:.0f} MiB of Python heap "
        f"for {TRACED_CAMPAIGNS} campaigns (budget {TRACED_BUDGET_MIB} MiB)"
    )

    # Scale arm: untraced, timed, whole-process RSS ceiling.
    rss_before = peak_rss_mib()
    t0 = time.perf_counter()
    result, telemetry, num_intervals = run_streamed(SCALE_CAMPAIGNS)
    elapsed = time.perf_counter() - t0
    rss_after = peak_rss_mib()

    assert result.num_campaigns == SCALE_CAMPAIGNS
    assert result.outcomes == ()  # nothing materialized
    assert result.aggregate is not None
    assert 0.0 < result.completion_rate < 1.0
    assert rss_after < RSS_BUDGET_MIB, (
        f"scale arm peaked at {rss_after:.0f} MiB RSS for "
        f"{SCALE_CAMPAIGNS} campaigns (budget {RSS_BUDGET_MIB} MiB)"
    )

    assert result.checksum == EXPECTED_CHECKSUM, (
        f"scale arm checksum {result.checksum} != {EXPECTED_CHECKSUM}: "
        "the retired outcome bytes changed"
    )

    cps = SCALE_CAMPAIGNS / elapsed
    rss_per_campaign = rss_after * MIB / SCALE_CAMPAIGNS
    lines = [
        f"streaming scale: {SCALE_CAMPAIGNS:,} campaigns over "
        f"{num_intervals:,} intervals "
        f"({CAMPAIGNS_PER_WAVE}/wave, {'smoke' if SMOKE else 'full'} mode)",
        "",
        f"scale arm : {elapsed:8.1f}s  ({cps:9.0f} campaigns/sec, "
        f"floor {REQUIRED_MIN_CPS:.0f})",
        f"  peak RSS: {rss_after:8.0f} MiB "
        f"(budget {RSS_BUDGET_MIB} MiB; {rss_before:.0f} MiB before run)",
        f"  per camp: {rss_per_campaign:8.0f} bytes peak-RSS/campaign",
        f"  retired : {result.num_campaigns:,} campaigns, "
        f"{result.total_completed:,} tasks completed "
        f"({100 * result.completion_rate:.1f}%)",
        f"  checksum: {result.checksum[:16]}…",
        "",
        f"traced arm: {TRACED_CAMPAIGNS:,} campaigns under tracemalloc",
        f"  peak heap: {traced_peak_mib:7.1f} MiB "
        f"(budget {TRACED_BUDGET_MIB} MiB)",
        f"  per camp : {traced_peak / TRACED_CAMPAIGNS:7.0f} "
        "bytes traced-peak/campaign",
        "",
        f"telemetry : {telemetry.num_ticks:,} ticks recorded "
        "(per-campaign records disabled)",
    ]
    emit("scale", "\n".join(lines))
    assert cps >= REQUIRED_MIN_CPS, (
        f"scale arm ran {cps:.0f} campaigns/sec "
        f"(ratcheted floor: {REQUIRED_MIN_CPS:.0f})"
    )

    if not SMOKE:
        record = (
            json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        )
        record["scale"] = {
            "campaigns": SCALE_CAMPAIGNS,
            "intervals": num_intervals,
            "campaigns_per_wave": CAMPAIGNS_PER_WAVE,
            "seed": SEED,
            "elapsed_seconds": round(elapsed, 1),
            "campaigns_per_second": round(cps, 1),
            "required_min_campaigns_per_second": REQUIRED_MIN_CPS,
            "peak_rss_mib": round(rss_after, 1),
            "peak_rss_bytes_per_campaign": round(rss_per_campaign, 1),
            "rss_budget_mib": RSS_BUDGET_MIB,
            "traced_campaigns": TRACED_CAMPAIGNS,
            "traced_peak_mib": round(traced_peak_mib, 2),
            "traced_budget_mib": TRACED_BUDGET_MIB,
            "checksum": result.checksum,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
