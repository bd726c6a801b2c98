"""The differential arrival/memory/checkpoint matrix: every cell, bit-identical.

This is the proof obligation for the memory and checkpoint modes: the
engine's behaviour is a function of ``(workload, scenario, seed, arrival
model)`` and **nothing else**.  The sweep runs the canonical golden
scenario through every cell of

    {pooled, factored} arrival models
  x {uninterrupted, checkpoint/resume at two fuzzed ticks}
  x {materialized, streaming}                 (lazy source + spill sink)

and asserts the full JSON-normalized payload — deterministic
``EngineResult`` fields *and* per-tick telemetry — is equal across every
cell of each family.  There are two baselines by design: the pooled and
factored models realize arrivals through different mechanisms (one
marketplace draw vs. per-campaign draws), so their traces are not
comparable to each other; within each family, every knob must be
invisible.

Both baselines are additionally pinned to the committed golden traces,
so a matrix-wide drift (all cells equal, all wrong) cannot slip through.
These tests assert *invariance*, not speed; throughput claims live in
``benchmarks/``.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.engine import (
    ListSource,
    MarketplaceEngine,
    generate_workload,
    replay_outcomes,
)
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import ScenarioDriver

from tests.golden.cases import (
    BASE_SEED,
    NUM_INTERVALS,
    golden_scenario,
    make_stream,
    result_to_dict,
    run_case,
    trace_path,
)

#: "stream"/"stream-resume" cells rerun with a lazy ListSource feeding
#: the same specs and a streaming (keep=False, JSONL-spill) sink — the
#: payload's outcome block is rebuilt from the spill, so these cells prove
#: the memory mode changes no bit of the trace.  Each resume mode runs
#: under two cut keys, so every family resumes at four fuzzed ticks.
CUT_KEYS = ("a", "b")
RUN_MODES = ("full", "stream") + tuple(
    f"{mode}-{cut}" for mode in ("resume", "stream-resume") for cut in CUT_KEYS
)


def cell_id(*parts) -> str:
    return "-".join(str(p) for p in parts)


def resume_tick(cell: str) -> int:
    """Deterministically fuzzed mid-run checkpoint tick for one cell.

    Keyed by the cell name so different cells pause at different ticks
    (exercising many cut points across the sweep) while any given cell
    is reproducible run to run.
    """
    return 3 + zlib.crc32(cell.encode()) % (NUM_INTERVALS - 10)


def build_matrix_driver(
    arrivals: str, streaming: bool = False, spill=None
) -> ScenarioDriver:
    """The golden-case workload + scenario under one arrival model."""
    engine = MarketplaceEngine(
        make_stream(), paper_acceptance_model(), planning="stationary",
        arrivals=arrivals,
    )
    specs = generate_workload(4, NUM_INTERVALS, seed=BASE_SEED)
    if streaming:
        engine.submit_source(ListSource(specs))
        return ScenarioDriver(
            engine, golden_scenario(),
            keep_outcomes=False, outcomes_path=spill,
        )
    engine.submit(specs)
    return ScenarioDriver(engine, golden_scenario())


def finish(driver: ScenarioDriver, spill=None) -> dict:
    """Drive to exhaustion; return the JSON-normalized comparison payload.

    Streaming cells materialize nothing in-process: their outcome block
    is rebuilt from the JSONL spill after the run closes.
    """
    result = driver.run()
    outcomes = list(replay_outcomes(spill)) if spill is not None else None
    return json.loads(json.dumps({
        "result": result_to_dict(result, outcomes=outcomes),
        "telemetry": driver.telemetry.to_dict(),
    }))


def run_cell(arrivals, mode, cell, tmp_path) -> dict:
    streaming = mode.startswith("stream")
    spill = tmp_path / f"{cell}.jsonl" if streaming else None
    driver = build_matrix_driver(arrivals, streaming=streaming, spill=spill)
    if "resume" not in mode:
        return finish(driver, spill=spill)
    # Checkpoint/resume cell: pause at the fuzzed tick, snapshot, abandon
    # the original session, and finish from the bundle.  The payload must
    # be indistinguishable from never having stopped.  (Streaming bundles
    # persist the source cursor + aggregate + spill offset, so the spill
    # file keeps growing seamlessly across the cut.)
    driver.start()
    for _ in range(resume_tick(cell)):
        driver.step()
    bundle = driver.save(tmp_path / cell)
    driver.engine.close()
    return finish(ScenarioDriver.resume(bundle), spill=spill)


@pytest.fixture(scope="module")
def factored_baseline():
    return finish(build_matrix_driver("factored"))


@pytest.fixture(scope="module")
def pooled_baseline():
    return finish(build_matrix_driver("pooled"))


class TestBaselines:
    """Anchor the in-memory baselines to the committed golden traces."""

    def test_factored_baseline_is_the_committed_golden(self, factored_baseline):
        golden = json.loads(trace_path("factored_small").read_text())
        assert factored_baseline["result"] == golden["result"]
        assert factored_baseline["telemetry"] == golden["telemetry"]

    def test_pooled_baseline_is_the_committed_golden(self, pooled_baseline):
        golden = json.loads(trace_path("pooled_small").read_text())
        assert pooled_baseline["result"] == golden["result"]
        assert pooled_baseline["telemetry"] == golden["telemetry"]

    def test_pooled_and_factored_are_distinct_baselines(
        self, pooled_baseline, factored_baseline
    ):
        # Different arrival mechanisms: the two families are intentionally
        # separate equivalence classes, not one.
        assert pooled_baseline != factored_baseline


class TestFactoredMatrix:
    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_cell_matches_baseline(self, mode, factored_baseline, tmp_path):
        cell = cell_id("factored", mode)
        payload = run_cell("factored", mode, cell, tmp_path)
        assert payload == factored_baseline, (
            f"cell {cell} diverged from the factored baseline"
        )


class TestPooledMatrix:
    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_cell_matches_baseline(self, mode, pooled_baseline, tmp_path):
        cell = cell_id("pooled", mode)
        payload = run_cell("pooled", mode, cell, tmp_path)
        assert payload == pooled_baseline, (
            f"cell {cell} diverged from the pooled baseline"
        )


class TestCutPoints:
    def test_each_family_resumes_at_four_distinct_ticks(self):
        for family in ("factored", "pooled"):
            ticks = [
                resume_tick(cell_id(family, mode))
                for mode in RUN_MODES
                if "resume" in mode
            ]
            assert len(ticks) == 4
            assert len(set(ticks)) == len(ticks), (family, ticks)


class TestGoldenTraceInvariance:
    """The committed goldens byte-compare when the workload streams.

    ``make regen-golden`` runs the same check before writing anything;
    here it gates every PR.
    """

    @pytest.mark.parametrize("case", ("pooled_small", "factored_small"))
    def test_golden_invariant_under_streaming(self, case):
        # The committed traces byte-compare when the same workload is fed
        # lazily and the outcome block is replayed from a streaming spill.
        golden = json.loads(trace_path(case).read_text())
        assert run_case(case, streaming=True) == golden
