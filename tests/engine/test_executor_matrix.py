"""The differential shard/kernel matrix: every cell, bit-identical.

This is the proof obligation for sharding and the compiled kernels: the
engine's behaviour is a function of ``(workload, scenario, seed)`` and
**nothing else**.  The sweep runs the canonical golden scenario through
every cell of

    {pooled, sharded x {1, 2, 3, 4, 5} shards}
  x {numpy, numba} kernel backends           (tests/kernel_modes.py)
  x {uninterrupted, checkpoint/resume at a fuzzed tick}
  x {materialized, streaming}                 (lazy source + spill sink)

and asserts the full JSON-normalized payload — deterministic
``EngineResult`` fields *and* per-tick telemetry — is equal across every
cell of each family.  There are two baselines by design: pooled and
sharded engines realize arrivals through different mechanisms (one
marketplace draw vs. factored per-campaign draws), so their traces are
not comparable to each other; within each family, every knob must be
invisible.

The sharded/pooled baselines are additionally pinned to the committed
golden traces, so a matrix-wide drift (all cells equal, all wrong)
cannot slip through.

Sharded engines run their shards in one serial loop; the ``serial``
component of the sharded cell ids names it.  These tests assert
*invariance*, not scaling; throughput claims live in ``benchmarks/``.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.engine import (
    ListSource,
    MarketplaceEngine,
    ShardedEngine,
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
from tests.kernel_modes import KERNEL_MODES, kernel_mode

#: 2 and 4 are the layouts the shard-scaling benchmark times, so the
#: counts it reports throughput for are proven outcome-invariant here.
SHARD_COUNTS = (1, 2, 3, 4, 5)
#: "stream"/"stream-resume" rerun the cell with a lazy ListSource feeding
#: the same specs and a streaming (keep=False, JSONL-spill) sink — the
#: payload's outcome block is rebuilt from the spill, so these cells prove
#: the memory mode changes no bit of the trace.
RUN_MODES = ("full", "resume", "stream", "stream-resume")


def cell_id(*parts) -> str:
    return "-".join(str(p) for p in parts)


SHARDED_CELLS = [
    pytest.param(s, k, m, id=cell_id(s, "serial", k, m))
    for s in SHARD_COUNTS
    for k in KERNEL_MODES
    for m in RUN_MODES
]
POOLED_CELLS = [
    pytest.param(k, m, id=cell_id(k, m))
    for k in KERNEL_MODES
    for m in RUN_MODES
]


def resume_tick(cell: str) -> int:
    """Deterministically fuzzed mid-run checkpoint tick for one cell.

    Keyed by the cell name so different cells pause at different ticks
    (exercising many cut points across the sweep) while any given cell
    is reproducible run to run.
    """
    return 3 + zlib.crc32(cell.encode()) % (NUM_INTERVALS - 10)


def build_matrix_driver(
    num_shards: int, streaming: bool = False, spill=None
) -> ScenarioDriver:
    """The golden-case workload + scenario on an arbitrary engine shape."""
    if num_shards:
        engine: MarketplaceEngine | ShardedEngine = ShardedEngine(
            make_stream(), paper_acceptance_model(), num_shards=num_shards,
            planning="stationary",
        )
    else:
        engine = MarketplaceEngine(
            make_stream(), paper_acceptance_model(), planning="stationary"
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


def run_cell(num_shards, mode, cell, tmp_path) -> dict:
    streaming = mode.startswith("stream")
    spill = tmp_path / f"{cell}.jsonl" if streaming else None
    driver = build_matrix_driver(num_shards, streaming=streaming, spill=spill)
    if mode in ("full", "stream"):
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


def normalized(payload: dict) -> dict:
    """Strip the one field that legitimately varies: the shard count."""
    payload = json.loads(json.dumps(payload))
    payload["result"].pop("num_shards")
    return payload


@pytest.fixture(scope="module")
def sharded_baseline():
    with kernel_mode("numpy"):
        return finish(build_matrix_driver(3))


@pytest.fixture(scope="module")
def pooled_baseline():
    with kernel_mode("numpy"):
        return finish(build_matrix_driver(0))


class TestBaselines:
    """Anchor the in-memory baselines to the committed golden traces."""

    def test_sharded_baseline_is_the_committed_golden(self, sharded_baseline):
        golden = json.loads(trace_path("sharded3_small").read_text())
        assert sharded_baseline["result"] == golden["result"]
        assert sharded_baseline["telemetry"] == golden["telemetry"]

    def test_pooled_baseline_is_the_committed_golden(self, pooled_baseline):
        golden = json.loads(trace_path("pooled_small").read_text())
        assert pooled_baseline["result"] == golden["result"]
        assert pooled_baseline["telemetry"] == golden["telemetry"]

    def test_pooled_and_sharded_are_distinct_baselines(
        self, pooled_baseline, sharded_baseline
    ):
        # Different arrival mechanisms: the two families are intentionally
        # separate equivalence classes, not one.
        assert normalized(pooled_baseline) != normalized(sharded_baseline)


class TestShardedMatrix:
    @pytest.mark.parametrize("num_shards,kernels_name,mode", SHARDED_CELLS)
    def test_cell_matches_baseline(
        self, num_shards, kernels_name, mode, sharded_baseline, tmp_path
    ):
        cell = cell_id("sharded", num_shards, "serial", kernels_name, mode)
        with kernel_mode(kernels_name):
            payload = run_cell(num_shards, mode, cell, tmp_path)
        assert payload["result"]["num_shards"] == num_shards
        assert normalized(payload) == normalized(sharded_baseline), (
            f"cell {cell} diverged from the 3-shard/numpy baseline"
        )


class TestPooledMatrix:
    @pytest.mark.parametrize("kernels_name,mode", POOLED_CELLS)
    def test_cell_matches_baseline(
        self, kernels_name, mode, pooled_baseline, tmp_path
    ):
        cell = cell_id("pooled", kernels_name, mode)
        with kernel_mode(kernels_name):
            payload = run_cell(0, mode, cell, tmp_path)
        assert normalized(payload) == normalized(pooled_baseline), (
            f"cell {cell} diverged from the pooled baseline"
        )


class TestGoldenTraceInvariance:
    """The committed sharded golden byte-compares under every knob.

    ``make regen-golden`` runs the same check before writing anything;
    here it gates every PR.
    """

    @pytest.mark.parametrize(
        "kernels_name",
        [pytest.param(k, id=f"{k}-serial") for k in KERNEL_MODES],
    )
    def test_sharded_golden_invariant(self, kernels_name):
        golden = json.loads(trace_path("sharded3_small").read_text())
        with kernel_mode(kernels_name):
            assert run_case("sharded3_small") == golden

    @pytest.mark.parametrize("kernels_name", KERNEL_MODES)
    def test_pooled_golden_invariant_under_kernels(self, kernels_name):
        golden = json.loads(trace_path("pooled_small").read_text())
        with kernel_mode(kernels_name):
            assert run_case("pooled_small") == golden

    @pytest.mark.parametrize("case", ("pooled_small", "sharded3_small"))
    def test_golden_invariant_under_streaming(self, case):
        # The committed traces byte-compare when the same workload is fed
        # lazily and the outcome block is replayed from a streaming spill.
        golden = json.loads(trace_path(case).read_text())
        assert run_case(case, streaming=True) == golden
