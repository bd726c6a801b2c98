"""Streaming mode is a memory optimization, never a behavior change.

Contracts under test:

* A run fed by ``submit_source`` is **bit-identical** to submitting
  ``list(source)`` up front: same outcomes, same aggregate, same chained
  checksum, same telemetry-visible counters — pooled or factored, keeping
  or streaming, with or without a JSONL spill.
* Cancelling a campaign the source has not materialized yet drops it
  exactly like cancelling a materialized pending spec.
* ``EngineResult``'s summary statistics are O(1) reads off a carried
  ``OutcomeAggregate`` — streaming results answer them with zero
  materialized outcomes.
* Checkpoint bundles persist the source cursor + aggregate + spill
  offset: a streamed run killed mid-flight resumes bit-identically.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import (
    CampaignSpec,
    DEADLINE,
    EngineResult,
    ListSource,
    MarketplaceEngine,
    OutcomeAggregate,
    StreamedWorkload,
    generate_workload,
    replay_outcomes,
    restore_engine,
    save_checkpoint,
)
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream


def make_stream(n: int = 48) -> SharedArrivalStream:
    means = 900.0 + 400.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, n))
    return SharedArrivalStream(means)


def make_engine(arrivals: str = "pooled", n: int = 48, **kwargs):
    return MarketplaceEngine(
        make_stream(n), paper_acceptance_model(), planning="stationary",
        arrivals=arrivals, **kwargs,
    )


def make_source(n: int = 40, seed: int = 13) -> StreamedWorkload:
    return StreamedWorkload(
        n, 48, seed=seed, campaigns_per_wave=8, adaptive_fraction=0.3
    )


def strip_timing(result: EngineResult) -> EngineResult:
    return dataclasses.replace(result, elapsed_seconds=0.0)


ARRIVALS = pytest.mark.parametrize(
    "arrivals", ["pooled", "factored"], ids=["market", "factored"]
)


class TestStreamingEqualsMaterialized:
    @ARRIVALS
    def test_source_run_equals_list_run(self, arrivals):
        source = make_source()
        materialized = make_engine(arrivals)
        materialized.submit(list(source))
        expected = materialized.run(seed=5)

        streamed = make_engine(arrivals)
        streamed.submit_source(make_source())
        got = streamed.run(seed=5)

        assert strip_timing(got) == strip_timing(expected)
        assert got.checksum == expected.checksum

    @ARRIVALS
    def test_streaming_sink_matches_keeping_sink(self, arrivals, tmp_path):
        materialized = make_engine(arrivals)
        materialized.submit(list(make_source()))
        expected = materialized.run(seed=5)

        spill = tmp_path / "outcomes.jsonl"
        streamed = make_engine(arrivals)
        streamed.submit_source(make_source())
        got = streamed.run(seed=5, keep_outcomes=False, outcomes_path=spill)

        assert got.outcomes == ()  # nothing materialized...
        assert got.checksum == expected.checksum  # ...yet nothing lost
        assert got.num_campaigns == expected.num_campaigns
        assert got.total_cost == pytest.approx(expected.total_cost)
        assert got.completion_rate == pytest.approx(expected.completion_rate)
        assert strip_timing(got).summary() == strip_timing(expected).summary()
        # The spill carries full fidelity: replay reconstructs the exact
        # retirement stream the materialized run kept in memory.
        assert list(replay_outcomes(spill)) == list(expected.outcomes)

    def test_list_source_equals_plain_submit(self):
        specs = generate_workload(24, 48, seed=21, adaptive_fraction=0.3)
        plain = make_engine()
        plain.submit(specs)
        expected = plain.run(seed=7)

        sourced = make_engine()
        sourced.submit_source(ListSource(specs))
        got = sourced.run(seed=7)
        assert strip_timing(got) == strip_timing(expected)

    def test_source_merges_with_static_submissions(self):
        specs = generate_workload(16, 48, seed=3)
        source = make_source(24, seed=6)

        together = make_engine()
        together.submit(specs + list(source))
        expected = together.run(seed=9)

        mixed = make_engine()
        mixed.submit(specs)
        mixed.submit_source(make_source(24, seed=6))
        got = mixed.run(seed=9)
        assert strip_timing(got) == strip_timing(expected)

    def test_mid_run_submit_with_source_attached(self):
        late = CampaignSpec(
            campaign_id="late-0", kind=DEADLINE, num_tasks=10,
            submit_interval=30, horizon_intervals=12, max_price=25,
        )
        upfront = make_engine()
        upfront.submit(list(make_source(20)) + [late])
        expected = upfront.run(seed=4)

        streamed = make_engine()
        streamed.submit_source(make_source(20))
        core = streamed.start(seed=4)
        for _ in range(10):
            core.tick()
        streamed.submit([late])
        result = core.run_to_completion()
        assert result.checksum == expected.checksum


class TestStreamedCancellation:
    def test_cancel_unmaterialized_campaign(self):
        source = make_source(30)
        victim = list(source)[-1].campaign_id  # last wave: far future

        materialized = make_engine()
        materialized.submit(list(source))
        m_core = materialized.start(seed=2)
        m_core.tick()
        assert materialized.cancel(victim) is None
        expected = m_core.run_to_completion()

        streamed = make_engine()
        streamed.submit_source(make_source(30))
        s_core = streamed.start(seed=2)
        s_core.tick()
        # The victim does not exist yet — no spec has been built for it.
        assert streamed.cancel(victim) is None
        got = s_core.run_to_completion()

        assert strip_timing(got) == strip_timing(expected)
        assert got.num_campaigns == 29
        assert all(o.spec.campaign_id != victim for o in got.outcomes)

    def test_cancel_unknown_id_tombstones_while_streaming(self):
        # While the source is still producing, "unknown" and "not yet
        # materialized" are indistinguishable — the id is tombstoned and
        # the run is otherwise unaffected.  Once the source is exhausted
        # the strict KeyError contract returns.
        streamed = make_engine()
        streamed.submit_source(make_source(10))
        core = streamed.start(seed=2)
        assert streamed.cancel("never-submitted") is None
        result = core.run_to_completion()
        assert result.num_campaigns == 10

        exhausted = make_engine()
        exhausted.submit_source(make_source(10))
        core = exhausted.start(seed=2)
        while not core.done:
            core.tick()
        with pytest.raises(KeyError):
            exhausted.cancel("never-submitted")

    def test_cancel_live_campaign_from_source(self):
        source = make_source(10)
        first = next(iter(source)).campaign_id
        streamed = make_engine()
        streamed.submit_source(make_source(10))
        core = streamed.start(seed=2)
        while core.num_live == 0:
            core.tick()
        outcome = streamed.cancel(first)
        assert outcome is not None and outcome.cancelled
        result = core.run_to_completion()
        assert result.num_campaigns == 10
        assert result.aggregate.num_cancelled == 1


class TestConstantTimeResults:
    def test_streaming_result_answers_without_outcomes(self):
        streamed = make_engine()
        streamed.submit_source(make_source(12))
        result = streamed.run(seed=3, keep_outcomes=False)
        assert result.outcomes == ()
        assert result.aggregate is not None
        assert result.num_campaigns == 12
        assert 0.0 < result.completion_rate <= 1.0
        assert len(result.checksum) == 64

    def test_materialized_result_folds_lazily_exactly_once(self):
        engine = make_engine()
        engine.submit(generate_workload(8, 48, seed=1))
        result = engine.run(seed=1)
        first = result.aggregate
        _ = result.num_campaigns
        assert result.aggregate is (first or result.aggregate)
        again = result.aggregate
        _ = result.total_cost
        assert result.aggregate is again  # cached, not refolded per read
        assert result.aggregate == OutcomeAggregate.from_outcomes(
            result.outcomes
        )

    def test_pending_id_index_backs_cancel(self):
        # Cancel-of-pending is an id-set discard, not a list scan: the
        # husk stays in _pending but drops out of the live id index.
        engine = make_engine()
        specs = generate_workload(12, 48, seed=2)
        engine.submit(specs)
        core = engine.start(seed=2)
        victim = max(specs, key=lambda s: s.submit_interval)
        before = core.num_pending
        assert engine.cancel(victim.campaign_id) is None
        assert core.num_pending == before - 1
        assert victim.campaign_id not in core._pending_ids
        assert any(
            s.campaign_id == victim.campaign_id for s in core._pending
        )  # the husk is skipped at drain time, not spliced out
        result = core.run_to_completion()
        assert result.num_campaigns == 11


class TestStreamingCheckpoint:
    @pytest.mark.parametrize("keep", [True, False], ids=["keep", "stream"])
    def test_streamed_run_resumes_bit_identically(self, keep, tmp_path):
        baseline = make_engine()
        baseline.submit_source(make_source(30))
        expected = baseline.run(seed=8, keep_outcomes=keep)

        spill = tmp_path / "spill.jsonl" if not keep else None
        engine = make_engine()
        engine.submit_source(make_source(30))
        core = engine.start(seed=8, keep_outcomes=keep, outcomes_path=spill)
        for _ in range(17):
            core.tick()
        bundle = tmp_path / "bundle"
        save_checkpoint(engine, bundle)
        engine.close()

        revived = restore_engine(bundle)
        result = revived.core.run_to_completion()
        revived.close()  # flushes the spill
        assert result.checksum == expected.checksum
        assert result.aggregate == expected.aggregate
        if not keep:
            materialized = make_engine()
            materialized.submit_source(make_source(30))
            full = materialized.run(seed=8)
            assert list(replay_outcomes(spill)) == list(full.outcomes)

    def test_bundle_stores_descriptor_not_specs(self, tmp_path):
        engine = make_engine()
        engine.submit_source(make_source(30))
        core = engine.start(seed=8)
        for _ in range(10):
            core.tick()
        bundle = tmp_path / "bundle"
        save_checkpoint(engine, bundle)
        engine.close()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert manifest["source"]["spec"]["kind"] == "streamed"
        assert manifest["source"]["cursor"] >= core.num_retired
        # Pending campaigns the source has not yielded stay unmaterialized.
        assert len(manifest["specs"]) < 30

    def test_v1_bundle_still_loads(self, tmp_path):
        # A v2 bundle of a fully-materialized run, down-converted to the
        # exact manifest shape version 1 wrote (no source/sink/aggregate
        # keys), must restore and finish bit-identically.
        specs = generate_workload(16, 48, seed=21, adaptive_fraction=0.3)
        baseline = make_engine()
        baseline.submit(specs)
        expected = baseline.run(seed=5)

        engine = make_engine()
        engine.submit(specs)
        core = engine.start(seed=5)
        for _ in range(13):
            core.tick()
        bundle = tmp_path / "bundle"
        save_checkpoint(engine, bundle)
        engine.close()

        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 1
        for key in ("source", "dropped", "sink", "aggregate"):
            manifest.pop(key, None)
        path.write_text(json.dumps(manifest))

        revived = restore_engine(bundle)
        result = revived.core.run_to_completion()
        assert strip_timing(result) == strip_timing(expected)

    def test_source_attach_rules(self):
        engine = make_engine()
        engine.submit_source(make_source(10))
        with pytest.raises(RuntimeError):
            engine.submit_source(make_source(10))  # one source per engine
        engine2 = make_engine()
        engine2.submit(generate_workload(4, 48, seed=0))
        engine2.start(seed=0)
        with pytest.raises(RuntimeError):
            engine2.submit_source(make_source(10))  # not mid-session
