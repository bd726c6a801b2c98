"""The streaming outcome boundary: aggregates, sinks, spill, replay.

Contracts under test:

* ``OutcomeAggregate.fold`` is exactly a left fold: folding outcomes one
  at a time equals ``from_outcomes`` over the same sequence, and every
  statistic matches the materialized-list computation.
* The chained checksum fingerprints the retirement *stream*: same
  outcomes in a different order hash differently, any record perturbation
  hashes differently, and ``to_dict``/``from_dict`` round-trip the digest
  so a resumed run keeps folding the same chain.
* ``OutcomeSink(keep=False)`` retains no outcome objects yet reports the
  same aggregate as a keeping sink fed the same stream.
* Spill files replay bit-identically through ``replay_outcomes``, and
  ``resume_offset`` truncates a dirty tail so checkpoint restore can
  reopen a spill mid-stream without duplicating records.
* Every spilled line is the JSON reference form of ``outcome_record``
  (sorted keys, compact separators, ASCII escapes), for every field type
  a record can hold, and the checksum chains exactly those bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    CampaignOutcome,
    CampaignSpec,
    CampaignTemplate,
    DEADLINE,
    BUDGET,
    MarketplaceEngine,
    OutcomeAggregate,
    OutcomeSink,
    StreamedWorkload,
    Telemetry,
    outcome_from_record,
    outcome_record,
    replay_outcomes,
)
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import DemandShock, Scenario, ScenarioDriver
from repro.sim.stream import SharedArrivalStream


def make_outcome(i: int, *, cancelled: bool = False) -> CampaignOutcome:
    kind = BUDGET if i % 3 == 0 else DEADLINE
    spec = CampaignSpec(
        campaign_id=f"c{i:03d}",
        kind=kind,
        num_tasks=10 + i,
        submit_interval=i,
        horizon_intervals=8,
        budget=500.0 if kind == BUDGET else None,
        penalty_per_task=0.0 if kind == BUDGET else 25.0,
        max_price=30,
        adaptive=(i % 4 == 0 and kind == DEADLINE),
    )
    return CampaignOutcome(
        spec=spec,
        completed=8 + i,
        remaining=2 if i % 2 else 0,
        total_cost=12.5 * (i + 1),
        penalty=25.0 if (kind == DEADLINE and i % 2) else 0.0,
        finished_interval=None if i % 2 else i + 7,
        cache_hit=(i % 2 == 1),
        num_solves=0 if i % 2 == 1 else 1 + i % 3,
        cancelled=cancelled,
    )


OUTCOMES = [make_outcome(i) for i in range(9)] + [
    make_outcome(9, cancelled=True)
]


class TestOutcomeAggregate:
    def test_fold_matches_from_outcomes(self):
        agg = OutcomeAggregate()
        for o in OUTCOMES:
            agg.fold(o)
        assert agg == OutcomeAggregate.from_outcomes(OUTCOMES)

    def test_statistics_match_materialized_computation(self):
        agg = OutcomeAggregate.from_outcomes(OUTCOMES)
        assert agg.num_campaigns == len(OUTCOMES)
        assert agg.total_completed == sum(o.completed for o in OUTCOMES)
        assert agg.total_remaining == sum(o.remaining for o in OUTCOMES)
        assert agg.total_cost == pytest.approx(
            sum(o.total_cost for o in OUTCOMES)
        )
        assert agg.total_penalty == pytest.approx(
            sum(o.penalty for o in OUTCOMES)
        )
        assert agg.num_deadline == sum(
            1 for o in OUTCOMES if o.spec.kind == DEADLINE
        )
        assert agg.num_budget == sum(
            1 for o in OUTCOMES if o.spec.kind == BUDGET
        )
        assert agg.num_adaptive == sum(1 for o in OUTCOMES if o.spec.adaptive)
        assert agg.num_cancelled == 1
        assert agg.num_cache_hits == sum(1 for o in OUTCOMES if o.cache_hit)
        assert agg.num_finished == sum(1 for o in OUTCOMES if o.finished)
        assert agg.total_solves == sum(o.num_solves for o in OUTCOMES)
        total = agg.total_completed + agg.total_remaining
        assert agg.completion_rate == pytest.approx(agg.total_completed / total)

    def test_empty_aggregate(self):
        agg = OutcomeAggregate()
        assert agg.num_campaigns == 0
        assert agg.completion_rate == 0.0
        assert agg.checksum == ("0" * 64)

    def test_checksum_is_order_sensitive(self):
        fwd = OutcomeAggregate.from_outcomes(OUTCOMES)
        rev = OutcomeAggregate.from_outcomes(list(reversed(OUTCOMES)))
        assert fwd.checksum != rev.checksum
        # Counters, by contrast, are order-free.
        assert fwd.num_campaigns == rev.num_campaigns
        assert fwd.total_cost == pytest.approx(rev.total_cost)

    def test_checksum_detects_perturbation(self):
        import dataclasses

        tweaked = list(OUTCOMES)
        tweaked[3] = dataclasses.replace(tweaked[3], total_cost=0.01)
        assert (
            OutcomeAggregate.from_outcomes(tweaked).checksum
            != OutcomeAggregate.from_outcomes(OUTCOMES).checksum
        )

    def test_dict_round_trip_continues_the_chain(self):
        head, tail = OUTCOMES[:6], OUTCOMES[6:]
        agg = OutcomeAggregate.from_outcomes(head)
        revived = OutcomeAggregate.from_dict(
            json.loads(json.dumps(agg.to_dict()))
        )
        assert revived == agg
        for o in tail:
            agg.fold(o)
            revived.fold(o)
        assert revived.checksum == agg.checksum
        assert revived == OutcomeAggregate.from_outcomes(OUTCOMES)

    def test_copy_is_independent(self):
        agg = OutcomeAggregate.from_outcomes(OUTCOMES[:3])
        dup = agg.copy()
        agg.fold(OUTCOMES[3])
        assert dup == OutcomeAggregate.from_outcomes(OUTCOMES[:3])
        assert dup != agg


class TestOutcomeRecord:
    def test_record_round_trip(self):
        for o in OUTCOMES:
            assert outcome_from_record(outcome_record(o)) == o

    def test_record_without_spec_round_trips_with_external_spec(self):
        o = OUTCOMES[4]
        rec = outcome_record(o, with_spec=False)
        assert "spec" not in rec
        assert outcome_from_record(rec, spec=o.spec) == o

    def test_record_is_json_safe(self):
        for o in OUTCOMES:
            clone = json.loads(json.dumps(outcome_record(o)))
            assert outcome_from_record(clone) == o


class TestOutcomeSink:
    def test_streaming_sink_keeps_nothing_but_aggregates_everything(self):
        keeping, streaming = OutcomeSink(keep=True), OutcomeSink(keep=False)
        keeping.extend(OUTCOMES)
        streaming.extend(OUTCOMES)
        assert len(keeping.outcomes) == len(OUTCOMES)
        assert streaming.outcomes == []
        assert streaming.aggregate == keeping.aggregate
        assert streaming.aggregate.checksum == keeping.aggregate.checksum

    def test_has_retired(self):
        sink = OutcomeSink(keep=True)
        sink.extend(OUTCOMES[:3])
        assert sink.has_retired(OUTCOMES[0].spec.campaign_id)
        assert not sink.has_retired("nope")
        # Streaming sinks drop the id set along with the list.
        assert not OutcomeSink(keep=False).has_retired(
            OUTCOMES[0].spec.campaign_id
        )

    def test_spill_replays_bit_identically(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        sink = OutcomeSink(keep=False, spill_path=path)
        sink.extend(OUTCOMES)
        sink.close()
        replayed = list(replay_outcomes(path))
        assert replayed == OUTCOMES
        assert (
            OutcomeAggregate.from_outcomes(replayed).checksum
            == sink.aggregate.checksum
        )

    def test_resume_offset_truncates_dirty_tail(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        first = OutcomeSink(keep=False, spill_path=path)
        first.extend(OUTCOMES[:4])
        first.flush()
        offset = first.spill_offset
        first.extend(OUTCOMES[4:6])  # beyond the "checkpoint": a dirty tail
        first.close()
        resumed = OutcomeSink(
            keep=False, spill_path=path, resume_offset=offset
        )
        resumed.extend(OUTCOMES[4:])
        resumed.close()
        assert list(replay_outcomes(path)) == OUTCOMES

    def test_resume_offset_requires_existing_file(self, tmp_path):
        with pytest.raises(ValueError):
            OutcomeSink(
                keep=False,
                spill_path=tmp_path / "missing.jsonl",
                resume_offset=10,
            )

    def test_restore_installs_without_refolding(self):
        agg = OutcomeAggregate.from_outcomes(OUTCOMES[:5])
        sink = OutcomeSink(keep=True)
        sink.restore(agg, list(OUTCOMES[:5]))
        sink.extend(OUTCOMES[5:])
        assert sink.aggregate == OutcomeAggregate.from_outcomes(OUTCOMES)
        assert sink.outcomes == list(OUTCOMES)
        assert sink.has_retired(OUTCOMES[2].spec.campaign_id)


class TestCanonicalBytes:
    """The serialized outcome bytes, pinned to literals.

    Every other test here compares two runs of the same code, so a change
    to the canonical form would move both sides together; these compare
    against fixed bytes, so any such change fails here.
    """

    CANCELLED_BUDGET = (
        b'{"cache_hit":true,"campaign_id":"b-7","cancelled":true,'
        b'"completed":3,"finished_interval":null,"num_solves":0,'
        b'"penalty":0.0,"remaining":5,"spec":{"adaptive":false,'
        b'"budget":48.0,"campaign_id":"b-7","horizon_intervals":6,'
        b'"kind":"budget","max_price":10,"num_tasks":8,'
        b'"penalty_per_task":100.0,"resolve_every":4,"submit_interval":3},'
        b'"total_cost":25.0}'
    )
    UNFINISHED_DEADLINE = (
        b'{"cache_hit":false,"campaign_id":"d-2","cancelled":false,'
        b'"completed":4,"finished_interval":null,"num_solves":1,'
        b'"penalty":40.0,"remaining":2,"spec":{"adaptive":false,'
        b'"budget":null,"campaign_id":"d-2","horizon_intervals":5,'
        b'"kind":"deadline","max_price":12,"num_tasks":6,'
        b'"penalty_per_task":20.0,"resolve_every":4,"submit_interval":0},'
        b'"total_cost":33.0}'
    )

    @staticmethod
    def records() -> list[CampaignOutcome]:
        budget = CampaignSpec(
            campaign_id="b-7", kind=BUDGET, num_tasks=8, submit_interval=3,
            horizon_intervals=6, max_price=10, budget=48.0,
        )
        deadline = CampaignSpec(
            campaign_id="d-2", kind=DEADLINE, num_tasks=6, submit_interval=0,
            horizon_intervals=5, max_price=12, penalty_per_task=20.0,
        )
        return [
            CampaignOutcome(
                spec=budget, completed=3, remaining=5, total_cost=25.0,
                penalty=0.0, finished_interval=None, cache_hit=True,
                num_solves=0, cancelled=True,
            ),
            CampaignOutcome(
                spec=deadline, completed=4, remaining=2, total_cost=33.0,
                penalty=40.0, finished_interval=None, cache_hit=False,
                num_solves=1,
            ),
        ]

    def test_spilled_records_and_checksum_chain(self, tmp_path):
        path = tmp_path / "two.jsonl"
        sink = OutcomeSink(keep=False, spill_path=path)
        sink.extend(self.records())
        sink.close()
        lines = [self.CANCELLED_BUDGET, self.UNFINISHED_DEADLINE]
        assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
        digest = b"\x00" * 32
        for line in lines:
            digest = hashlib.sha256(digest + line).digest()
        assert sink.aggregate.checksum == digest.hex()

    def test_record_without_spec(self):
        assert outcome_record(self.records()[1], with_spec=False) == {
            "campaign_id": "d-2", "completed": 4, "remaining": 2,
            "total_cost": 33.0, "penalty": 40.0, "finished_interval": None,
            "cache_hit": False, "num_solves": 1, "cancelled": False,
        }

    def test_streamed_scale_shapes_pin_checksum_and_spill(self, tmp_path):
        # The bench_scale workload at 2,000 campaigns: tiny deadline and
        # budget shapes, 100 per wave, under a mid-run demand shock.
        templates = (
            CampaignTemplate("sc-dl", DEADLINE, num_tasks=6, horizon_intervals=5,
                             max_price=12, penalty_per_task=20.0),
            CampaignTemplate("sc-bg", BUDGET, num_tasks=8, horizon_intervals=6,
                             max_price=10, per_task_budget=6.0),
        )
        intervals = 2_000 // 100 + 8
        source = StreamedWorkload(
            2_000, intervals, seed=11, templates=templates,
            budget_fraction=0.25, adaptive_fraction=0.0,
            campaigns_per_wave=100, id_prefix="sc",
        )
        engine = MarketplaceEngine(
            SharedArrivalStream(np.full(intervals, 400.0)),
            paper_acceptance_model(),
            planning="stationary",
        )
        engine.submit_source(source)
        scenario = Scenario(
            name="scale-steady", seed=11,
            events=(DemandShock(start=intervals // 3, stop=intervals // 2,
                                factor=1.5),),
        )
        path = tmp_path / "scale.jsonl"
        result = ScenarioDriver(
            engine, scenario, telemetry=Telemetry(record_campaigns=False),
            keep_outcomes=False, outcomes_path=path,
        ).run()
        engine.close()
        assert result.num_campaigns == 2_000
        assert result.checksum == (
            "27628417b60c44d8d773b0eb9426afa08c54011574edd9f23c382125b7d1b9c4"
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "570b2fce566c5d1fb2d2f8f71e65d6f471a471cf0afc924d2425072e158cd336"
        )


# Field values of every type a record can hold: int and float money
# fields (numpy floats, a float subclass, among them), whole-float price
# caps, truthy non-bool flags, non-finite and signed-zero floats, and ids
# that need JSON escapes.
_ODD_FLOATS = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
_MONEY = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64),
    _ODD_FLOATS,
)
_FLAGS = st.sampled_from([True, False, 0, 1, 2])
_IDS = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x07\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)


@st.composite
def any_outcome(draw) -> CampaignOutcome:
    kind = draw(st.sampled_from([DEADLINE, BUDGET]))
    if kind == BUDGET:
        budget = draw(st.one_of(
            st.integers(1, 10**9),
            st.floats(min_value=1e-6, max_value=1e12),
        ))
        adaptive = draw(st.sampled_from([False, 0]))
    else:
        budget = draw(st.one_of(st.none(), _MONEY))
        adaptive = draw(_FLAGS)
    spec = CampaignSpec(
        campaign_id=draw(_IDS),
        kind=kind,
        num_tasks=draw(st.integers(1, 10**6)),
        submit_interval=draw(st.integers(0, 10**9)),
        horizon_intervals=draw(st.integers(1, 10**6)),
        max_price=draw(st.one_of(
            st.integers(1, 1000), st.integers(1, 1000).map(float)
        )),
        penalty_per_task=draw(st.one_of(
            st.integers(0, 10**6), st.floats(min_value=0.0, max_value=1e12)
        )),
        budget=budget,
        adaptive=adaptive,
        resolve_every=draw(st.integers(1, 64)),
    )
    return CampaignOutcome(
        spec=spec,
        completed=draw(st.integers(0, 10**6)),
        remaining=draw(st.integers(0, 10**6)),
        total_cost=draw(st.one_of(st.floats(), _ODD_FLOATS)),
        penalty=draw(_MONEY),
        finished_interval=draw(st.one_of(st.none(), st.integers(0, 10**9))),
        cache_hit=draw(_FLAGS),
        num_solves=draw(st.integers(0, 10**4)),
        cancelled=draw(_FLAGS),
    )


class TestCanonicalBytesMatchJson:
    """Spilled lines equal the JSON reference encoding, type by type."""

    @settings(max_examples=300, deadline=None)
    @given(outcomes=st.lists(any_outcome(), min_size=1, max_size=6))
    def test_spill_lines_and_chain_match_json_dumps(self, outcomes):
        expected = [
            json.dumps(
                outcome_record(o), sort_keys=True, separators=(",", ":")
            ).encode()
            for o in outcomes
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            sink = OutcomeSink(keep=False, spill_path=path)
            # The running totals of non-finite numpy draws may be NaN;
            # this test reads the bytes, not the totals.
            with np.errstate(invalid="ignore", over="ignore"):
                sink.extend(outcomes)
            sink.close()
            assert path.read_bytes().split(b"\n")[:-1] == expected
        digest = b"\x00" * 32
        for line in expected:
            digest = hashlib.sha256(digest + line).digest()
        assert sink.aggregate.checksum == digest.hex()
