"""Request vocabulary: serialization round trips, traces, scenario lowering."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.engine.campaign import CampaignSpec
from repro.scenario import canned_scenario
from repro.serve import (
    Cancel,
    QueryTelemetry,
    Quote,
    RequestTrace,
    Snapshot,
    SubmitCampaign,
    TimedRequest,
    is_mutating,
    request_from_dict,
    request_to_dict,
)


def spec(cid: str = "c-000", submit: int = 0) -> CampaignSpec:
    return CampaignSpec(
        campaign_id=cid, kind="deadline", num_tasks=10,
        submit_interval=submit, horizon_intervals=6,
    )


ALL_REQUESTS = [
    SubmitCampaign(spec()),
    Quote(spec("q"), solve_on_miss=True),
    Cancel("c-000"),
    QueryTelemetry(last=5),
    Snapshot("/tmp/bundle"),
]


@pytest.mark.parametrize("request_", ALL_REQUESTS, ids=lambda r: type(r).__name__)
def test_request_round_trips_through_dict(request_):
    data = request_to_dict(request_)
    assert isinstance(data["type"], str)
    assert request_from_dict(data) == request_


def test_valid_requests_keep_their_serialized_bytes():
    # Digest of the encoder's output before field validation existed:
    # validation must not move one byte of a well-formed request.
    encoded = "\n".join(json.dumps(request_to_dict(r)) for r in ALL_REQUESTS)
    assert hashlib.sha256(encoded.encode()).hexdigest() == (
        "cdee406db1c1dcb5625deae6186e1dd6eeef43ba20b3a9d3ee2e3438a86d21df"
    )


class TestFieldValidation:
    """A field the gateway cannot serve is rejected where the request is
    built, with a ``ValueError`` naming the field, instead of crashing the
    serving session when the request is applied."""

    @pytest.mark.parametrize(
        "path", [None, 5, b"/tmp/bundle"], ids=["none", "int", "bytes"]
    )
    def test_snapshot_path_must_be_a_path(self, path):
        with pytest.raises(ValueError, match="path"):
            Snapshot(path)

    def test_snapshot_path_like_is_stored_as_str(self, tmp_path):
        request = Snapshot(tmp_path / "bundle")
        assert type(request.path) is str
        assert request.path == str(tmp_path / "bundle")
        assert json.loads(json.dumps(request_to_dict(request)))["path"] == (
            request.path
        )

    @pytest.mark.parametrize(
        "last", [2.5, "x", None, -1], ids=["float", "str", "none", "negative"]
    )
    def test_query_window_must_be_a_non_negative_integer(self, last):
        with pytest.raises(ValueError, match="last"):
            QueryTelemetry(last=last)

    def test_query_window_accepts_numpy_ints_as_int(self):
        request = QueryTelemetry(last=np.int64(3))
        assert type(request.last) is int and request.last == 3

    @pytest.mark.parametrize("build", [SubmitCampaign, Quote])
    @pytest.mark.parametrize(
        "bad", [None, {"campaign_id": "a"}], ids=["none", "dict"]
    )
    def test_spec_must_be_a_campaign_spec(self, build, bad):
        with pytest.raises(ValueError, match="spec"):
            build(bad)


@pytest.mark.parametrize(
    "data,field",
    [
        ({"type": "cancel", "campaign_id": "a", "bogus": 1}, "bogus"),
        ({"type": "cancel"}, "campaign_id"),
        ({"type": "quote", "spec": {"bogus": 1}}, "bogus"),
        ({"type": "quote", "spec": None}, "spec"),
        ({"type": "snapshot", "path": None}, "path"),
        ({"type": "query-telemetry", "last": 2.5}, "last"),
        (["cancel", "a"], "dict"),
    ],
    ids=[
        "unknown-key", "missing-key", "unknown-spec-key", "spec-not-a-dict",
        "snapshot-null-path", "fractional-window", "not-a-dict",
    ],
)
def test_request_from_dict_rejects_malformed_input(data, field):
    with pytest.raises(ValueError, match=field):
        request_from_dict(data)


def test_mutating_split():
    assert is_mutating(SubmitCampaign(spec()))
    assert is_mutating(Cancel("x"))
    assert is_mutating(Snapshot("p"))
    assert not is_mutating(Quote(spec()))
    assert not is_mutating(QueryTelemetry())


def test_unknown_request_types_fail_loudly():
    with pytest.raises(TypeError, match="unknown request type"):
        request_to_dict(object())
    with pytest.raises(ValueError, match="unknown request type"):
        request_from_dict({"type": "frobnicate"})


def test_timed_request_validation():
    with pytest.raises(ValueError, match="tick"):
        TimedRequest(-1, "c", Cancel("x"))
    with pytest.raises(ValueError, match="client"):
        TimedRequest(0, "", Cancel("x"))
    with pytest.raises(TypeError, match="unknown request type"):
        TimedRequest(0, "c", "not a request")


def test_trace_sorts_by_tick_stably():
    trace = RequestTrace(
        name="t",
        requests=(
            TimedRequest(5, "a", Cancel("x1")),
            TimedRequest(2, "a", Cancel("x2")),
            TimedRequest(5, "b", Cancel("x3")),
            TimedRequest(2, "b", Cancel("x4")),
        ),
    )
    assert [r.tick for r in trace.requests] == [2, 2, 5, 5]
    # Stable: same-tick requests keep their original relative order.
    assert [r.request.campaign_id for r in trace.requests] == [
        "x2", "x4", "x1", "x3",
    ]


def test_trace_json_round_trip(tmp_path):
    trace = RequestTrace(
        name="rt",
        requests=tuple(
            TimedRequest(i, f"c{i % 2}", r)
            for i, r in enumerate(ALL_REQUESTS)
        ),
    )
    path = trace.save(tmp_path / "trace.json")
    loaded = RequestTrace.load(path)
    assert loaded == trace


def test_trace_merge_interleaves_by_tick():
    a = RequestTrace("a", (TimedRequest(1, "a", Cancel("a1")),
                           TimedRequest(4, "a", Cancel("a2"))))
    b = RequestTrace("b", (TimedRequest(1, "b", Cancel("b1")),
                           TimedRequest(3, "b", Cancel("b2"))))
    merged = a.merge(b)
    assert merged.name == "a+b"
    assert [r.request.campaign_id for r in merged.requests] == [
        "a1", "b1", "b2", "a2",
    ]


def test_trace_name_required():
    with pytest.raises(ValueError, match="name"):
        RequestTrace(name="", requests=())


def test_from_scenario_lowers_waves_and_cancellations():
    scenario = canned_scenario("black-friday", 48, seed=3)
    timeline = scenario.compile(48)
    trace = RequestTrace.from_scenario(scenario, 48)
    submits = [r for r in trace.requests
               if isinstance(r.request, SubmitCampaign)]
    cancels = [r for r in trace.requests if isinstance(r.request, Cancel)]
    assert len(submits) == timeline.num_campaigns
    assert len(cancels) == sum(
        len(ids) for ids in timeline.cancellations.values()
    )
    # Every submission arrives at its spec's submit interval.
    assert all(r.tick == r.request.spec.submit_interval for r in submits)
    # Same-tick ordering: submissions before cancellations (driver order).
    by_tick: dict[int, list[str]] = {}
    for r in trace.requests:
        by_tick.setdefault(r.tick, []).append(type(r.request).__name__)
    for kinds in by_tick.values():
        if "SubmitCampaign" in kinds and "Cancel" in kinds:
            assert kinds.index("Cancel") > kinds.index("SubmitCampaign")
