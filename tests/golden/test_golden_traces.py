"""Golden-trace comparator: recompute the canonical runs, diff byte-level.

Any engine-behaviour drift — draw order, routing, cache accounting,
cancellation bookkeeping, telemetry fields — lands here first.  If the
change is intentional, regenerate with ``make regen-golden`` and commit
the reviewed diff; if it is not, this failure just caught a regression
the aggregate-level tests could miss.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.cases import (
    CASES,
    SERVE_CASES,
    run_any_case,
    trace_path,
)


def _first_divergence(expected, actual, path="$"):
    """Human-readable pointer to the first differing leaf."""
    if type(expected) is not type(actual):
        return f"{path}: type {type(expected).__name__} != {type(actual).__name__}"
    if isinstance(expected, dict):
        for key in expected.keys() | actual.keys():
            if key not in expected or key not in actual:
                return f"{path}.{key}: present on one side only"
            hit = _first_divergence(expected[key], actual[key], f"{path}.{key}")
            if hit:
                return hit
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            hit = _first_divergence(e, a, f"{path}[{i}]")
            if hit:
                return hit
        return None
    if expected != actual:
        return f"{path}: {expected!r} != {actual!r}"
    return None


@pytest.mark.parametrize("case", sorted(CASES) + sorted(SERVE_CASES))
def test_trace_matches_committed_golden(case):
    path = trace_path(case)
    assert path.is_file(), (
        f"golden trace {path.name} is missing; generate it with "
        "`make regen-golden` and commit the file"
    )
    expected = json.loads(path.read_text())
    actual = run_any_case(case)
    if expected != actual:
        divergence = _first_divergence(expected, actual)
        pytest.fail(
            f"golden trace {path.name} diverged at {divergence}.  If this "
            "change is intentional, run `make regen-golden` and commit the "
            "reviewed diff."
        )


def test_pooled_and_factored_traces_share_the_scenario():
    """Both canonical cases run the same spec — only the arrival model
    differs, and the goldens carry no trace of the retired shard count."""
    pooled = json.loads(trace_path("pooled_small").read_text())
    factored = json.loads(trace_path("factored_small").read_text())
    assert pooled["scenario"] == factored["scenario"]
    assert pooled["result"] != factored["result"]
    assert "num_shards" not in pooled["result"]
    assert "num_shards" not in factored["result"]


def test_golden_traces_exercise_all_three_stressors():
    """The canonical runs actually contain churn, a shock, a cancellation."""
    for case in sorted(CASES):
        trace = json.loads(trace_path(case).read_text())
        series = trace["telemetry"]["series"]
        assert max(series["rate_factor"]) > 1.0, f"{case}: no demand shock"
        assert sum(series["cancelled"]) >= 1, f"{case}: no cancellation"
        assert sum(series["admitted"]) > 4, f"{case}: no churn beyond the base"


def test_served_golden_trace_exercises_the_request_frontier():
    """The served run contains admissions, reads, AND backpressure."""
    for case in sorted(SERVE_CASES):
        trace = json.loads(trace_path(case).read_text())
        serve = trace["telemetry"]["serve"]
        engine = trace["telemetry"]["engine"]["series"]
        assert sum(serve["admitted"]) > 4, f"{case}: no served admissions"
        assert sum(serve["rejected"]) >= 1, f"{case}: no backpressure"
        assert sum(serve["reads"]) >= 1, f"{case}: no reads served"
        assert sum(serve["cancels"]) >= 1, f"{case}: no cancellations"
        assert max(engine["rate_factor"]) > 1.0, f"{case}: no flash crowd"
        # Wall-clock latency must never leak into the committed trace.
        assert "latency" not in trace["telemetry"]
