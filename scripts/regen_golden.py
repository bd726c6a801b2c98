"""Regenerate the golden scenario traces under tests/golden/.

This is the ``make regen-golden`` target.  Run it after an *intentional*
engine-behaviour change (new draw order, different routing, changed
accounting), then review the JSON diff like any other code change —
unreviewed regeneration defeats the point of a golden trace.

Before writing anything, the script verifies the invariance contract on
the *candidate* traces: every case re-run in streaming mode (lazy source
+ spill-backed sink) must be byte-identical to the materialized
recomputation, and every served case must hold under tenant tagging and
a fully instrumented run.  A divergence means
the engine change broke the determinism contract — regeneration would
only bake the bug into the goldens — so the script refuses and points at
the first differing case instead (the matrix suite,
``tests/engine/test_differential_matrix.py``, localizes it further).

Usage::

    PYTHONPATH=src python scripts/regen_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (REPO_ROOT / "src", REPO_ROOT):
    if str(entry) not in sys.path:  # allow running without an install step
        sys.path.insert(0, str(entry))

from tests.golden.cases import (  # noqa: E402
    CASES,
    SERVE_CASES,
    analytics_path,
    run_analytics_case,
    run_any_case,
    run_case,
    run_serve_case,
    trace_path,
)


def verify_invariance() -> str | None:
    """Prove the candidate traces hold across memory and serving modes.

    Returns ``None`` when every re-run is byte-identical, else a message
    naming the first diverging case and mode.
    """
    for case in sorted(CASES):
        baseline = run_case(case)
        # Memory-mode arm: the same workload fed through a lazy source
        # into a streaming (aggregate + spill) sink must reproduce the
        # trace byte-for-byte — goldens are only ever rewritten when
        # materialized and streaming runs agree.
        if run_case(case, streaming=True) != baseline:
            return (
                f"case {case!r} diverged between materialized and "
                "streaming outcome modes; the streaming memory core is "
                "not bit-identical (see tests/engine/"
                "test_streaming_core.py) — fix the engine before "
                "regenerating goldens"
            )
    # Tenant-mode arm: the served goldens are recorded single-tenant, so
    # (a) the default-tenant payload must never leak tenant keys (the
    # byte-identity convention for pre-tenant readers), and (b) replaying
    # the tenant-tagged twin under fair scheduling must leave the engine
    # result identical.
    for case in sorted(SERVE_CASES):
        baseline = run_serve_case(case)
        if '"tenant"' in json.dumps(baseline):
            return (
                f"served case {case!r} leaks tenant keys from a "
                "default-tenant run; the single-tenant byte-identity "
                "convention is broken (see tests/serve/test_tenants.py) "
                "— fix the serve layer before regenerating goldens"
            )
        tenanted = run_serve_case(case, tenants=("gold", "silver"))
        if tenanted["result"] != baseline["result"]:
            return (
                f"served case {case!r} changed engine outcomes when the "
                "trace was tenant-tagged; fair scheduling must not alter "
                "what the engine computes (see tests/serve/"
                "test_gateway_determinism.py) — fix the serve layer "
                "before regenerating goldens"
            )
        # Instrumented arm: the full observability stack — event log,
        # metrics + phase timings, and a live ops server scraped at tick
        # boundaries — must be serialization-inert.
        instrumented = run_serve_case(case, instrumented=True)
        if json.dumps(instrumented, sort_keys=True) != json.dumps(
            baseline, sort_keys=True
        ):
            return (
                f"served case {case!r} diverged when the observability "
                "stack (event log, metrics, live ops scrapes) "
                "was wired; the serialization-inert contract is broken "
                "(see tests/obs/test_ops_invariance.py) — fix the obs "
                "layer before regenerating goldens"
            )
    return None


def main() -> int:
    """Recompute every canonical case and rewrite its committed trace."""
    failure = verify_invariance()
    if failure is not None:
        print(f"refusing to regenerate: {failure}", file=sys.stderr)
        return 1
    print("invariance verified: traces byte-identical under "
          "streaming outcome mode, tenant tagging, "
          "and a fully-instrumented run with live ops scrapes")
    for case in sorted(CASES) + sorted(SERVE_CASES):
        payload = run_any_case(case)
        path = trace_path(case)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        telemetry = payload["telemetry"]
        series = telemetry["engine"]["series"] if "engine" in telemetry else telemetry["series"]
        print(
            f"{path.relative_to(REPO_ROOT)}: "
            f"{len(payload['result']['outcomes'])} outcomes, "
            f"{len(series['interval'])} telemetry ticks"
        )
    # The analytics golden derives from the freshly rewritten serve trace,
    # so it must regenerate after the case loop.
    analytics = run_analytics_case()
    path = analytics_path()
    path.write_text(json.dumps(analytics, indent=1, sort_keys=True) + "\n")
    print(
        f"{path.relative_to(REPO_ROOT)}: "
        f"{len(analytics['queries'])} canned queries at window "
        f"{analytics['window']}"
    )
    print("review the diff before committing (git diff tests/golden/)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
