"""Checkpoint/resume smoke drill: run, kill mid-run, resume, compare.

This is the ``make checkpoint-smoke`` target (wired into CI): under each
arrival model it runs a workload to completion, then re-runs it with a
simulated kill at a mid-run tick — snapshotting to a bundle, discarding
the engine, restoring from disk, and finishing — and requires the
stitched result to be **bit-identical** to the uninterrupted run (same
outcomes, counters, and per-session stats; wall-clock excluded).

Exits non-zero on any divergence.  Usage::

    python scripts/checkpoint_smoke.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # allow running without an install step
    sys.path.insert(0, str(REPO_SRC))

from repro.engine import (  # noqa: E402  (path bootstrap above)
    ARRIVAL_MODELS,
    MarketplaceEngine,
    generate_workload,
    restore_engine,
    save_checkpoint,
)
from repro.market.acceptance import paper_acceptance_model  # noqa: E402
from repro.sim.stream import SharedArrivalStream  # noqa: E402

SEED = 11
NUM_INTERVALS = 60
STOP_TICKS = (3, 17)

def _stream() -> SharedArrivalStream:
    means = 1300.0 + 450.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, NUM_INTERVALS))
    return SharedArrivalStream(means)


def _build(arrivals: str):
    engine = MarketplaceEngine(
        _stream(), paper_acceptance_model(), planning="stationary",
        arrivals=arrivals,
    )
    engine.submit(
        generate_workload(14, NUM_INTERVALS, seed=3, adaptive_fraction=0.4)
    )
    return engine


def _strip(result):
    return dataclasses.replace(result, elapsed_seconds=0.0)


def main() -> int:
    """Run the drill under every arrival model; return a process exit code."""
    failures = 0
    for arrivals in ARRIVAL_MODELS:
        baseline = _build(arrivals).run(seed=SEED)
        for stop in STOP_TICKS:
            engine = _build(arrivals)
            core = engine.start(seed=SEED)
            for _ in range(stop):
                if core.done:
                    break
                core.tick()
            with tempfile.TemporaryDirectory() as tmp:
                bundle = Path(tmp) / "ck"
                save_checkpoint(engine, bundle)
                engine.close()
                del engine, core  # the resume must stand on the bundle alone
                resumed = restore_engine(bundle)
                result = resumed.run_to_completion()
                resumed.close()
            if _strip(result) == _strip(baseline):
                print(f"ok    {arrivals:<18} kill@tick {stop:>3}: "
                      f"{result.num_campaigns} campaigns, "
                      f"{result.total_completed} tasks — bit-identical")
            else:
                failures += 1
                print(f"FAIL  {arrivals:<18} kill@tick {stop:>3}: "
                      "resumed run diverged from the uninterrupted run")
    if failures:
        print(f"\ncheckpoint smoke FAILED: {failures} divergent resume(s)")
        return 1
    print("\ncheckpoint smoke passed: every resume matched bit-for-bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
