"""Compiled-kernel microbenchmark: the DP solve layer under REPRO_KERNELS.

The tracked surface is the deadline DP-solve path — the hottest loop in
the engine (``docs/performance.md``) — measured at two levels, arms
interleaved best-of-``REPEATS`` like the other tracked benches:

* **scalar** — the per-instance
  :func:`~repro.core.deadline.vectorized.solve_deadline` loop over the
  workload (the pre-batching reference point);
* **kernel** — one :func:`~repro.core.batch.solve_deadline_batch` call
  under the *resolved* kernel backend (``REPRO_KERNELS``: numpy when
  unset; ``numba`` or ``auto`` compile where numba is installed).

The acceptance bar ratchets with the backend: with numba actually
compiled the kernel path must deliver **>= 5x** the scalar policy-solve
throughput; the numpy fallback is exempt from the 5x and instead holds
the engine-wide 3x batch bar.  Results land under the ``"kernels"`` key
of ``BENCH_engine.json``.

Before any timing, the backends are differentially checked on the bench
workload itself — the speedup must not come from solving a different
problem (the exhaustive equality sweep lives in
``tests/core/batch/test_kernel_equivalence.py``).

Smoke mode: ``REPRO_BENCH_SMOKE=1`` (CI, via ``make kernels-smoke``)
shrinks the workload and drops the bar to a hang guard; the committed
record is only rewritten by full runs.

Run:  make bench-kernels
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.core.batch import kernels, solve_deadline_batch
from repro.core.deadline.model import DeadlineProblem, PenaltyScheme
from repro.core.deadline.vectorized import solve_deadline
from repro.market.acceptance import paper_acceptance_model

#: CI smoke mode: tiny workload, same code paths, hang-guard bar only.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SEED = 37
NUM_INSTANCES = 16 if SMOKE else 64
REPEATS = 2 if SMOKE else 3
#: (num_tasks, horizon, max_price) shapes, cycled across the workload.
SHAPES = ((15, 9, 25), (40, 18, 30), (80, 30, 30), (25, 6, 40))

BENCH_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def required_speedup(backend: str) -> float:
    """The ratcheted bar for the resolved backend.

    numba must buy real compilation wins (5x over scalar); the numpy
    fallback is exempt from the 5x and holds the engine's 3x batch bar.
    Smoke mode guards against hangs, not throughput.
    """
    if SMOKE:
        return 1.0
    return 5.0 if backend == "numba" and kernels.HAVE_NUMBA else 3.0


def solve_workload(n: int = NUM_INSTANCES) -> list[DeadlineProblem]:
    """``n`` deadline instances with distinct signatures."""
    rng = np.random.default_rng(SEED)
    acceptance = paper_acceptance_model()
    problems = []
    for i in range(n):
        num_tasks, horizon, max_price = SHAPES[i % len(SHAPES)]
        level = 900.0 * float(rng.uniform(0.6, 1.4))
        problems.append(
            DeadlineProblem(
                num_tasks=num_tasks,
                arrival_means=np.full(horizon, level),
                acceptance=acceptance,
                price_grid=np.arange(1.0, max_price + 1.0),
                penalty=PenaltyScheme(per_task=float(rng.uniform(80.0, 250.0))),
            )
        )
    return problems


def test_kernel_solve_speedup(emit):
    """Scalar vs kernel DP-solve arms -> BENCH_engine.json 'kernels'."""
    backend = kernels.active()
    problems = solve_workload()

    # Equivalence guard + warm-up (numpy dispatch tables, numba JIT
    # compilation — compile time must not be billed to the timed arms).
    scalar_policies = [solve_deadline(p) for p in problems]
    kernel_policies = solve_deadline_batch(problems)
    assert all(
        np.array_equal(s.price_index, k.price_index)
        and np.allclose(s.opt, k.opt, rtol=1e-9, atol=1e-8)
        for s, k in zip(scalar_policies, kernel_policies)
    ), f"kernel backend {backend!r} diverged from the scalar solver"

    scalar_best = float("inf")
    kernel_best = float("inf")
    for _ in range(REPEATS):  # interleaved: drift hits both arms equally
        t0 = time.perf_counter()
        for p in problems:
            solve_deadline(p)
        scalar_best = min(scalar_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        solve_deadline_batch(problems)
        kernel_best = min(kernel_best, time.perf_counter() - t0)

    speedup = scalar_best / kernel_best
    bar = required_speedup(backend)
    assert speedup >= bar, (
        f"kernel backend {backend!r} delivered only {speedup:.1f}x over the "
        f"scalar solver (ratcheted bar: {bar}x)"
    )

    lines = [
        f"kernel DP-solve: {len(problems)} distinct deadline instances, "
        f"backend={backend}{' (smoke)' if SMOKE else ''}",
        "",
        f"scalar : {scalar_best:7.3f}s "
        f"({len(problems) / scalar_best:7.1f} solves/sec)",
        f"kernel : {kernel_best:7.3f}s "
        f"({len(problems) / kernel_best:7.1f} solves/sec)",
        f"speedup: {speedup:7.1f}x policy-solve throughput (bar: {bar}x)",
    ]
    if not SMOKE:
        record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
        record["kernels"] = {
            "backend": backend,
            "numba_available": kernels.HAVE_NUMBA,
            "workload": {
                "solve_instances": len(problems),
                "shapes": [list(s) for s in SHAPES],
                "seed": SEED,
            },
            "scalar_seconds": round(scalar_best, 4),
            "batch_seconds": round(kernel_best, 4),
            "speedup": round(speedup, 2),
            "required_speedup": bar,
        }
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        lines.append(f"[written to {BENCH_JSON}]")
    emit("kernels", "\n".join(lines))
