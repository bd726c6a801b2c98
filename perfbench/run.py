"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload adaptive-sliced --seed 21 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, each in a fresh interpreter
    python3 perfbench/run.py --trace 1      # the same, traced: per-layer self times

Workloads (the ``why`` of each is in ``BENCHMARK.json``):

* ``adaptive-sliced`` — solve-bound: adaptive re-solves and sliced-forecast
  admission solves (:mod:`adaptive_sliced`).
* ``stream-scale`` — bookkeeping-bound: streamed tiny campaigns with no
  re-solves (:mod:`stream_scale`).
* ``serve-tenants`` — request-bound: a multi-tenant gateway replaying a
  read-heavy trace with an event log attached (:mod:`serve_tenants`).

One invocation measures one workload in its own interpreter, so set-up
time and peak RSS belong to that workload alone.  It builds the input of
``--seed`` once and repeats *rounds* over it while they fit in
``--seconds`` (at least one).  Throughputs divide by a wall-clock
measured against a reference probe timed at every tick boundary, which
a slow spell of the shared host barely moves (:mod:`pacing`,
:func:`paced_wall`); tick and read percentiles use, per tick or read,
the fastest of the rounds (:func:`fastest`).  Before the rounds, a
tiny run of the workload's default seed must reproduce its recorded
fingerprint; every
round checks its own outputs and must give the first round's
fingerprint, which for the default seed is also recorded.  A failed
check exits with status 1 and prints no numbers.

``--trace 0`` prints the end-to-end metrics ``BENCHMARK.json`` bounds,
then the unbounded ones with their sample counts.  ``--trace 1`` runs
every round twice, untraced and then traced (:mod:`tracing`), requires
the same fingerprint from both, and prints the per-layer metrics
instead, with the residual no layer accounts for and the tracing
overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value
and unit).

``python3 perfbench/selftest.py`` exercises all of this at a tiny size.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from shared import CheckFailed, check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
#: Scratch space for event-log files, inside the checkout; removed on exit.
WORKDIR = ROOT / ".perfbench_tmp"

WORKLOADS = {
    "adaptive-sliced": "adaptive_sliced",
    "stream-scale": "stream_scale",
    "serve-tenants": "serve_tenants",
}

#: Fresh interpreters timing the workload's imports, besides this one.
IMPORT_PROBES = 6
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "started = time.perf_counter()\n"
    "__import__(sys.argv[3])\n"
    "print(time.perf_counter() - started)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see the module docstring)."
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS),
        help="workload to measure (default: every workload, one process each)",
    )
    parser.add_argument(
        "--seed", type=int,
        help="input seed (default: the workload's recorded default seed)",
    )
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="measuring time: rounds are repeated while they fit in it",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from traced rounds instead of end-to-end ones",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs (well under a second per round) to smoke-test the benchmark",
    )
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def probe_imports(module: str) -> list[float]:
    """Import times of ``module`` in fresh interpreters, each waited for."""
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(BENCH_DIR), str(SRC), module],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def measure(workload, args, reference: dict, workdir: Path):
    """Run the canary and the rounds; returns (untraced, traced) rounds."""
    recorded = reference["workloads"][workload.NAME]["fingerprint"]
    canary = workload.run(
        workload.make_input(workload.DEFAULT_SEED, "tiny"),
        workload.DEFAULT_SEED, workdir,
    )
    check(
        canary.fingerprint == recorded["tiny"],
        f"tiny run of seed {workload.DEFAULT_SEED} gave fingerprint "
        f"{canary.fingerprint}, recorded {recorded['tiny']}",
    )
    size = "tiny" if args.tiny else "full"
    seed = workload.DEFAULT_SEED if args.seed is None else args.seed
    expected = recorded[size] if seed == workload.DEFAULT_SEED else None
    inputs = workload.make_input(seed, size)
    untraced, traced = [], []
    began = time.perf_counter()
    while not untraced or (
        (time.perf_counter() - began) * (len(untraced) + 1) / len(untraced)
        <= args.seconds
    ):
        plain = workload.run(inputs, seed, workdir)
        expected = expected or plain.fingerprint
        check(
            plain.fingerprint == expected,
            f"round {len(untraced)} of seed {seed} gave fingerprint "
            f"{plain.fingerprint}, expected {expected}",
        )
        untraced.append(plain)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer.installed():
                observed = workload.run(inputs, seed, workdir, tracer)
            check(
                observed.fingerprint == plain.fingerprint,
                f"traced round of seed {seed} gave fingerprint "
                f"{observed.fingerprint}, untraced {plain.fingerprint}",
            )
            traced.append((observed, tracer.snapshot()))
        # Every round starts from the same heap.
        gc.collect()
    return untraced, traced


def fastest(rounds, field: str) -> list[float]:
    """Position by position, the least of a timing list over identical rounds.

    The rounds of a run repeat one input through a deterministic program,
    so the i-th tick (or read) of every round does the same work.  On a
    shared host whose speed swings by tens of percent for seconds at a
    time, the fastest of those repeats is the steadiest estimate of what
    that piece of work costs.
    """
    columns = [getattr(r, field) for r in rounds]
    check(
        len({len(column) for column in columns}) == 1,
        f"identical rounds recorded different numbers of {field} samples",
    )
    return [min(samples) for samples in zip(*columns)]


def paced_wall(rounds) -> float:
    """A round's wall-clock in reference seconds (see :mod:`pacing`).

    Each span between two tick boundaries is converted, in every round,
    against the mean of the probes on either side; the sum over the spans
    of each span's median over the rounds.
    """
    from pacing import to_reference

    columns = []
    for r in rounds:
        check(len(r.probe_s) == len(r.span_s) + 1,
              f"{len(r.span_s)} spans but {len(r.probe_s)} probes in a round")
        columns.append([to_reference(span, (before + after) / 2.0)
                        for span, before, after in zip(r.span_s, r.probe_s, r.probe_s[1:])])
    check(len({len(column) for column in columns}) == 1,
          "identical rounds recorded different numbers of spans")
    return sum(statistics.median(costs) for costs in zip(*columns))


def end_to_end(rounds, import_s: list[float]) -> tuple[dict, dict]:
    """Metric values of the untraced rounds, and their sample descriptions.

    Throughputs divide by :func:`paced_wall`, so a slow spell of the
    shared host moves them far less than it moves the wall-clock; the
    fastest round's plain wall-clock throughput is printed beside them,
    unbounded.  Set-up time stays plain wall-clock: import time, most of
    it, varies with the host in ways the probe does not follow.
    Percentiles use :func:`fastest`.
    """
    wall = paced_wall(rounds)
    plain_wall = min(r.wall_s for r in rounds)
    ticks = fastest(rounds, "tick_s")
    reads = fastest(rounds, "read_s")
    first = rounds[0]
    repeats = f"fastest of {len(rounds)} rounds each"
    paced = f"{len(first.span_s)} spans, median of {len(rounds)} rounds each"
    values = {
        "setup_s": statistics.median(import_s)
        + statistics.median(r.setup_s for r in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "campaigns_per_s": first.retired / wall,
        "requests_per_s": first.requests / wall,
        "wall_requests_per_s": first.requests / plain_wall,
        "tick_p50_ms": 1e3 * percentile(ticks, 50),
        "tick_p99_ms": 1e3 * percentile(ticks, 99),
        "error_frac": first.failed / first.attempted,
    }
    samples = {
        "setup_s": f"{len(import_s)} imports, {len(rounds)} starts",
        "campaigns_per_s": f"{first.retired} campaigns, {paced}",
        "requests_per_s": f"{first.requests} requests, {paced}",
        "wall_requests_per_s": f"{first.requests} requests, fastest of {len(rounds)} rounds",
        "tick_p50_ms": f"{len(ticks)} ticks, {repeats}",
        "tick_p99_ms": f"{len(ticks)} ticks, {repeats}",
        "error_frac": f"{first.failed} of {first.attempted}",
    }
    if reads:
        values["read_p50_us"] = 1e6 * percentile(reads, 50)
        values["read_p99_us"] = 1e6 * percentile(reads, 99)
        samples["read_p50_us"] = samples["read_p99_us"] = f"{len(reads)} reads, {repeats}"
    return values, samples


def per_layer(untraced, traced, declared) -> dict:
    """Per-layer metric values, per round, from the traced rounds.

    A layer the workload never reaches reads 0 seconds and 0 calls.
    """
    n = len(traced)
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    distinct = instances = hits = lookups = telemetry_bytes = residual = 0
    waits, depth = [], 0
    for observed, snap in traced:
        for name, value in snap["seconds"].items():
            seconds[name] += value
        for name, value in snap["counts"].items():
            counts[name] += value
        distinct += snap["resolve_distinct"]
        instances += snap["batch_instances"]
        hits += observed.layer["cache_hits"]
        lookups += observed.layer["cache_hits"] + observed.layer["cache_misses"]
        waits += observed.layer.get("queue_waits", [])
        depth = max(depth, observed.layer.get("queue_depth_max", 0))
        telemetry_bytes += observed.layer.get("telemetry_bytes", 0)
        residual += observed.wall_s - sum(snap["seconds"].values())
    traced_wall = sum(observed.wall_s for observed, _ in traced)
    # Best traced round against best untraced round, as for throughputs.
    overhead = min(observed.wall_s for observed, _ in traced) / min(
        r.wall_s for r in untraced
    )
    resolves = counts["core.deadline.resolve"]
    batches = counts["core.batch.solve"]
    values = {
        "core.deadline.resolve.distinct": distinct / n,
        "core.deadline.resolve.distinct_ratio": distinct / resolves if resolves else 0.0,
        "core.batch.solve.instances": instances / n,
        "core.batch.solve.per_call": instances / batches if batches else 0.0,
        "engine.cache.lookups": lookups / n,
        "engine.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.queue.wait_ticks.p50": percentile(waits, 50),
        "serve.queue.wait_ticks.p99": percentile(waits, 99),
        "serve.queue.depth.max": depth,
        "serve.telemetry.bytes": telemetry_bytes / n,
        "residual.s": residual / n,
        "residual.share": residual / traced_wall,
        "trace.overhead.share": overhead - 1.0,
    }
    for name, value in seconds.items():
        values[name + ".s"] = value / n
    for name, value in counts.items():
        values.setdefault(name + ".count", value / n)
    for metric in declared:
        if metric["name"].endswith((".s", ".count")):
            values.setdefault(metric["name"], 0.0)
    return values


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_end_to_end(values: dict, samples: dict, declared) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    for metric, value in sorted(values.items(), key=lambda item: item[0] not in units):
        note = "" if metric in units else "  (not bounded)"
        detail = f"  [{samples[metric]}]" if metric in samples else ""
        print(f"  {metric:<18}{value:>14.4f} {units.get(metric, ''):<6}{detail}{note}")


def print_layers(values: dict, traced, declared) -> None:
    wall = statistics.fmean(observed.wall_s for observed, _ in traced)
    layers = sorted(
        (name for name in values if name.endswith(".s") and name != "residual.s"),
        key=lambda name: -values[name],
    )
    print(f"  {'layer self time per round':<34}{'s':>10}{'share':>8}  count")
    for layer in layers:
        count = values.get(layer[:-2] + ".count")
        if not values[layer] and not count:
            continue  # the workload never reaches this layer
        shown = "" if count is None else f"{count:.1f}"
        print(f"  {layer:<34}{values[layer]:>10.4f}{values[layer] / wall:>8.1%}  {shown}")
    for metric in declared:
        if not metric["name"].endswith((".s", ".count")):
            print(f"  {metric['name']:<34}{values[metric['name']]:>10.4g} {metric['unit']}")


def run_one(args) -> int:
    # The workloads are single-threaded apart from the event-log writer;
    # keep the BLAS pool from adding threads of its own.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    module = WORKLOADS[args.workload]
    started = time.perf_counter()
    workload = importlib.import_module(module)
    import_s = [time.perf_counter() - started]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s += probe_imports(module)
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    reference = json.loads(REFERENCE.read_text())
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        untraced, traced = measure(workload, args, reference, workdir)
        if args.trace:
            values, samples = per_layer(untraced, traced, declared), {}
        else:
            values, samples = end_to_end(untraced, import_s)
    except CheckFailed as exc:
        print(f"perfbench {args.workload}: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only once no other run is using it
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in {SPEC.name} but not measured: {missing}")

    seed = untraced[0].seed
    mode = "untraced and traced" if args.trace else "untraced"
    print(f"perfbench {args.workload}: {len(untraced)} identical rounds of seed "
          f"{seed}, {mode}; outputs checked: ok")
    print(f"  fingerprint of seed {seed}: {untraced[0].fingerprint}")
    if args.trace:
        print_layers(values, traced, declared)
    else:
        print_end_to_end(values, samples, declared)
    executed = untraced + [observed for observed, _ in traced]
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in executed),
        "failed": sum(r.failed for r in executed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.tiny:
            command.append("--tiny")
        sys.stdout.flush()
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no repro sources under {SRC} (or no {SPEC.name}); "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
