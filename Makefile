# Developer entry points.  Everything runs from the repo root with no
# install step: PYTHONPATH=src is injected here (pyproject's pytest
# config does the same for bare pytest invocations).

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test bench bench-smoke bench-scenario scenario-smoke \
	bench-serve serve-smoke bench-obs obs-smoke ops-smoke bench-scale scale-smoke cov \
	regen-golden golden-check docs-check checkpoint-smoke perfbench-smoke all

## Tier-1 test suite (what CI gates on).
test:
	$(PYTEST) -x -q

## Engine benchmarks: cache ablation, batch-vs-scalar solve speedup,
## factored-arrivals throughput.  Regenerates BENCH_engine.json at the
## repo root.
bench:
	$(PYTEST) benchmarks/bench_engine.py -q -p no:cacheprovider

## Engine bench smoke (CI): the same benchmarks with a tiny
## factored-arrivals workload and a hang-guard floor; never rewrites
## BENCH_engine.json.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTEST) benchmarks/bench_engine.py -q -p no:cacheprovider

## Scenario-engine benchmarks: driver overhead vs the raw clock, and
## stress throughput under churn + shock + cancellation under both
## arrival models.
bench-scenario:
	$(PYTEST) benchmarks/bench_scenario.py -q -p no:cacheprovider

## Scenario smoke (CI): the scenario bench on a tiny horizon — same code
## paths, seconds of wall-clock.
scenario-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTEST) benchmarks/bench_scenario.py -q -p no:cacheprovider

## Serving-gateway benchmarks: sustained requests/sec through the
## gateway (>= 12k bar, recorded under BENCH_engine.json's "serve" key),
## closed-loop latency percentiles, and the noisy-neighbor fairness
## drill (victim p99 gated at <= 2x its isolated baseline).
bench-serve:
	$(PYTEST) benchmarks/bench_serve.py -q -p no:cacheprovider

## Serving smoke (CI): the serve bench on a tiny horizon — same code
## paths (fairness arm included), seconds of wall-clock, scaled-down
## throughput bar.
serve-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTEST) benchmarks/bench_serve.py -q -p no:cacheprovider

## Observability benchmark: the scenario tick loop with and without an
## event log attached (< 5% overhead bar, recorded under
## BENCH_engine.json's "obs" key).  CI runs it with REPRO_BENCH_SMOKE=1.
bench-obs:
	$(PYTEST) benchmarks/bench_obs.py -q -p no:cacheprovider

## Event-log durability drill (CI): SIGKILL a live served run mid-tick,
## recover from checkpoint bundle + event log, and require telemetry
## bit-identical to an uninterrupted run over the same logged trace.
obs-smoke:
	PYTHONPATH=src $(PYTHON) scripts/obs_recovery_smoke.py

## Live ops-plane drill (CI): launch 'engine loadtest --ops-port 0' and
## scrape /metrics /healthz /readyz /tenants /slo mid-run — well-formed
## Prometheus exposition, ready=true, per-tenant series present, and a
## clean child exit (scrapes never perturb the run).
ops-smoke:
	PYTHONPATH=src $(PYTHON) scripts/ops_smoke.py

## Streaming scale benchmark: >= 1M campaigns through a scenario with a
## lazy source + aggregate-only sink, under hard tracemalloc/peak-RSS
## ceilings (recorded under BENCH_engine.json's "scale" key).
bench-scale:
	$(PYTEST) benchmarks/bench_scale.py -q -p no:cacheprovider

## Scale smoke (CI): the scale bench at 20k campaigns — same streaming
## code paths and the same memory assertions, seconds of wall-clock.
scale-smoke:
	REPRO_BENCH_SMOKE=1 $(PYTEST) benchmarks/bench_scale.py -q -p no:cacheprovider

## Coverage gate (CI): line coverage over src/repro with a ratcheted
## fail-under floor — raise the threshold when coverage rises, never
## lower it.  Needs pytest-cov (installed via `pip install -e '.[test]'`).
cov:
	$(PYTEST) -q --cov=repro --cov-report=term --cov-fail-under=80

## Regenerate the golden scenario traces (tests/golden/*.json) after an
## *intentional* engine-behaviour change; review the diff like code.
regen-golden:
	PYTHONPATH=src $(PYTHON) scripts/regen_golden.py

## Golden guard (CI): regenerate every golden — streaming, tenant and
## instrumented invariance arms included — and fail if any committed
## golden byte changed.
golden-check: regen-golden
	git diff --exit-code -- 'tests/golden/*.json'

## Documentation contract: docs pages exist and are linked, relative
## links resolve, every repro.* path the docs and docstrings name
## resolves, the tracked benchmark record has its fields, and every
## public symbol carries a docstring.
docs-check:
	$(PYTEST) tests/test_docs.py tests/test_documentation.py -q

## Durability drill: run each arrival model, kill it at a mid-run tick,
## resume from the checkpoint bundle, and require the stitched run to be
## bit-identical to an uninterrupted one.
checkpoint-smoke:
	PYTHONPATH=src $(PYTHON) scripts/checkpoint_smoke.py

## Repository benchmark self-test (CI): every perfbench workload at its
## tiny size, untraced and traced.  Fails if a recorded fingerprint moves,
## a declared metric goes missing, or a repro call the tracer wraps is
## gone; about two minutes.
perfbench-smoke:
	$(PYTHON) perfbench/selftest.py

## The local gate a refactor reports: tier-1 tests, the docs contract, the
## bit-identity drills (checkpoint/resume, goldens, bench checksums,
## perfbench fingerprints, the streaming outcome checksum of scale-smoke),
## the scenario smoke, and the serving drills (gateway read path,
## event-log recovery, live ops plane) — every smoke CI runs except the
## event-log overhead smoke (REPRO_BENCH_SMOKE=1 make bench-obs), a
## wall-clock ratio that read +9% to +42% against its 50% bar on a
## 2-core machine and is left to CI's own step.
all: test docs-check checkpoint-smoke golden-check bench-smoke perfbench-smoke \
	scenario-smoke scale-smoke serve-smoke obs-smoke ops-smoke
