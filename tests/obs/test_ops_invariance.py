"""The serialization-inert contract: live ops scraping never perturbs a run.

The ops plane is wall-clock-tolerant by design (scrape timing is
nondeterministic), so the determinism guarantee it must honor is
*serialization inertness*: with the full observability stack wired —
event log, metrics registry with phase timings, and a live
:class:`~repro.obs.ops.OpsServer` being scraped mid-run — every
deterministic artifact (engine result, serving telemetry, checkpoint
bundles, golden payloads) stays byte-identical to the dark run.
``scripts/regen_golden.py`` enforces the same contract as a regen
precondition; this suite localizes a violation.
"""

from __future__ import annotations

import json
import pathlib
import urllib.error
import urllib.request

from repro.obs import EventLog, MetricsRegistry
from repro.obs.ops import OpsServer
from repro.serve import Gateway, LoadGenerator
from tests.golden.cases import run_serve_case
from tests.serve.conftest import NUM_INTERVALS, make_engine

SEED = 5
TRACE = LoadGenerator(
    NUM_INTERVALS, seed=11, clients=3, rate=2.0, think=1,
).trace("open")


def _scraping_on_tick(ops: OpsServer, every: int = 4):
    """An ``on_tick`` hook that scrapes every endpoint mix periodically."""
    state = {"tick": 0}

    def on_tick(_gateway) -> bool:
        state["tick"] += 1
        if state["tick"] % every == 0:
            for path in ("/metrics", "/healthz", "/readyz", "/tenants", "/slo"):
                try:
                    urllib.request.urlopen(ops.address + path, timeout=5).read()
                except urllib.error.HTTPError:
                    pass  # a 503 is still a served scrape
        return True

    return on_tick


def _bundle_state(bundle: pathlib.Path) -> tuple[dict, dict]:
    """A bundle's full logical content: manifest dict + array payloads.

    The array archive is a zip (``.npz``) whose raw bytes carry archive
    timestamps, so the file name (a content hash) and bytes differ run to
    run even when every array is equal — compare the decoded arrays and
    the manifest (with the archive name normalized) instead.
    """
    import numpy as np

    manifest = json.loads((bundle / "manifest.json").read_text())
    arrays_name = manifest.pop("arrays")
    # The one wall-clock field a checkpoint legitimately carries; it
    # differs between any two runs, scraped or dark.
    manifest["clock"].pop("elapsed_seconds", None)
    with np.load(bundle / arrays_name) as archive:
        arrays = {name: archive[name].tolist() for name in archive.files}
    return manifest, arrays


# ----------------------------------------------------------------------
# Golden payloads: instrumented == dark, byte for byte
# ----------------------------------------------------------------------
def test_instrumented_solo_golden_matches_dark():
    dark = run_serve_case("serve_flash_crowd")
    lit = run_serve_case("serve_flash_crowd", instrumented=True)
    assert json.dumps(lit, sort_keys=True) == json.dumps(dark, sort_keys=True)


# ----------------------------------------------------------------------
# Checkpoint bundles: a scraped run writes the same bytes
# ----------------------------------------------------------------------
def _run_instrumented(tmp_path: pathlib.Path, tag: str, scrape: bool):
    """One fully-wired replay; returns (gateway, bundle dir, log last_seq).

    Both arms wire identical sinks — the only variable is whether a live
    ops server is being scraped while the run progresses.
    """
    log = EventLog(tmp_path / f"{tag}.sqlite")
    gateway = Gateway(
        make_engine(),
        event_log=log,
        metrics=MetricsRegistry(),
    )
    gateway.start(seed=SEED)
    ops = None
    on_tick = None
    if scrape:
        ops = OpsServer(gateway, metrics=gateway.metrics, event_log=log)
        ops.start_in_thread()
        on_tick = _scraping_on_tick(ops)
    try:
        gateway.replay(TRACE, on_tick=on_tick)
        bundle = gateway.save(tmp_path / f"{tag}-bundle")
    finally:
        if ops is not None:
            ops.close()
    last_seq = log.sync()
    log.close()
    return gateway, bundle, last_seq


def test_scraped_run_checkpoints_byte_identically(tmp_path):
    dark_gw, dark_bundle, dark_seq = _run_instrumented(
        tmp_path, "dark", scrape=False
    )
    lit_gw, lit_bundle, lit_seq = _run_instrumented(
        tmp_path, "lit", scrape=True
    )
    assert lit_gw.telemetry == dark_gw.telemetry
    # Scrapes append nothing to the event log...
    assert lit_seq == dark_seq
    # ...and the checkpoint bundles carry identical state: the manifest
    # (gateway extras and event-log high-water mark included) and every
    # serialized engine array.
    lit_manifest, lit_arrays = _bundle_state(lit_bundle)
    dark_manifest, dark_arrays = _bundle_state(dark_bundle)
    assert lit_manifest == dark_manifest
    assert lit_arrays == dark_arrays
