"""Durable serving state: snapshot and resume an engine session mid-flight.

A long-lived marketplace deployment cannot afford to lose hours of
campaign state to a crash, and operators need to pause/migrate a serving
session without perturbing its outcomes.  This module serializes a
running :class:`~repro.engine.clock.EngineCore` session — pending
submissions, the live list's runtime state (including adaptive repricer
observations and solve caches), each factored campaign's generator
state, the session generator, counters — to a versioned **JSON + npz
bundle**, and restores it such that

    ``snapshot -> restore -> finish``  ==  an uninterrupted same-seed run

bit-for-bit (same outcomes, same counters, same per-run stats), under
both arrival models.

Bundle layout (a directory)::

    <path>/manifest.json      # everything human-readable: specs, counters,
                              # generator states, adaptive metadata, config
    <path>/arrays-<id>.npz    # the numeric payloads: stream / planning
                              # forecasts, adaptive suffix price tables
                              # (unique name recorded in the manifest)

Saves are **crash-safe**: files are written to temp names and renamed
into place, payload first and manifest last, so killing a periodic save
mid-write leaves the previous bundle intact rather than a torn one.

Two design points worth knowing:

* **Policies are replayed, not stored.**  Solved price tables can be
  megabytes; instead of serializing them the manifest records the
  *admission log* (which campaigns were admitted at which tick, in
  order).  Restore replays those admissions through the fresh engine's
  planner — the solvers are deterministic, so the policy cache is rebuilt
  entry-for-entry (same contents, same LRU order) — then overwrites the
  cache/batch counters with the recorded values so per-session stats stay
  exact.  The round-trip guarantee therefore assumes the session started
  from an empty cache, which
  :meth:`~repro.engine.engine.MarketplaceEngine.start` guarantees.
* **Only declarative configuration is checkpointable.**  Acceptance
  models (:class:`LogitAcceptance` / :class:`EmpiricalAcceptance`) and
  built-in routers round-trip; a custom router class cannot be
  serialized and raises :class:`CheckpointError` at save time.  Bundles
  record the arrival model as ``config["arrivals"]`` (absent means
  pooled).  Older builds wrote factored sessions as ``"engine":
  "sharded"`` bundles with a shard count and, earlier, a shard-loop
  executor; those restore as factored sessions and both keys are ignored.

CLI: ``repro engine run --checkpoint-every N --checkpoint-path P`` saves
periodic bundles, and ``repro engine run --resume P`` finishes an
interrupted run (see ``make checkpoint-smoke`` for the kill/resume drill).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import uuid

import numpy as np

from repro.core.batch.solver import BatchSolveStats
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.engine.cache import CacheStats, PolicyCache
from repro.engine.campaign import CampaignSpec
from repro.engine.clock import EngineCore
from repro.engine.engine import MarketplaceEngine
from repro.engine.outcomes import (
    OutcomeAggregate,
    OutcomeSink,
    outcome_from_record,
    outcome_record,
)
from repro.engine.source import source_from_dict
from repro.engine.routing import LogitRouter, UniformRouter
from repro.market.acceptance import (
    AcceptanceModel,
    EmpiricalAcceptance,
    LogitAcceptance,
)
from repro.sim.stream import SharedArrivalStream
from repro.util import rngstate

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "restore_engine",
    "load_extras",
    "decoding_bundle",
]

#: Bundle format version; bumped on any incompatible manifest change.
#: Version 2 added the streaming fields: workload-source descriptor +
#: cursor, outcome aggregate, sink configuration + spill offset, and
#: source-cancellation tombstones.  Version-1 bundles (materialized
#: sessions) still restore — see :data:`_READABLE_VERSIONS`.
CHECKPOINT_VERSION = 2

#: Bundle versions this build can restore.
_READABLE_VERSIONS = (1, 2)

_MANIFEST = "manifest.json"
#: Legacy fixed payload name, read as a fallback when a manifest predates
#: the unique-name scheme.
_ARRAYS = "arrays.npz"


class CheckpointError(RuntimeError):
    """A session could not be serialized, or a bundle could not be restored."""


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------
def _jsonable(value):
    """Recursively convert numpy scalars so ``json.dumps`` accepts the tree."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _acceptance_to_dict(model: AcceptanceModel) -> dict:
    if isinstance(model, LogitAcceptance):
        return {"type": "logit", "s": model.s, "b": model.b, "m": model.m}
    if isinstance(model, EmpiricalAcceptance):
        prices = model.prices
        return {
            "type": "empirical",
            "prices": prices.tolist(),
            "probs": model.probabilities(prices).tolist(),
        }
    raise CheckpointError(
        f"acceptance model {type(model).__name__} is not checkpointable "
        "(supported: LogitAcceptance, EmpiricalAcceptance)"
    )


def _acceptance_from_dict(data: dict) -> AcceptanceModel:
    if data["type"] == "logit":
        return LogitAcceptance(data["s"], data["b"], data["m"])
    if data["type"] == "empirical":
        return EmpiricalAcceptance(dict(zip(data["prices"], data["probs"])))
    raise CheckpointError(f"unknown acceptance model type {data['type']!r}")


def _router_to_dict(router) -> dict:
    if isinstance(router, LogitRouter):
        return {"type": "logit", "acceptance": _acceptance_to_dict(router.model)}
    if isinstance(router, UniformRouter):
        return {
            "type": "uniform",
            "acceptance": _acceptance_to_dict(router.acceptance),
        }
    raise CheckpointError(
        f"router {type(router).__name__} is not checkpointable "
        "(supported: LogitRouter, UniformRouter)"
    )


def _router_from_dict(data: dict):
    acceptance = _acceptance_from_dict(data["acceptance"])
    if data["type"] == "logit":
        return LogitRouter(acceptance)
    if data["type"] == "uniform":
        return UniformRouter(acceptance)
    raise CheckpointError(f"unknown router type {data['type']!r}")


def _generator_state(rng: np.random.Generator) -> dict:
    return rngstate.generator_state(rng)


def _generator_from_state(state: dict) -> np.random.Generator:
    try:
        return rngstate.generator_from_state(state)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc


def _adaptive_key(cid: str, index: int) -> str:
    return f"adaptive::{cid}::{index}"


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def _live_entry(live, arrays: dict) -> dict:
    """Serialize one live campaign's mutable state (arrays filled in place)."""
    cid = live.spec.campaign_id
    entry = {
        "campaign_id": cid,
        "remaining": live.remaining,
        "total_cost": live.total_cost,
        "finished_interval": live.finished_interval,
        "cache_hit": live.cache_hit,
        "initial_solves": live.initial_solves,
        # Factored campaigns' private generators; pooled ones have none.
        "rng_state": None if live.rng is None else _generator_state(live.rng),
        "adaptive": None,
    }
    if isinstance(live.runtime, AdaptiveRepricer):
        state = live.runtime.export_state()
        keys = sorted(state["cache"])
        for i, key in enumerate(keys):
            arrays[_adaptive_key(cid, i)] = state["cache"][key]
        entry["adaptive"] = {
            "factor": state["factor"],
            "observations": state["observations"],
            "num_solves": state["num_solves"],
            "active_key": (
                None
                if state["active_key"] is None
                else list(state["active_key"])
            ),
            "cache_keys": [list(key) for key in keys],
        }
    return entry


def save_checkpoint(
    engine: MarketplaceEngine,
    path: str | pathlib.Path,
    extras: dict | None = None,
) -> pathlib.Path:
    """Snapshot the engine's active serving session to a bundle directory.

    Legal at any tick boundary (including before the first tick and after
    the last).  Returns the bundle path.  Raises :class:`CheckpointError`
    when no session is active or the engine's configuration contains
    non-serializable parts (custom router classes, exotic acceptance
    models).

    ``extras`` is an optional JSON-serializable dict stored verbatim in
    the manifest and read back with :func:`load_extras` — how layers
    above the engine ride inside the same crash-safe bundle without the
    engine knowing about them: the scenario driver stores its cursor and
    telemetry there, and the serving gateway (:mod:`repro.serve`) its
    request queue, trace cursor, and serving telemetry.
    """
    core = engine.core
    if core is None:
        raise CheckpointError(
            "no active serving session to snapshot: call start()/tick() first"
        )
    config = {
        "planning": engine.planner.planning,
        "truncation_eps": engine.planner.truncation_eps,
        "cache_max_entries": engine.cache.max_entries,
        "acceptance": _acceptance_to_dict(engine.acceptance),
        "router": _router_to_dict(engine.router),
        "arrivals": engine.arrivals,
    }
    arrays: dict = {
        "stream_means": engine.stream.arrival_means,
        "planning_means": engine.planner.planning_means,
    }
    if core.rate_multipliers is not None:
        arrays["rate_multipliers"] = core.rate_multipliers
    live_entries = [_live_entry(lc, arrays) for lc in core.live]
    # Make the spill durable through the snapshot's recorded offset, so a
    # resume that truncates back to it continues a fully-written file.
    sink = core.sink
    sink.flush()
    if core._source is None:
        source_entry = None
    else:
        try:
            source_entry = {
                "spec": core._source.to_dict(),
                "cursor": core._source_cursor,
            }
        except (NotImplementedError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"workload source {type(core._source).__name__} is not "
                f"checkpointable: {exc}"
            ) from exc
    manifest = {
        "version": CHECKPOINT_VERSION,
        "engine": "marketplace",
        "seed": core.seed,
        "config": config,
        "specs": [dataclasses.asdict(s) for s in engine._specs],
        "admissions": [[t, list(ids)] for t, ids in core._admission_log],
        "clock": {
            "interval": core.clock,
            "intervals_run": core.intervals_run,
            "total_arrivals": core.total_arrivals,
            "total_considered": core.total_considered,
            "total_accepted": core.total_accepted,
            "max_concurrent": core.max_concurrent,
            "elapsed_seconds": core.elapsed_seconds,
        },
        "live": live_entries,
        # Streaming layer (v2): the aggregate always travels; the
        # materialized outcome list only when the sink keeps one — a
        # streaming session's bundle stays O(live) no matter how many
        # campaigns have retired.
        "source": source_entry,
        "dropped": sorted(core._dropped),
        "sink": {
            "keep": sink.keep,
            "spill_path": (
                None if sink.spill_path is None else str(sink.spill_path)
            ),
            "spill_offset": sink.spill_offset,
            "spill_count": sink.spill_count,
        },
        "aggregate": sink.aggregate.to_dict(),
        "outcomes": [
            outcome_record(o, with_spec=False) for o in sink.outcomes
        ],
        "extras": extras,
        "rng": _generator_state(core.rng),
        "stats": {
            "cache": list(engine.cache.counters()),
            "cache_baseline": dataclasses.asdict(core._cache_baseline),
            "batch": list(engine.planner.batch_solver.counters()),
            "batch_baseline": dataclasses.asdict(core._batch_baseline),
        },
    }
    bundle = pathlib.Path(path)
    bundle.mkdir(parents=True, exist_ok=True)
    # Crash-safe overwrite: the arrays payload gets a fresh unique name
    # recorded in the manifest, both files are written to temp names and
    # renamed into place, and the manifest rename comes *last* — so at
    # every instant the visible manifest references a fully-written
    # payload.  A kill mid-save (the exact event periodic checkpointing
    # exists for) leaves the previous bundle intact, never a torn one.
    arrays_name = f"arrays-{uuid.uuid4().hex[:12]}.npz"
    manifest["arrays"] = arrays_name
    tmp_arrays = bundle / (arrays_name + ".tmp")
    with open(tmp_arrays, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp_arrays, bundle / arrays_name)
    tmp_manifest = bundle / (_MANIFEST + ".tmp")
    tmp_manifest.write_text(json.dumps(_jsonable(manifest), indent=1))
    os.replace(tmp_manifest, bundle / _MANIFEST)
    # Best-effort cleanup of payloads no longer referenced by any manifest.
    for stale in list(bundle.glob("arrays-*.npz")) + list(bundle.glob("*.tmp")):
        if stale.name != arrays_name:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - cleanup is advisory
                pass
    return bundle


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def _read_manifest(bundle: pathlib.Path) -> dict:
    """Parse a bundle's manifest, or raise :class:`CheckpointError`.

    The one reader behind :func:`restore_engine` and :func:`load_extras`:
    a missing, unreadable or non-JSON manifest, and one whose JSON is not
    an object, all surface as :class:`CheckpointError`.
    """
    manifest_path = bundle / _MANIFEST
    if not manifest_path.is_file():
        raise CheckpointError(f"no checkpoint bundle at {bundle}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt or unreadable checkpoint bundle at {bundle}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"corrupt checkpoint bundle at {bundle}: the manifest is a JSON "
            f"{type(manifest).__name__}, not an object"
        )
    return manifest


def load_extras(path: str | pathlib.Path) -> dict | None:
    """Read the extras dict a bundle was saved with (``None`` if none).

    The cheap companion to :func:`restore_engine`: it only parses the
    manifest, letting layers above the engine (the scenario driver)
    recover their cursor/telemetry without touching engine state.  Raises
    :class:`CheckpointError` when the bundle is missing or unreadable.
    """
    return _read_manifest(pathlib.Path(path)).get("extras")


def _restore_adaptive(runtime, meta: dict, cid: str, arrays) -> None:
    if not isinstance(runtime, AdaptiveRepricer):
        raise CheckpointError(
            f"campaign {cid!r} carries adaptive state but replayed admission "
            "produced a non-adaptive runtime (corrupt bundle?)"
        )
    cache = {
        (int(key[0]), float(key[1])): arrays[_adaptive_key(cid, i)]
        for i, key in enumerate(meta["cache_keys"])
    }
    runtime.import_state(
        {
            "factor": meta["factor"],
            "observations": meta["observations"],
            "num_solves": meta["num_solves"],
            "active_key": (
                None if meta["active_key"] is None else tuple(meta["active_key"])
            ),
            "cache": cache,
        }
    )


def restore_engine(path: str | pathlib.Path) -> MarketplaceEngine:
    """Rebuild an engine from a bundle, mid-flight session included.

    The returned engine has an active serving session positioned exactly
    where the snapshot was taken: step it with ``tick()``, keep submitting
    between ticks, or call ``run_to_completion()`` — the finished result
    is bit-identical to the uninterrupted run's.

    Every failure mode of a bad bundle — missing, truncated, torn, or
    inconsistent — surfaces as :class:`CheckpointError`, so callers (the
    CLI's ``--resume``) need exactly one except clause.
    """
    bundle = pathlib.Path(path)
    with decoding_bundle(bundle):
        return _restore(bundle)


@contextlib.contextmanager
def decoding_bundle(path: str | pathlib.Path):
    """Raise whatever decoding a bundle inside the block raises as one
    :class:`CheckpointError` naming the bundle.

    The one promise :func:`restore_engine` makes, kept by the layers that
    decode their own extras (the serving gateway, the scenario driver)
    so a corrupt bundle never escapes ``--resume`` as a traceback.
    """
    try:
        yield
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"corrupt or unreadable checkpoint bundle at {path}: {exc}"
        ) from exc


def _restore(bundle: pathlib.Path) -> MarketplaceEngine:
    manifest = _read_manifest(bundle)
    if manifest.get("version") not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint version {manifest.get('version')!r} is not supported "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    arrays = np.load(
        bundle / manifest.get("arrays", _ARRAYS), allow_pickle=False
    )
    cfg = manifest["config"]
    kind = manifest["engine"]
    if kind == "sharded":
        # Legacy: older builds partitioned factored sessions over shards.
        arrivals = "factored"
    elif kind == "marketplace":
        arrivals = cfg.get("arrivals", "pooled")
    else:
        raise CheckpointError(f"unknown engine kind {kind!r}")
    engine = MarketplaceEngine(
        stream=SharedArrivalStream(arrays["stream_means"]),
        acceptance=_acceptance_from_dict(cfg["acceptance"]),
        router=_router_from_dict(cfg["router"]),
        cache=PolicyCache(max_entries=cfg["cache_max_entries"]),
        planning=cfg["planning"],
        planning_means=arrays["planning_means"],
        truncation_eps=cfg["truncation_eps"],
        arrivals=arrivals,
    )
    specs = [CampaignSpec(**d) for d in manifest["specs"]]
    # Bypass submit(): these specs were validated when first submitted.
    engine._specs = list(specs)
    engine._known_ids = {s.campaign_id for s in specs}
    id2spec = {s.campaign_id: s for s in specs}
    source_entry = manifest.get("source")
    if source_entry is not None:
        engine._source = source_from_dict(source_entry["spec"])
    core = engine.start(seed=manifest["seed"])
    # Fast-forward the lazy source to its snapshot cursor; the replayed
    # prefix supplies the specs (live entries, outcomes, admissions) that
    # streaming bundles persist as a cursor instead of data.
    pulled = core._fast_forward_source(
        source_entry["cursor"] if source_entry is not None else 0
    )
    source_ids = {s.campaign_id for s in pulled}
    id2spec.update((s.campaign_id, s) for s in pulled)
    core._dropped = set(manifest.get("dropped", ()))
    _replay_admissions(core, manifest, id2spec, arrays, source_ids)
    # Counters and clock position.
    c = manifest["clock"]
    core.clock = c["interval"]
    core.intervals_run = c["intervals_run"]
    core.total_arrivals = c["total_arrivals"]
    core.total_considered = c["total_considered"]
    core.total_accepted = c["total_accepted"]
    core.max_concurrent = c["max_concurrent"]
    core.elapsed_seconds = c["elapsed_seconds"]
    outcomes = [
        outcome_from_record(o, spec=id2spec[o["campaign_id"]])
        for o in manifest["outcomes"]
    ]
    # Re-install the outcome sink as configured at save time.  v1 bundles
    # predate sinks (keep-everything, no spill); their aggregate is folded
    # from the stored outcome list.
    sink_cfg = manifest.get(
        "sink", {"keep": True, "spill_path": None, "spill_offset": 0}
    )
    if not sink_cfg["keep"] or sink_cfg["spill_path"] is not None:
        core.sink = OutcomeSink(
            keep=sink_cfg["keep"],
            spill_path=sink_cfg["spill_path"],
            resume_offset=(
                sink_cfg["spill_offset"]
                if sink_cfg["spill_path"] is not None
                else None
            ),
        )
    aggregate = (
        OutcomeAggregate.from_dict(manifest["aggregate"])
        if "aggregate" in manifest
        else OutcomeAggregate.from_outcomes(outcomes)
    )
    core.sink.restore(aggregate, outcomes)
    if "rate_multipliers" in arrays:
        core.set_rate_multipliers(arrays["rate_multipliers"])
    # The replay bumped the cache/batch counters; reset them to the
    # interrupted session's recorded values so per-session stats are exact.
    stats = manifest["stats"]
    engine.cache.restore_counters(*stats["cache"])
    engine.planner.batch_solver.restore_counters(*stats["batch"])
    core._cache_baseline = CacheStats(**stats["cache_baseline"])
    core._batch_baseline = BatchSolveStats(**stats["batch_baseline"])
    return engine


def _replay_admissions(
    core: EngineCore,
    manifest: dict,
    id2spec: dict,
    arrays,
    source_ids: set | frozenset = frozenset(),
) -> None:
    """Re-admit every previously admitted campaign, rebuilding cache + state.

    The live list is re-installed in the session's order: the bundle's
    (admission) order for pooled sessions, campaign-id order for factored
    ones, whose bundles may come from older builds that stored another
    order.
    """
    admitted_order: list[str] = []
    live_map: dict = {}
    for t, ids in manifest["admissions"]:
        group = [id2spec[cid] for cid in ids]
        for lc in core.planner.admit_many(group):
            live_map[lc.spec.campaign_id] = lc
        core._admission_log.append((int(t), tuple(ids)))
        admitted_order.extend(ids)
    # Source-streamed admissions never sat in the materialized queue; only
    # the statically submitted ones must match its drained prefix.
    mat_admitted = [cid for cid in admitted_order if cid not in source_ids]
    n = len(mat_admitted)
    pending_prefix = [s.campaign_id for s in core._pending[:n]]
    if pending_prefix != mat_admitted:
        raise CheckpointError(
            "admission log does not match the submission queue (corrupt "
            "bundle?): expected the queue to drain as "
            f"{mat_admitted[:5]}..., found {pending_prefix[:5]}..."
        )
    core._next_pending = n
    for cid in mat_admitted:
        core._pending_ids.discard(cid)
    live = []
    for entry in manifest["live"]:
        cid = entry["campaign_id"]
        if cid not in live_map:
            raise CheckpointError(
                f"live campaign {cid!r} missing from the admission replay "
                "(corrupt bundle?)"
            )
        lc = live_map[cid]
        lc.remaining = entry["remaining"]
        lc.total_cost = entry["total_cost"]
        lc.finished_interval = entry["finished_interval"]
        lc.cache_hit = entry["cache_hit"]
        lc.initial_solves = entry["initial_solves"]
        if entry["adaptive"] is not None:
            _restore_adaptive(lc.runtime, entry["adaptive"], cid, arrays)
        if core.factored:
            if entry["rng_state"] is None:
                raise CheckpointError(
                    f"bundle lost the generator state of campaign {cid!r}"
                )
            lc.rng = _generator_from_state(entry["rng_state"])
        live.append(lc)
    if core.factored:
        live.sort(key=lambda lc: lc.spec.campaign_id)
    core.live = live
    core.rng = _generator_from_state(manifest["rng"])
