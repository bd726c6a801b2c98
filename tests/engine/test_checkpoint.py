"""Checkpoint/resume round-trips: snapshot -> restore -> finish == run.

The acceptance contract: a session snapshotted at *any* tick boundary and
restored from disk must finish bit-identically to the uninterrupted
same-seed run — same outcomes (costs, completions, cache_hit, num_solves),
same counters, same per-session cache/batch stats — for both engine
front-ends and multiple shard counts, with adaptive campaigns in the
mix.  Only wall-clock may differ.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.engine import (
    CHECKPOINT_VERSION,
    CheckpointError,
    EngineResult,
    MarketplaceEngine,
    ShardedEngine,
    UniformRouter,
    generate_workload,
    restore_engine,
    save_checkpoint,
    shard_of,
)
from repro.engine.routing import ArrivalRouter
from repro.market.acceptance import paper_acceptance_model
from repro.sim.stream import SharedArrivalStream

SEED = 9
NUM_INTERVALS = 60


def strip_timing(result: EngineResult) -> EngineResult:
    """Results minus wall-clock (the only field allowed to differ)."""
    return dataclasses.replace(result, elapsed_seconds=0.0)


def make_stream() -> SharedArrivalStream:
    means = 1300.0 + 450.0 * np.sin(np.linspace(0.0, 4.0 * np.pi, NUM_INTERVALS))
    return SharedArrivalStream(means)


def workload():
    # Adaptive campaigns included: their repricer observations and suffix
    # solve caches are the hardest state to round-trip.
    return generate_workload(
        14, NUM_INTERVALS, seed=3, adaptive_fraction=0.4
    )


ENGINES = {
    "market": lambda: MarketplaceEngine(
        make_stream(), paper_acceptance_model(), planning="stationary"
    ),
    "sharded-1-serial": lambda: ShardedEngine(
        make_stream(), paper_acceptance_model(), num_shards=1,
        planning="stationary",
    ),
    "sharded-3-serial": lambda: ShardedEngine(
        make_stream(), paper_acceptance_model(), num_shards=3,
        planning="stationary",
    ),
    "sharded-4-serial": lambda: ShardedEngine(
        make_stream(), paper_acceptance_model(), num_shards=4,
        planning="stationary",
    ),
    # More shards than campaigns: half the shards are empty at every save
    # and must stay empty (and correctly indexed) across the restore.
    "sharded-16-serial": lambda: ShardedEngine(
        make_stream(), paper_acceptance_model(), num_shards=16,
        planning="stationary",
    ),
}


@functools.lru_cache(maxsize=None)
def run_uninterrupted(flavour: str) -> EngineResult:
    engine = ENGINES[flavour]()
    engine.submit(workload())
    return engine.run(seed=SEED)


def run_interrupted(flavour: str, stop_tick: int, bundle_dir) -> EngineResult:
    engine = ENGINES[flavour]()
    engine.submit(workload())
    core = engine.start(seed=SEED)
    for _ in range(stop_tick):
        if core.done:
            break
        core.tick()
    save_checkpoint(engine, bundle_dir)
    engine.close()
    del engine, core  # the restored engine must stand entirely on the bundle
    restored = restore_engine(bundle_dir)
    try:
        return restored.run_to_completion()
    finally:
        restored.close()


class TestRoundTrip:
    @pytest.mark.parametrize("flavour", list(ENGINES))
    @pytest.mark.parametrize("stop_tick", [0, 1, 7, 23])
    def test_resume_is_bit_identical(self, flavour, stop_tick, tmp_path):
        base = run_uninterrupted(flavour)
        resumed = run_interrupted(flavour, stop_tick, tmp_path / "ck")
        assert strip_timing(resumed) == strip_timing(base)

    @pytest.mark.parametrize("flavour", ["market", "sharded-3-serial"])
    def test_every_tick_is_a_valid_checkpoint(self, flavour, tmp_path):
        """Property sweep: snapshot at *each* tick of a short run."""
        base = run_uninterrupted(flavour)
        total_ticks = base.intervals_run
        for stop in range(0, total_ticks + 1, 5):
            resumed = run_interrupted(flavour, stop, tmp_path / f"ck{stop}")
            assert strip_timing(resumed) == strip_timing(base), (
                f"divergence when checkpointing at tick {stop}"
            )

    def test_restored_session_supports_midflight_submit(self, tmp_path):
        engine = ENGINES["market"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(5):
            core.tick()
        save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        restored = restore_engine(tmp_path / "ck")
        late = dataclasses.replace(
            workload()[0], campaign_id="late-arrival", submit_interval=30
        )
        restored.submit(late)
        result = restored.run_to_completion()
        restored.close()
        assert result.num_campaigns == 15
        assert any(o.spec.campaign_id == "late-arrival" for o in result.outcomes)

    def test_resume_then_checkpoint_again(self, tmp_path):
        """A resumed session is itself checkpointable (chained restarts)."""
        base = run_uninterrupted("market")
        engine = ENGINES["market"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(4):
            core.tick()
        save_checkpoint(engine, tmp_path / "ck1")
        engine.close()
        second = restore_engine(tmp_path / "ck1")
        for _ in range(6):
            second.tick()
        save_checkpoint(second, tmp_path / "ck2")
        second.close()
        third = restore_engine(tmp_path / "ck2")
        result = third.run_to_completion()
        third.close()
        assert strip_timing(result) == strip_timing(base)


class TestBundleContract:
    def test_bundle_layout_and_version(self, tmp_path):
        engine = ENGINES["market"]()
        engine.submit(workload())
        engine.start(seed=SEED)
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["version"] == CHECKPOINT_VERSION
        assert manifest["engine"] == "marketplace"
        assert (bundle / manifest["arrays"]).is_file()

    def test_repeated_saves_are_self_cleaning(self, tmp_path):
        """Periodic checkpointing to one path must not leak payload files,
        and the surviving pair must stay loadable after every overwrite."""
        engine = ENGINES["market"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(3):
            core.tick()
            save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        payloads = list((tmp_path / "ck").glob("arrays-*.npz"))
        assert len(payloads) == 1
        assert not list((tmp_path / "ck").glob("*.tmp"))
        restored = restore_engine(tmp_path / "ck")
        assert restored.core is not None and restored.core.clock == 3
        restored.close()

    def test_torn_save_leaves_previous_bundle_usable(self, tmp_path):
        """A save killed after writing the payload but before the manifest
        rename (the worst torn-write window) must leave the *previous*
        checkpoint fully restorable."""
        engine = ENGINES["market"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        core.tick()
        bundle = save_checkpoint(engine, tmp_path / "ck")
        before = (bundle / "manifest.json").read_bytes()
        core.tick()
        # Simulate the kill: a newer orphan payload appears, manifest stays.
        (bundle / "arrays-deadbeefcafe.npz").write_bytes(b"torn")
        (bundle / "manifest.json").write_bytes(before)
        engine.close()
        restored = restore_engine(bundle)
        assert restored.core is not None and restored.core.clock == 1
        restored.close()

    def test_unknown_version_rejected(self, tmp_path):
        engine = ENGINES["market"]()
        engine.submit(workload())
        engine.start(seed=SEED)
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["version"] = CHECKPOINT_VERSION + 1
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            restore_engine(bundle)

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint bundle"):
            restore_engine(tmp_path / "nowhere")

    def _saved_bundle(self, tmp_path):
        engine = ENGINES["market"]()
        engine.submit(workload())
        engine.start(seed=SEED)
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        return bundle

    def test_truncated_manifest_raises_checkpoint_error(self, tmp_path):
        bundle = self._saved_bundle(tmp_path)
        text = (bundle / "manifest.json").read_text()
        (bundle / "manifest.json").write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            restore_engine(bundle)

    def test_missing_payload_raises_checkpoint_error(self, tmp_path):
        bundle = self._saved_bundle(tmp_path)
        for payload in bundle.glob("arrays-*.npz"):
            payload.unlink()
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            restore_engine(bundle)

    def test_snapshot_without_session_rejected(self, tmp_path):
        engine = ENGINES["market"]()
        engine.submit(workload())
        with pytest.raises(CheckpointError, match="no active serving session"):
            save_checkpoint(engine, tmp_path / "ck")

    def test_custom_router_rejected_at_save(self, tmp_path):
        class OpaqueRouter(ArrivalRouter):
            def split(self, arrived, prices, rng):
                raise NotImplementedError

            def fractions(self, prices):
                raise NotImplementedError

        engine = MarketplaceEngine(
            make_stream(), paper_acceptance_model(), router=OpaqueRouter()
        )
        engine.submit(workload())
        engine.start(seed=SEED)
        with pytest.raises(CheckpointError, match="router"):
            save_checkpoint(engine, tmp_path / "ck")
        engine.close()

    @pytest.mark.parametrize(
        "legacy", ["serial", "thread", "process", pytest.param(None, id="absent")]
    )
    def test_legacy_sharded_bundle_restores(self, legacy, tmp_path):
        """Bundles written while sharded engines could run their shards on
        a thread pool or worker processes recorded that choice as
        ``config["executor"]``; new bundles omit it.  Restore ignores the
        key whatever it names, and a bundle without it resumes too."""
        base = run_uninterrupted("sharded-3-serial")
        engine = ENGINES["sharded-3-serial"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if legacy is None:
            manifest["config"].pop("executor", None)
        else:
            manifest["config"]["executor"] = legacy
        manifest_path.write_text(json.dumps(manifest))
        restored = restore_engine(bundle)
        try:
            assert restored.num_shards == 3
            result = restored.run_to_completion()
        finally:
            restored.close()
        assert strip_timing(result) == strip_timing(base)

    def test_new_bundles_omit_the_executor_key(self, tmp_path):
        engine = ENGINES["sharded-3-serial"]()
        engine.submit(workload())
        engine.start(seed=SEED)
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["engine"] == "sharded"
        assert manifest["config"]["num_shards"] == 3
        assert "executor" not in manifest["config"]

    @pytest.mark.parametrize("num_shards", [3, 16])
    def test_restore_places_each_campaign_in_its_hash_shard(
        self, num_shards, tmp_path
    ):
        engine = ENGINES[f"sharded-{num_shards}-serial"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        live = sorted(cid for cid, *_ in core.backend.live_stats())
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        restored = restore_engine(bundle)
        try:
            shards = restored.core.backend.shards
            assert [shard.index for shard in shards] == list(range(num_shards))
            placed = []
            for shard in shards:
                for c in shard.campaigns:
                    cid = c.live.spec.campaign_id
                    assert shard_of(cid, num_shards) == shard.index
                    placed.append(cid)
        finally:
            restored.close()
        assert live and sorted(placed) == live

    def test_uniform_router_round_trips(self, tmp_path):
        model = paper_acceptance_model()
        def build():
            engine = MarketplaceEngine(
                make_stream(), model, router=UniformRouter(model),
                planning="stationary",
            )
            engine.submit(workload())
            return engine
        base_engine = build()
        base = base_engine.run(seed=SEED)
        engine = build()
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        restored = restore_engine(tmp_path / "ck")
        assert isinstance(restored.router, UniformRouter)
        result = restored.run_to_completion()
        restored.close()
        assert strip_timing(result) == strip_timing(base)
