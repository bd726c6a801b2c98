"""Checkpoint/resume round-trips: snapshot -> restore -> finish == run.

The acceptance contract: a session snapshotted at *any* tick boundary and
restored from disk must finish bit-identically to the uninterrupted
same-seed run — same outcomes (costs, completions, cache_hit, num_solves),
same counters, same per-session cache/batch stats — under both arrival
models, with adaptive campaigns in the mix.  Only wall-clock may differ.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.core.batch import BatchSolveStats
from repro.core.deadline.adaptive import AdaptiveRepricer
from repro.engine import (
    CHECKPOINT_VERSION,
    CheckpointError,
    EngineResult,
    MarketplaceEngine,
    UniformRouter,
    generate_workload,
    load_extras,
    restore_engine,
    save_checkpoint,
)
from repro.engine.routing import ArrivalRouter
from repro.market.acceptance import paper_acceptance_model
from repro.scenario import ScenarioDriver
from repro.serve import Gateway
from repro.sim.stream import SharedArrivalStream
from tests.core.deadline.test_adaptive import held_buffers

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
    "factored": lambda: MarketplaceEngine(
        make_stream(), paper_acceptance_model(), planning="stationary",
        arrivals="factored",
    ),
}

#: A bundle committed from commit 48708aa, the last build that partitioned
#: factored sessions over shards: :func:`workload` with seed :data:`SEED`
#: on its 3-shard engine (stationary planning), saved after 18 ticks as
#: ``"engine": "sharded"`` with ``config["num_shards"] == 3`` and its live
#: campaigns in shard order rather than id order.
LEGACY_SHARDED_BUNDLE = (
    pathlib.Path(__file__).parent / "fixtures" / "sharded3_v2"
)


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

    @pytest.mark.parametrize("flavour", ["market", "factored"])
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


class TestAdaptiveSuffixTables:
    """Restored suffix tables: checked on restore, then sliced by later
    anchors at the same factor exactly as the uninterrupted run did."""

    @staticmethod
    def sliced_engine():
        # Sliced planning, so adaptive first plans are seeded from static
        # twins, and mostly adaptive campaigns.
        engine = MarketplaceEngine(
            make_stream(), paper_acceptance_model(), planning="sliced"
        )
        engine.submit(generate_workload(
            20, NUM_INTERVALS, seed=3, adaptive_fraction=0.8
        ))
        return engine

    # Each stop is followed by a tick in which live repricers take new
    # anchors at factors they solved before the stop.
    @pytest.mark.parametrize("stop_tick", [4, 12, 33])
    def test_resume_between_two_anchors_of_one_factor(self, stop_tick, tmp_path):
        base = self.sliced_engine().run(seed=SEED)
        engine = self.sliced_engine()
        core = engine.start(seed=SEED)
        for _ in range(stop_tick):
            core.tick()
        save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        restored = restore_engine(tmp_path / "ck")
        repricers = [
            lc.runtime for lc in restored.core.live
            if isinstance(lc.runtime, AdaptiveRepricer)
        ]
        saved = [set(r.export_state()["cache"]) for r in repricers]
        restored.tick()
        sliced = 0
        for repricer, keys in zip(repricers, saved):
            factors = {factor for _, factor in keys}
            new = set(repricer.export_state()["cache"]) - keys
            # A new anchor at a restored factor slices the restored table;
            # only a factor the bundle never solved runs a DP.
            sliced += sum(factor in factors for _, factor in new)
            assert repricer.num_dp_solves == sum(
                factor not in factors for _, factor in new
            )
        assert sliced > 0
        result = restored.run_to_completion()
        restored.close()
        assert strip_timing(result) == strip_timing(base)

    def saved_bundle(self, tmp_path):
        engine = self.sliced_engine()
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        return bundle

    @staticmethod
    def bundle_arrays(bundle) -> tuple[dict, pathlib.Path, dict]:
        """A bundle's manifest, its payload path and its arrays."""
        manifest = json.loads((bundle / "manifest.json").read_text())
        payload = bundle / manifest["arrays"]
        with np.load(payload) as npz:
            return manifest, payload, dict(npz)

    def with_every_table(self, bundle) -> tuple[dict, pathlib.Path, dict]:
        """Rewrite ``bundle`` in the layout of builds that stored every
        key's table, each later anchor's as the slice of its factor's
        earliest; returns :meth:`bundle_arrays` of the result."""
        manifest, payload, arrays = self.bundle_arrays(bundle)
        for entry in manifest["live"]:
            if entry["adaptive"] is None:
                continue
            name = f"adaptive::{entry['campaign_id']}::{{}}".format
            earliest: dict = {}
            for i, (anchor, factor) in enumerate(entry["adaptive"]["cache_keys"]):
                base, base_anchor = earliest.setdefault(factor, (i, anchor))
                if base != i:
                    arrays[name(i)] = arrays[name(base)][:, anchor - base_anchor :]
        with payload.open("wb") as fh:
            np.savez(fh, **arrays)
        return manifest, payload, arrays

    def test_a_bundle_holds_one_table_per_factor_and_resumes_exactly(
        self, tmp_path
    ):
        base = self.sliced_engine().run(seed=SEED)
        bundle = self.saved_bundle(tmp_path)
        manifest, _, arrays = self.bundle_arrays(bundle)
        later = 0
        for entry in manifest["live"]:
            if entry["adaptive"] is None:
                continue
            keys = entry["adaptive"]["cache_keys"]
            factors = {factor for _, factor in keys}
            prefix = f"adaptive::{entry['campaign_id']}::"
            assert sum(name.startswith(prefix) for name in arrays) == len(factors)
            later += len(keys) - len(factors)
        assert later > 0  # later anchors were left to be sliced on restore
        restored = restore_engine(bundle)
        result = restored.run_to_completion()
        restored.close()
        assert strip_timing(result) == strip_timing(base)

    def test_a_bundle_with_every_table_restores(self, tmp_path):
        base = self.sliced_engine().run(seed=SEED)
        bundle = self.saved_bundle(tmp_path)
        self.with_every_table(bundle)
        restored = restore_engine(bundle)
        for live in restored.core.live:
            if isinstance(live.runtime, AdaptiveRepricer):
                cache = live.runtime.export_state()["cache"]
                assert held_buffers(cache) == len({f for _, f in cache})
        result = restored.run_to_completion()
        restored.close()
        assert strip_timing(result) == strip_timing(base)

    def test_a_missing_base_table_raises_checkpoint_error(self, tmp_path):
        bundle = self.saved_bundle(tmp_path)
        manifest, payload, arrays = self.bundle_arrays(bundle)
        entry = next(e for e in manifest["live"] if e["adaptive"])
        # Key 0 is the earliest at its factor, so its table is stored.
        del arrays[f"adaptive::{entry['campaign_id']}::0"]
        with payload.open("wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match="earliest table at its factor"):
            restore_engine(bundle)

    @pytest.mark.parametrize(
        "cut,match",
        [
            (lambda table: table[:, :1], "shape"),
            (lambda table: table.astype(float), "integer array"),
            (lambda table: table + 10_000, "grid"),
        ],
        ids=["one-column", "float", "past-grid"],
    )
    def test_a_corrupt_restored_table_raises_checkpoint_error(
        self, cut, match, tmp_path
    ):
        # A table cut to one column used to restore without complaint and
        # fail the first tick with a bare IndexError.
        bundle = self.saved_bundle(tmp_path)
        _, payload, arrays = self.bundle_arrays(bundle)
        name = next(
            name for name, table in arrays.items()
            if name.startswith("adaptive::") and table.shape[1] > 1
        )
        arrays[name] = cut(arrays[name])
        with payload.open("wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match=match):
            restore_engine(bundle)

    def test_repricers_hold_one_buffer_per_factor_across_resume(self, tmp_path):
        def buffers(engine):
            counts = []
            for live in engine.core.live:
                if isinstance(live.runtime, AdaptiveRepricer):
                    cache = live.runtime.export_state()["cache"]
                    factors = len({factor for _, factor in cache})
                    counts.append((held_buffers(cache), factors, len(cache)))
            return counts

        engine = self.sliced_engine()
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        before = buffers(engine)
        save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        restored = restore_engine(tmp_path / "ck")
        after = buffers(restored)
        restored.close()
        # Later anchors are views, so each factor's tables share one buffer.
        assert any(keys > factors for _, factors, keys in before)
        assert all(held == factors for held, factors, _ in before)
        assert after == before

    def test_a_restored_table_off_its_base_slice_raises_checkpoint_error(
        self, tmp_path
    ):
        bundle = self.saved_bundle(tmp_path)
        manifest, payload, arrays = self.with_every_table(bundle)
        # A later anchor at a factor the campaign solved earlier.
        name = next(
            f"adaptive::{entry['campaign_id']}::{i}"
            for entry in manifest["live"] if entry["adaptive"]
            for i, (anchor, factor) in enumerate(entry["adaptive"]["cache_keys"])
            if any(
                f == factor and a < anchor
                for a, f in entry["adaptive"]["cache_keys"]
            )
        )
        table = arrays[name].copy()
        table[-1, -1] = 1 - min(table[-1, -1], 1)  # still on the grid
        arrays[name] = table
        with payload.open("wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match="not the slice"):
            restore_engine(bundle)

    @pytest.mark.parametrize(
        "key,match",
        [
            ((10_000, 1.0), "outside the horizon"),
            ((0, 0.0), "positive and finite"),
            ((0, float("nan")), "positive and finite"),
        ],
        ids=["anchor-past-horizon", "zero-factor", "nan-factor"],
    )
    def test_a_corrupt_restored_key_raises_checkpoint_error(
        self, key, match, tmp_path
    ):
        bundle = self.saved_bundle(tmp_path)
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = next(e["adaptive"] for e in manifest["live"] if e["adaptive"])
        entry["cache_keys"][0] = list(key)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=match):
            restore_engine(bundle)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("factor", float("nan"), "factor must be a finite number"),
            ("factor", float("inf"), "factor must be a finite number"),
            ("factor", "1.5", "factor must be a finite number"),
            ("observations", -1, "observations must be non-negative"),
        ],
        ids=["nan-factor", "infinite-factor", "string-factor", "negative-observations"],
    )
    def test_a_corrupt_restored_predictor_raises_checkpoint_error(
        self, field, value, match, tmp_path
    ):
        # A NaN factor used to restore, then fail mid-run at the next
        # anchor with a bare ValueError from quantizing it.
        bundle = self.saved_bundle(tmp_path)
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = next(e["adaptive"] for e in manifest["live"] if e["adaptive"])
        entry[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=match):
            restore_engine(bundle)


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
        """A committed bundle from a build that partitioned factored
        sessions over shards (``"engine": "sharded"``, ``num_shards``)
        restores as a factored session and finishes exactly like the
        uninterrupted factored run.  Still older builds also recorded a
        shard-loop ``config["executor"]``; restore ignores the key
        whatever it names, and a bundle without it resumes too."""
        self._resume_legacy_bundle(tmp_path, "executor", legacy)

    @pytest.mark.parametrize(
        "num_shards", [1, 16, pytest.param(None, id="absent")]
    )
    def test_legacy_sharded_bundle_ignores_its_shard_count(
        self, num_shards, tmp_path
    ):
        self._resume_legacy_bundle(tmp_path, "num_shards", num_shards)

    @staticmethod
    def _resume_legacy_bundle(tmp_path, key: str, value) -> None:
        """Resume the committed legacy bundle with ``config[key]`` set to
        ``value`` (dropped when ``None``); it must finish exactly like the
        uninterrupted factored run."""
        bundle = shutil.copytree(LEGACY_SHARDED_BUNDLE, tmp_path / "ck")
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"] == "sharded"
        assert manifest["config"]["num_shards"] == 3
        if value is None:
            manifest["config"].pop(key, None)
        else:
            manifest["config"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        restored = restore_engine(bundle)
        try:
            assert restored.arrivals == "factored"
            assert restored.core.clock == 18
            result = restored.run_to_completion()
        finally:
            restored.close()
        base = run_uninterrupted("factored")
        assert result.checksum == base.checksum
        # The bundle's batch counters were recorded when one-campaign ticks
        # bypassed the batch solver, so they stay below a fresh run's;
        # every other field matches the uninterrupted run.
        assert result.batch_stats == BatchSolveStats(
            batches=2, instances=3, largest_batch=2
        )
        assert dataclasses.replace(
            strip_timing(result), batch_stats=base.batch_stats
        ) == strip_timing(base)

    @pytest.mark.parametrize("order", ["reversed", "rotated", "evens-first"])
    def test_factored_resume_ignores_live_entry_order(self, order, tmp_path):
        """Every factored draw is keyed by campaign, so a bundle listing
        its live campaigns in any order resumes to the same run."""
        engine = ENGINES["factored"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(18):
            core.tick()
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        live = manifest["live"]
        assert len(live) > 2
        manifest["live"] = {
            "reversed": live[::-1],
            "rotated": live[1:] + live[:1],
            "evens-first": live[::2] + live[1::2],
        }[order]
        assert manifest["live"] != live
        manifest_path.write_text(json.dumps(manifest))
        restored = restore_engine(bundle)
        result = restored.run_to_completion()
        restored.close()
        assert strip_timing(result) == strip_timing(run_uninterrupted("factored"))

    def test_factored_bundle_missing_a_campaign_generator_is_rejected(
        self, tmp_path
    ):
        engine = ENGINES["factored"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["live"][0]["rng_state"] = None
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="lost the generator state"):
            restore_engine(bundle)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("config", []),
            ("arrivals", "sharded"),
            ("live", 5),
            ("admissions", 5),
            ("clock", []),
            ("stats", None),
        ],
        ids=["config-list", "unknown-arrivals", "live-number",
             "admissions-number", "clock-list", "stats-null"],
    )
    def test_malformed_manifest_field_raises_checkpoint_error(
        self, field, value, tmp_path
    ):
        engine = ENGINES["market"]()
        engine.submit(workload())
        core = engine.start(seed=SEED)
        for _ in range(7):
            core.tick()
        bundle = save_checkpoint(engine, tmp_path / "ck")
        engine.close()
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if field == "arrivals":
            manifest["config"][field] = value
        else:
            manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            restore_engine(bundle)

    def test_new_bundles_omit_the_executor_key(self, tmp_path):
        """New bundles name the arrival model and nothing of the retired
        shard partition, and both arrival values round-trip."""
        for flavour, arrivals in (("market", "pooled"), ("factored", "factored")):
            engine = ENGINES[flavour]()
            engine.submit(workload())
            engine.start(seed=SEED)
            bundle = save_checkpoint(engine, tmp_path / flavour)
            engine.close()
            manifest = json.loads((bundle / "manifest.json").read_text())
            assert manifest["engine"] == "marketplace"
            assert manifest["config"]["arrivals"] == arrivals
            assert "num_shards" not in manifest["config"]
            assert "executor" not in manifest["config"]
            restored = restore_engine(bundle)
            assert restored.arrivals == arrivals
            restored.close()

    @pytest.mark.parametrize(
        "manifest", [[], "x", None, 5], ids=["list", "string", "null", "number"]
    )
    @pytest.mark.parametrize(
        "reader",
        [restore_engine, load_extras, ScenarioDriver.resume, Gateway.resume],
        ids=["restore_engine", "load_extras", "driver", "gateway"],
    )
    def test_non_object_manifest_raises_checkpoint_error(
        self, reader, manifest, tmp_path
    ):
        bundle = tmp_path / "ck"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="not an object"):
            reader(bundle)

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
