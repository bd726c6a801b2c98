"""Documentation-layer contract: pages exist, links resolve, bench recorded.

This is the ``make docs-check`` target: it fails when a docs page goes
missing, when the README stops linking the docs tree, when a relative
markdown link points at a file that does not exist, or when the tracked
benchmark record loses the fields ``docs/performance.md`` documents.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS_PAGES = (
    "docs/architecture.md",
    "docs/paper_mapping.md",
    "docs/performance.md",
    "docs/checkpointing.md",
    "docs/scenarios.md",
    "docs/serving.md",
    "docs/observability.md",
)
#: Relative markdown links: [text](target) excluding URLs and anchors.
_LINK = re.compile(r"\[[^\]]+\]\((?!https?://|#|mailto:)([^)#\s]+)")


@pytest.mark.parametrize("page", DOCS_PAGES)
def test_docs_page_exists_and_has_content(page):
    path = REPO_ROOT / page
    assert path.is_file(), f"{page} is missing"
    text = path.read_text()
    assert text.startswith("#"), f"{page} should start with a heading"
    assert len(text) > 500, f"{page} looks like a stub"


def test_readme_links_every_docs_page():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in DOCS_PAGES:
        assert page in readme, f"README.md does not link {page}"


@pytest.mark.parametrize(
    "source", ["README.md", *DOCS_PAGES], ids=lambda p: str(p)
)
def test_relative_links_resolve(source):
    path = REPO_ROOT / source
    broken = []
    for match in _LINK.finditer(path.read_text()):
        target = (path.parent / match.group(1)).resolve()
        if not target.exists():
            broken.append(match.group(1))
    assert not broken, f"{source} has broken relative links: {broken}"


class TestBenchRecord:
    @pytest.fixture(scope="class")
    def record(self):
        path = REPO_ROOT / "BENCH_engine.json"
        assert path.is_file(), (
            "BENCH_engine.json is missing; regenerate with "
            "`pytest benchmarks/bench_engine.py -k fastpath`"
        )
        return json.loads(path.read_text())

    def test_policy_solve_fields(self, record):
        solve = record["policy_solve"]
        for field in (
            "scalar_seconds",
            "batch_seconds",
            "speedup",
            "required_speedup",
        ):
            assert field in solve
        assert solve["speedup"] >= solve["required_speedup"]

    def test_shard_scaling_fields(self, record):
        scaling = record["shard_scaling"]
        assert scaling["interleaved"] is True
        assert {a["shards"] for a in scaling["arms"]} == {1, 2, 4}
        completed = {a["completed"] for a in scaling["arms"]}
        assert len(completed) == 1, "shard count changed the outcome"
        floor = scaling["required_min_campaigns_per_second"]
        assert all(
            a["campaigns_per_second"] >= floor for a in scaling["arms"]
        )

    def test_kernels_fields(self, record):
        kern = record["kernels"]
        for field in (
            "backend",
            "scalar_seconds",
            "batch_seconds",
            "speedup",
            "required_speedup",
        ):
            assert field in kern
        assert kern["speedup"] >= kern["required_speedup"]

    def test_serve_fields(self, record):
        serve = record["serve"]
        for field in (
            "requests_per_second",
            "required_requests_per_second",
            "seconds",
            "workload",
        ):
            assert field in serve
        assert (
            serve["requests_per_second"]
            >= serve["required_requests_per_second"]
        )

    def test_scale_fields(self, record):
        scale = record["scale"]
        for field in (
            "campaigns",
            "elapsed_seconds",
            "campaigns_per_second",
            "required_min_campaigns_per_second",
            "peak_rss_mib",
            "peak_rss_bytes_per_campaign",
            "rss_budget_mib",
            "traced_peak_mib",
            "traced_budget_mib",
            "checksum",
        ):
            assert field in scale
        assert scale["campaigns"] >= 1_000_000
        assert (
            scale["campaigns_per_second"]
            >= scale["required_min_campaigns_per_second"]
        )
        assert scale["peak_rss_mib"] < scale["rss_budget_mib"]
        assert scale["traced_peak_mib"] < scale["traced_budget_mib"]

    def test_obs_fields(self, record):
        obs = record["obs"]
        for field in (
            "baseline_seconds",
            "logged_seconds",
            "overhead_fraction",
            "required_max_overhead",
            "events_written",
            "workload",
        ):
            assert field in obs
        assert obs["overhead_fraction"] <= obs["required_max_overhead"]
        assert obs["events_written"] > 0
