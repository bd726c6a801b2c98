"""Documentation-layer contract: pages exist, links resolve, bench recorded.

This is the ``make docs-check`` target: it fails when a docs page goes
missing, when the README stops linking the docs tree, when a relative
markdown link points at a file that does not exist, when a backticked
``repro.…`` path names nothing importable, or when the tracked
benchmark record loses the fields ``docs/performance.md`` documents.
"""

from __future__ import annotations

import importlib
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


#: A backticked dotted path into the package: `repro.obs.events.Event`
#: (a trailing call, `repro.x.f()`, names the same object).
_DOTTED_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def resolves(path: str) -> bool:
    """Whether dotted ``path`` imports as a module, or resolves as an
    attribute chain under its longest importable module prefix."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


@pytest.mark.parametrize(
    "source", ["README.md", *DOCS_PAGES], ids=lambda p: str(p)
)
def test_dotted_paths_resolve(source):
    text = (REPO_ROOT / source).read_text()
    broken = sorted(
        {path for path in _DOTTED_PATH.findall(text) if not resolves(path)}
    )
    assert not broken, f"{source} names paths that do not resolve: {broken}"


#: Markdown links into a heading: [text](page.md#anchor) or [text](#anchor).
_ANCHORED_LINK = re.compile(r"\[[^\]]+\]\((?!https?://)([^)#\s]*)#([^)\s]+)\)")


def _heading_anchors(markdown: str) -> set[str]:
    """The GitHub-style anchors of a page's headings."""
    anchors = set()
    for line in markdown.splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip().lower()
            anchors.add(re.sub(r"[^\w\- ]", "", title).replace(" ", "-"))
    return anchors


@pytest.mark.parametrize(
    "source", ["README.md", *DOCS_PAGES], ids=lambda p: str(p)
)
def test_link_anchors_name_a_heading(source):
    path = REPO_ROOT / source
    broken = []
    for match in _ANCHORED_LINK.finditer(path.read_text()):
        target = path.parent / match.group(1) if match.group(1) else path
        if match.group(2) not in _heading_anchors(target.read_text()):
            broken.append(f"{match.group(1)}#{match.group(2)}")
    assert not broken, f"{source} links to missing headings: {broken}"


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
        # The scalar-vs-batch solve comparison is recorded here only.
        assert "kernels" not in record
        solve = record["policy_solve"]
        for field in (
            "scalar_seconds",
            "batch_seconds",
            "speedup",
            "required_speedup",
        ):
            assert field in solve
        assert solve["speedup"] >= solve["required_speedup"]

    def test_factored_arrivals_fields(self, record):
        assert "shard_scaling" not in record
        factored = record["factored_arrivals"]
        assert factored["campaigns"] == record["workload"]["factored_campaigns"]
        assert factored["completed"] > 0
        floor = factored["required_min_campaigns_per_second"]
        assert floor >= 300.0, "the ratcheted floor must never be lowered"
        assert factored["campaigns_per_second"] >= floor

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
