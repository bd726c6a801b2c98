"""The end-to-end examples run: each exits 0 and reports its checks passed.

Nothing else executes ``examples/``, so without this suite an API change
would break them silently.  Each runs as its own process, the way a
reader runs it: ``PYTHONPATH=src python examples/<name>.py`` from the
repository root.  The suite puts ``src`` first on the subprocesses'
``PYTHONPATH`` itself, since only ``scenario_stress.py`` and
``serve_loadtest.py`` add it to ``sys.path`` on their own.  The slower
examples are left out to keep the suite quick:
``adaptive_repricing.py`` runs about 14 s, and ``budget_labeling.py``,
``content_moderation_deadline.py`` and ``quality_filtering.py`` 5 to 9 s
each on a 2-core host.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Example script -> a line only its successful run prints.
EXAMPLES = {
    "quickstart.py": "Monte-Carlo (20 runs): dynamic cost",
    "live_group_sizing.py": "mean dynamic cost",
    "multitype_batch.py": "coupled existence penalty",
    "marketplace_engine.py": "adaptive deadline campaigns:",
    "checkpoint_resume.py": "bit-identical to the uninterrupted run: True",
    "scenario_stress.py": "checkpoint/resume match : True",
    "serve_loadtest.py": (
        "resumed vs uninterrupted serving telemetry bit-identical: yes"
    ),
}


def example_env() -> dict:
    """The environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return env


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_example_runs_end_to_end(example):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / example)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
        env=example_env(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert EXAMPLES[example] in proc.stdout
