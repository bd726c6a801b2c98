"""Tiny-size self-test of the benchmark driver.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` untraced and traced and
requires: exit status 0; a last line holding exactly ``correct``,
``attempted``, ``failed`` and ``metrics``; every metric ``BENCHMARK.json``
declares for that mode, with its unit; and the same output fingerprint
from both runs.  It then requires the output checks to fire: with a
corrupted fingerprint in a copy of the benchmark (``reference.json``
edited, ``src/`` linked in) every workload must exit non-zero and print
no result, and so must a directory that holds only ``BENCHMARK.json``
and the benchmark's files.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class SelfTestFailed(Exception):
    pass


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_line(stdout: str):
    """The parsed last line, or ``None`` when it is not a JSON object."""
    lines = stdout.strip().splitlines()
    try:
        parsed = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return parsed if isinstance(parsed, dict) else None


def fingerprint(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.strip().startswith("fingerprint of seed"):
            return line.rsplit(" ", 1)[-1]
    raise SelfTestFailed("no fingerprint line in the output")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailed(message)


def check_workload(workload: str) -> None:
    fingerprints = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        expect(proc.returncode == 0,
               f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-800:]}")
        result = result_line(proc.stdout)
        expect(result is not None, f"{workload} trace={trace}: last line is not JSON")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{workload} trace={trace}: keys {sorted(result)}")
        expect(result["correct"] is True and result["attempted"] >= 1,
               f"{workload} trace={trace}: {result['correct']=}, {result['attempted']=}")
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(emitted == declared,
               f"{workload} trace={trace}: emitted {emitted}, declared {declared}")
        expect(all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values()),
               f"{workload} trace={trace}: a metric value is not a number")
        fingerprints.append(fingerprint(proc.stdout))
    expect(fingerprints[0] == fingerprints[1],
           f"{workload}: traced fingerprint {fingerprints[1]} != untraced {fingerprints[0]}")


def copy_benchmark(root: Path) -> Path:
    """Copy ``BENCHMARK.json`` and the benchmark's files into ``root``."""
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def check_corrupted(workdir: Path) -> None:
    copy = copy_benchmark(workdir / "corrupted")
    (copy / "src").symlink_to(ROOT / "src", target_is_directory=True)
    reference_path = copy / "perfbench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    for entry in reference["workloads"].values():
        tiny = entry["fingerprint"]["tiny"]
        entry["fingerprint"]["tiny"] = ("0" if tiny[0] != "0" else "1") + tiny[1:]
    reference_path.write_text(json.dumps(reference))
    for workload in WORKLOADS:
        proc = run(workload, 0, cwd=copy)
        expect(proc.returncode != 0,
               f"{workload}: a corrupted fingerprint still exited 0")
        expect(result_line(proc.stdout) is None,
               f"{workload}: a corrupted fingerprint still printed a result")


def check_bare_directory(workdir: Path) -> None:
    bare = copy_benchmark(workdir / "bare")
    proc = run(WORKLOADS[0], 0, cwd=bare)
    expect(proc.returncode != 0, "the benchmark exited 0 without the sources")
    expect(result_line(proc.stdout) is None,
           "the benchmark printed a result without the sources")


def main() -> int:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for workload in WORKLOADS:
            check_workload(workload)
            print(f"ok   {workload}: untraced and traced runs emit every metric, "
                  "same fingerprint", flush=True)
        check_corrupted(workdir)
        print("ok   a corrupted fingerprint fails every workload", flush=True)
        check_bare_directory(workdir)
        print("ok   a directory without the sources fails", flush=True)
    except SelfTestFailed as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
