#!/usr/bin/env python3
"""Build and run the PAST benchmark for one workload.

    python3 pastbench/run.py --workload fill|flash|churn --seed N \
        --seconds S --trace 0|1

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); build
output goes to standard error. The report goes to standard output, and
its last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The metric names and units are checked against
BENCHMARK.json before the result is printed. The exit code is 0 only
when the build succeeded, every correctness check held and the metrics
match the declaration.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Directories that hold build or run output, not source.
SKIP_DIRS = {"target", "results", ".bench_build", "__pycache__", ".git"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    """The checked-out commit, read from .git without running git (the
    checkout may not be a repository at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_sha1():
    """SHA-1 over the sources the binary is built from, so a report can
    be traced to its code even outside a git checkout."""
    h = hashlib.sha1()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", HERE.name):
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files += [Path(dirpath) / f for f in sorted(filenames)]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run,
    or None when there is no declaration to check against."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) - {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    if not (ROOT / "crates").is_dir():
        fail(f"no crates/ under {ROOT}: run from a full checkout of the repository")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    cmd = [str(target / "release" / "pastbench"), *argv,
           "--out-dir", str(target / "pastbench-out"),
           "--git-rev", git_rev(), "--source-sha1", source_sha1()]
    # One CPU for the benchmark and its calibration probe, so the probe
    # measures the core the simulator runs on.
    cpu = min(os.sched_getaffinity(0))
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if not lines:
        fail(f"benchmark printed nothing (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = declared_metrics(args.get("--trace") == "1")
    if declared is not None:
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        if sorted(got) != sorted(declared):
            fail(f"metrics {got} differ from BENCHMARK.json {declared}")
    print(lines[-1], flush=True)
    if run.returncode != 0 or not result["correct"]:
        fail(f"correctness check failed (exit code {run.returncode})")


if __name__ == "__main__":
    main(sys.argv[1:])
