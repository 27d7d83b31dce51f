#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 e2ebench/run.py --workload serve_day --seed 1 --seconds 25 --trace 0

Builds e2ebench/ (the dhl libraries from src/ plus the e2e_bench harness)
into .bench_build/e2ebench with CMake, then runs one measurement.  Build
output goes to stderr; the harness's report goes to stdout, whose last
line is the JSON result.  Results and traced spans are also written
under .bench_build/e2ebench-results/.  See e2ebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "e2ebench-results")
BUILD_JOBS = str(min(3, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2e_bench")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"
    lines = top.stdout.split()
    if len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none (not a git checkout)"
    return lines[1]


def source_digest():
    """sha256 over every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            list(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        print("e2ebench: result does not match BENCHMARK.json",
              file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
