#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload offload|htap|elt --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the idaa
library and the benchmark binary from source into .bench_build (or
$CARGO_TARGET_DIR when set); later calls rebuild incrementally. The binary's
last line of standard output is the run's JSON result. --selftest builds and
runs the benchmark's own unit tests instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, target)


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_selftest")
        return 2 if binary is None else subprocess.run([binary]).returncode
    binary = build("perfbench")
    if binary is None:
        return 2
    cmd = [binary] + argv + ["--trace-dir", os.path.join(build_dir(), "traces")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
