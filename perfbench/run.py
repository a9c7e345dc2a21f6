#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_cold|serve_hot|plan \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. The C++ benchmark (perfbench/CMakeLists.txt)
is configured and built under $CARGO_TARGET_DIR (default .bench_build), then
run; its report goes to stdout, and the last line is one JSON object with
the keys correct, attempted, failed and metrics. Exits non-zero when the
build fails, the benchmark fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_cold", "serve_hot", "plan")
# Budget for one run after the build: the longest workload (serve_cold)
# takes about 50 s at --seconds 15.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build(out):
    """Configures and builds the benchmark; returns False on failure."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run(cmd):
    """Runs cmd; returns (exit code, stdout lines). Kills it on timeout."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1, []
    return proc.returncode, [l for l in proc.stdout.splitlines() if l.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    code, lines = run([
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        # Relative, so the UDS socket path stays short.
        "--workdir", os.path.relpath(out),
    ])
    # The report, then the result line last.
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    try:
        result = json.loads(lines[-1] if lines else "")
    except ValueError:
        sys.stdout.write("".join(l + "\n" for l in lines[-1:]))
        sys.stderr.write("perfbench: no result line (exit code %d)\n" % code)
        return code or 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
