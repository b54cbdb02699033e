#!/usr/bin/env python3
"""Builds bench_e2e from this source tree and runs one workload.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload wgs_snap --seed 1 --seconds 10 --trace 0

Every argument goes to the bench_e2e binary (see bench_e2e/README.md). The build is a
Release build in $CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e); the
first run configures and compiles the library, later runs only check it is current.
Build output goes to stderr, so the last line of stdout is the binary's JSON result.
With --trace 1 the Chrome trace of the run is written next to the build as
traces/<workload>-seed<seed>.json. The exit code is the binary's, or non-zero when
the build fails (for example outside a persona source tree).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_quietly(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(build_dir):
    generated = any(os.path.exists(os.path.join(build_dir, name))
                    for name in ("Makefile", "build.ninja"))
    if not generated:
        if not run_quietly(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not run_quietly(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs],
                       BUILD_TIMEOUT_S):
        return None
    return os.path.join(build_dir, "bench_e2e")


def option(args, name):
    if name in args:
        index = args.index(name)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "bench_e2e")
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if option(args, "--benchmark-json") is None:
        args += ["--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")]
    if option(args, "--trace") == "1" and option(args, "--trace-json") is None:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed') or 1}.json"
        args += ["--trace-json", os.path.join(trace_dir, name)]

    proc = subprocess.Popen([binary] + args)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e ran past {RUN_TIMEOUT_S} s; stopped", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
