#!/usr/bin/env python3
"""Build and run the silc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_ladder --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library from the
checkout's src/ plus the silc_perf binary) under .bench_build/perfbench;
later runs only let the build tool confirm it is up to date. Build output
goes to stderr, so the last line of stdout is silc_perf's result.
Workloads: cold_ladder, batch_mixed, edit_verify (see
perfbench/src/*.cpp). perfbench/selftest.py checks the benchmark itself.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "silc_perf")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build; returns False when either step fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "compiler.hpp")):
        print("run.py: no silc sources under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, env=env).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: silc_perf exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
