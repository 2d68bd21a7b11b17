#!/usr/bin/env python3
"""Builds and runs the touch-to-result benchmark.

Run from the root of a checkout:

    python3 touchbench/run.py --workload paced_resident --seed 1 \
        --seconds 10 --trace 0

The benchmark program is compiled from the checkout's src/ tree into
$CARGO_TARGET_DIR/touchbench (default .bench_build/touchbench) on the
first run. The last line of standard output is the program's JSON result;
the run exits non-zero without printing a result when the build or the
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paced_resident", "paced_spilled", "flood_summary")
RUN_TIMEOUT_S = 170


def fail(message):
    print("touchbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    sources = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(sources, "server", "touch_server.h")):
        fail("no dbtouch sources under " + sources)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "touchbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(os.getcwd(), build_root)
    build_dir = os.path.join(build_root, "touchbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "out")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("run exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("run printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(run.stdout)
        fail("result has unexpected keys")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
