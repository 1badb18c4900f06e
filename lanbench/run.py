#!/usr/bin/env python3
"""Builds the LAN benchmark from the source tree around it and runs it.

Usage (from the repository root):

    python3 lanbench/run.py --workload aids-lan --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ under the repository root. Build output and
progress go to stderr; stdout carries the benchmark's diagnostic lines and,
as its last line, the result JSON. See lanbench/README.md for workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lanbench")
WORKLOADS = ("aids-lan", "aids-repeat", "syn-writes")


def fail(message):
    print("lanbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_step(cmd):
    # Build chatter goes to stderr so stdout carries only the result.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_step(["cmake", "--build", BUILD_DIR, "--target", "lanbench",
              "-j", jobs])
    return os.path.join(BUILD_DIR, "lanbench")


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the library from the surrounding checkout; a
    # directory without it cannot produce a result.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "lan", "lan_index.h"))):
        fail("no LAN source tree at %s" % ROOT)

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("benchmark exited with code %d" % proc.returncode)
    # Diagnostics first, the result JSON as the last line.
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
