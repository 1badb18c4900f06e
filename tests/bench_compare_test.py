#!/usr/bin/env python3
"""Self-test of tools/bench_compare.py on the fixture in
tests/testdata/bench_compare/ (three tiny sets of lanbench result files).

Usage: python3 tests/bench_compare_test.py   (exits non-zero on failure)
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "tools", "bench_compare.py")
DATA = os.path.join(HERE, "testdata", "bench_compare")


def run(*args):
    proc = subprocess.run([sys.executable, SCRIPT] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check(condition, message, output=""):
    if not condition:
        print("FAIL: " + message + "\n" + output)
        sys.exit(1)


def main():
    parent = os.path.join(DATA, "parent")

    # Faster, same counters: exit 0. Seed 9 has no parent run, so it is
    # not paired, and parent/aids-lan.1.err (build chatter) is skipped.
    code, out, err = run(parent, os.path.join(DATA, "change"))
    check(code == 0, "change run should pass (exit %d)" % code, out + err)
    check("aids-repeat: 2 pairs, seeds 1,2" in out, "pairing", out)
    qps = [l for l in out.splitlines() if l.strip().startswith("qps")]
    check(len(qps) == 2 and qps[1].split()[1:2] == ["275"], "qps median", out)
    check(qps[1].rstrip().endswith("2/2") and "12.545x" in qps[1],
          "qps ratio and wins", out)
    check("work counters: no regression" in out, "verdict line", out)

    # Faster but NDC up on one seed and a failure on another: exit 1,
    # naming both.
    code, out, err = run(parent, os.path.join(DATA, "regress"))
    check(code == 1, "regressed counters should fail (exit %d)" % code,
          out + err)
    check("REGRESSION aids-lan seed 1: ndc_per_query rises" in out, "ndc",
          out)
    check("REGRESSION aids-repeat seed 2: failed rises" in out, "failed", out)

    # Nothing pairs up: exit 2.
    with tempfile.TemporaryDirectory() as empty:
        code, out, err = run(parent, empty)
        check(code == 2, "no pairs should be an input error", out + err)

        # --record appends both sides' medians.
        trajectory = os.path.join(empty, "trajectory.json")
        for _ in range(2):
            code, out, err = run(parent, os.path.join(DATA, "change"),
                                 "--record", trajectory, "--parent-commit",
                                 "aaa", "--change-commit", "bbb")
            check(code == 0, "record run", out + err)
        with open(trajectory) as f:
            entries = json.load(f)["entries"]
        check(len(entries) == 8, "two appends of 4 entries", str(entries))
        repeat = [e for e in entries[:4] if e["workload"] == "aids-repeat"]
        check([e["commit"] for e in repeat] == ["aaa", "bbb"], "commits",
              str(repeat))
        check(repeat[1]["seeds"] == [1, 2] and
              repeat[1]["metrics"]["qps"] == 3450, "change medians",
              str(repeat))
    print("bench_compare self-test passed")


if __name__ == "__main__":
    main()
