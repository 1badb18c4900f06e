#!/usr/bin/env python3
"""Compares lanbench runs of a change against runs of its parent.

Usage (from the repository root):

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR
        [--record BENCH_lanbench.json --parent-commit REV --change-commit REV]

Each directory holds one file per run, named <workload>.<seed>.txt (other
files are skipped), for example aids-repeat.3.txt, with lanbench's stdout
in it: the last line that parses as a JSON object with "metrics" is the
run's result. Runs pair up by (workload, seed); a run without a partner is
ignored.

For each workload and each end-to-end metric of BENCHMARK.json, the
script prints both sides' median and quartiles, the change/parent ratio
of the medians and in how many pairs the change was better. Wall-time
metrics are only reported: they move with the host's load. The work counters gate: the
script exits 1 if, on any seed, recall_at_10 falls, ndc_per_query rises or
failed rises. It exits 2 on unreadable input or when no run pairs up.

--record appends each side's medians per workload (commit, workload,
seeds, metrics) to a trajectory file, creating it if needed.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_-]+)\.(?P<seed>\d+)\.txt$")
# (metric, direction that counts as a regression) for the gated counters.
GATES = (("recall_at_10", "falls"), ("ndc_per_query", "rises"),
         ("failed", "rises"))


def fail(message):
    print("bench_compare: " + message, file=sys.stderr)
    sys.exit(2)


def read_result(path):
    with open(path) as f:
        lines = f.read().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except ValueError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    fail("no lanbench result line in " + path)


def read_runs(directory):
    """Returns {(workload, seed): result} for every run file in directory."""
    if not os.path.isdir(directory):
        fail("not a directory: " + directory)
    runs = {}
    for name in sorted(os.listdir(directory)):
        match = RUN_NAME.match(name)
        if match is None:
            continue
        key = (match.group("workload"), int(match.group("seed")))
        if key in runs:
            fail("two runs for %s seed %d in %s" % (key + (directory,)))
        runs[key] = read_result(os.path.join(directory, name))
    return runs


def value(result, metric):
    """A metric's value, or the top-level "failed" count; None if absent."""
    if metric == "failed":
        return result.get("failed")
    entry = result["metrics"].get(metric)
    return None if entry is None else entry["value"]


def summary(values):
    """(median, first quartile, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def fmt(x):
    return "%.4g" % x


def compare(parent, change, spec):
    """Prints the report; returns (regression lines, medians per side)."""
    regressions = []
    medians = {"parent": {}, "change": {}}
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    for workload in workloads:
        seeds = sorted(s for w, s in parent
                       if w == workload and (w, s) in change)
        if not seeds:
            continue
        print("%s: %d pairs, seeds %s" %
              (workload, len(seeds), ",".join(str(s) for s in seeds)))
        print("  %-16s %-30s %-30s %8s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "ratio", "change better"))
        for side in medians:
            medians[side][workload] = {"seeds": seeds, "metrics": {}}
        for metric in spec:
            name = metric["name"]
            pairs = [(value(parent[(workload, s)], name),
                      value(change[(workload, s)], name)) for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            p_med, p_q1, p_q3 = summary([p for p, _ in pairs])
            c_med, c_q1, c_q3 = summary([c for _, c in pairs])
            higher = metric["better"] == "higher"
            wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
            ratio = "%.3fx" % (c_med / p_med) if p_med != 0 else "-"
            print("  %-16s %-30s %-30s %8s  %d/%d" %
                  (name, "%s [%s, %s]" % (fmt(p_med), fmt(p_q1), fmt(p_q3)),
                   "%s [%s, %s]" % (fmt(c_med), fmt(c_q1), fmt(c_q3)),
                   ratio, wins, len(pairs)))
            medians["parent"][workload]["metrics"][name] = p_med
            medians["change"][workload]["metrics"][name] = c_med
        for seed in seeds:
            for name, worse in GATES:
                p = value(parent[(workload, seed)], name)
                c = value(change[(workload, seed)], name)
                if p is None or c is None:
                    continue
                if (c < p) if worse == "falls" else (c > p):
                    regressions.append("%s seed %d: %s %s, %s -> %s" %
                                       (workload, seed, name, worse,
                                        fmt(p), fmt(c)))
    if not medians["parent"]:
        fail("no run of one directory pairs up with a run of the other")
    return regressions, medians


def record(path, medians, commits):
    trajectory = {"entries": []}
    if os.path.exists(path):
        with open(path) as f:
            trajectory = json.load(f)
    for side in ("parent", "change"):
        for workload, entry in sorted(medians[side].items()):
            trajectory["entries"].append({
                "commit": commits[side],
                "workload": workload,
                "seeds": entry["seeds"],
                "metrics": {name: float("%.6g" % v)
                            for name, v in entry["metrics"].items()},
            })
    # One entry per line keeps the committed file diffable.
    with open(path, "w") as f:
        f.write("{\n")
        for key, item in trajectory.items():
            if key != "entries":
                f.write(" %s: %s,\n" % (json.dumps(key), json.dumps(item)))
        f.write(' "entries": [\n')
        f.write(",\n".join("  " + json.dumps(e) for e in trajectory["entries"]))
        f.write("\n ]\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--record", help="trajectory file to append to")
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    args = parser.parse_args()
    if args.record and not (args.parent_commit and args.change_commit):
        fail("--record needs --parent-commit and --change-commit")
    with open(SPEC) as f:
        spec = json.load(f)["end_to_end"]

    regressions, medians = compare(read_runs(args.parent_dir),
                                   read_runs(args.change_dir), spec)
    if args.record:
        record(args.record, medians,
               {"parent": args.parent_commit, "change": args.change_commit})
    for line in regressions:
        print("REGRESSION " + line)
    if regressions:
        return 1
    print("work counters: no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
