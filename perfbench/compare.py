#!/usr/bin/env python3
"""Summarise or compare sets of benchmark runs.

    python3 perfbench/compare.py RUNS_DIR              # one set: spreads
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR # two sets: verdicts

A run directory holds one file per run: the stdout of
`python3 perfbench/run.py ...` (its last two lines are read). Runs are grouped
by workload and by --trace; end-to-end metrics come from --trace 0 runs,
per-layer metrics from --trace 1 runs. Quartiles are
statistics.quantiles(values, n=4); spread is (q3 - q1) / median.

One set: prints each metric's median, quartiles and spread against its
bound in BENCHMARK.json, and exits 1 if a spread other than setup_s's
exceeds its bound.

Two sets: runs are paired by seed. For each end-to-end metric it prints both
medians and quartiles, the change, the pairs the change won, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the parent's
              own quartile distance;
  unresolved  otherwise, when either set's spread is wider than the bound,
              unless every run of the change reads better than every run of
              the parent;
  worse       the change's median is worse than the parent's by more than
              the bound;
  same        no worse than the bound.

It exits 1 if any verdict is worse. Per-layer metrics get medians, the
change, and a mark where a simulated count repeated exactly in every run.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, trace): {seed: metrics}} from every file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if len(lines) < 2:
            continue
        try:
            context, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if "workload" not in context or "metrics" not in result:
            continue
        if not result["correct"] or result["failed"]:
            print("warning: %s reports failed operations" % path,
                  file=sys.stderr)
        key = (context["workload"], context["trace"])
        runs.setdefault(key, {})[context["seed"]] = {
            m: v["value"] for m, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def fmt(v):
    return "%.4g" % v


def summarise(runs, spec):
    bad = False
    print("%-14s %-20s %3s %10s %21s %7s %6s  %s" % (
        "workload", "metric", "n", "median", "[q1, q3]", "spread", "bound",
        "status"))
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace:
            continue
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in by_seed.values()]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            if s < m["bound"] / 3:
                status = "steady"
            elif s <= m["bound"]:
                status = "within bound"
            else:
                status = "too wide"
                bad = bad or m["name"] != "setup_s"
            print("%-14s %-20s %3d %10s %21s %7.4f %6.2f  %s" % (
                workload, m["name"], len(values), fmt(med),
                "[%s, %s]" % (fmt(q1), fmt(q3)), s, m["bound"], status))
    return 1 if bad else 0


def verdict(parent, change, bound, lower_is_better):
    def better(b, a):
        return b < a if lower_is_better else b > a

    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s]) for s in seeds)
    pa, ch = list(parent.values()), list(change.values())
    q1a, meda, q3a = quartiles(pa)
    _, medc, _ = quartiles(ch)
    worse_by = (medc - meda) / meda * (1 if lower_is_better else -1)
    if (seeds and wins >= 0.9 * len(seeds) and better(medc, meda)
            and abs(medc - meda) > q3a - q1a):
        v = "better"
    elif (max(spread(pa), spread(ch)) > bound
          and not all(better(c, p) for c in ch for p in pa)):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "same"
    return v, wins, len(seeds)


def compare(parent_runs, change_runs, spec):
    worse = False
    print("%-14s %-20s %21s %21s %8s %9s  %s" % (
        "workload", "metric", "parent med [q1,q3]", "change med [q1,q3]",
        "change", "wins/n", "verdict"))
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        a, b = parent_runs[key], change_runs[key]
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            pa = {s: r[name] for s, r in a.items() if name in r}
            ch = {s: r[name] for s, r in b.items() if name in r}
            if not pa or not ch:
                continue
            q1a, meda, q3a = quartiles(list(pa.values()))
            q1b, medb, q3b = quartiles(list(ch.values()))
            change = (medb - meda) / meda if meda else 0.0
            cols = ("%-14s %-20s %21s %21s %+7.1f%%" % (
                workload, name,
                "%s [%s,%s]" % (fmt(meda), fmt(q1a), fmt(q3a)),
                "%s [%s,%s]" % (fmt(medb), fmt(q1b), fmt(q3b)),
                100 * change))
            if trace:
                same_count = len(set(pa.values()) | set(ch.values())) == 1
                print(cols + ("  identical" if same_count else ""))
                continue
            v, wins, n = verdict(pa, ch, m["bound"], m["better"] == "lower")
            worse = worse or v == "worse"
            print(cols + " %9s  %s" % ("%d/%d" % (wins, n), v))
    return 1 if worse else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if len(argv) == 2:
        return summarise(load_runs(argv[1]), spec)
    return compare(load_runs(argv[1]), load_runs(argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
