#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark, per workload and
per metric, with no dependencies beyond the standard library.

A result set is a JSONL file written by `perfbench/run.py --out FILE` (one
record per run and workload), or a directory of such files. Run the
parent commit and the change alternately, with the same --seconds, into
two files, then:

    python3 perfbench/compare.py parent.jsonl change.jsonl

For every metric it prints each side's median and quartiles, the share of
runs paired in order in which the change is better, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile distance
  worse       the same rule with the sides swapped; for an end-to-end
              metric also a median worse than the parent's by more than
              the metric's bound
  unresolved  end-to-end only: a side's quartile distance exceeds the
              bound (as a share of its median) and not every change run
              beats every parent run
  no change   none of the above
  same/changed  per-layer exact counts that must repeat run to run
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import EXACT_LAYER_COUNTS, ROOT


def load(path):
    """{(workload, trace): {metric: [(seed, value) in run order]}}"""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    sets = defaultdict(lambda: defaultdict(list))
    for f in files:
        for line in f.read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                sets[key][name].append((rec["seed"], m["value"]))
    return sets


def count_verdict(base, change):
    """Exact counts must repeat for every seed both sides ran."""
    by_seed = defaultdict(set)
    for seed, value in base + change:
        by_seed[seed].add(value)
    common = {s for s, _ in base} & {s for s, _ in change}
    if not common:
        return "no common seed"
    return "same" if all(len(by_seed[s]) == 1 for s in common) else "changed"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    gap = abs(c_med - b_med)
    if bound is not None:
        spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                     (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
        all_better = all(sign * (c - b) > 0 for b in base for c in change)
        if all_better:
            return "better"
        if spread > bound:
            return "unresolved"
        if sign * (c_med - b_med) < 0 and gap > bound * abs(b_med):
            return "worse"
    if pairs and wins >= 0.9 * len(pairs) and gap > b_q3 - b_q1:
        return "better"
    if pairs and losses >= 0.9 * len(pairs) and gap > b_q3 - b_q1:
        return "worse"
    return "no change"


def main():
    ap = argparse.ArgumentParser(
        description="compare two perfbench result sets")
    ap.add_argument("base", help="parent result set (file or directory)")
    ap.add_argument("change", help="changed result set (file or directory)")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        spec = json.load(f)
    meta = {m["name"]: (m["unit"], m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)

    header = (f"{'metric':30s} {'unit':>8s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}  "
              "verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        n_pairs = min(len(next(iter(b_runs.values()), [])),
                      len(next(iter(c_runs.values()), [])))
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{n_pairs} pairs)")
        if n_pairs < 10:
            print("   note: fewer than 10 pairs; no gain may be claimed")
        print(header)
        for name in sorted(set(b_runs) & set(c_runs)):
            unit, better, bound = meta.get(name, ("?", "lower", None))
            b = [v for _, v in b_runs[name]]
            c = [v for _, v in c_runs[name]]
            b_med, c_med = statistics.median(b), statistics.median(c)
            b_q1, b_q3 = quartiles(b)
            c_q1, c_q3 = quartiles(c)
            delta = (c_med - b_med) / b_med * 100 if b_med else 0.0
            sign = -1.0 if better == "lower" else 1.0
            wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            v = (count_verdict(b_runs[name], c_runs[name])
                 if name in EXACT_LAYER_COUNTS else
                 verdict(b, c, better, bound))
            b_col = f"{b_med:.6g} [{b_q1:.4g}, {b_q3:.4g}]"
            c_col = f"{c_med:.6g} [{c_q1:.4g}, {c_q3:.4g}]"
            print(f"{name:30s} {unit:>8s} {b_col:>34s} {c_col:>34s} "
                  f"{delta:>+7.2f}% {wins:>2d}/{min(len(b), len(c)):<3d} {v}")
    missing = set(base) ^ set(change)
    for key in sorted(missing):
        print(f"\nnote: {key[0]} (trace {key[1]}) is in only one result set",
              file=sys.stderr)


if __name__ == "__main__":
    main()
