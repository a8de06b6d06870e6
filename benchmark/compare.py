#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py A.jsonl B.jsonl

A and B are record files written by `run.sh` (one JSON line per workload
run; append several runs, e.g. one per seed, to one file to make a set).
For every workload and end-to-end metric it prints each side's median, the
change from A to B, the larger of the two sides' spreads (distance between
the first and third quartile, as a share of the median) and a verdict:

  within      B is no worse than A by more than the metric's bound
  worse       B is worse by more than the bound, and the spread resolves it
  unresolved  the spread exceeds the bound (and B does not beat every run
              of A), or a side has fewer than two runs

Exits 0 when every pairing is within bound and every run passed its
correctness checks, 1 otherwise.
"""
import json
import statistics
import sys
from pathlib import Path


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, bound, lower_is_better):
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / med_a
    worse = change if lower_is_better else -change
    spreads = [spread(a), spread(b)]
    if None in spreads:
        return change, None, "unresolved"
    width = max(spreads)
    if width > bound:
        beats_all = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
        return change, width, "within" if beats_all else "unresolved"
    return change, width, "worse" if worse > bound else "within"


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    runs = {side: load(path) for side, path in zip("AB", argv[1:])}

    ok = True
    for side, records in runs.items():
        for r in records:
            if not r["correct"]:
                ok = False
                print(f"{side}: {r['workload']} seed {r['seed']}: "
                      f"{r['failed']} of {r['attempted']} checks failed")

    print(f"{'workload':16} {'metric':15} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = ([r["metrics"][name]["value"] for r in runs[side]
                     if r["workload"] == workload] for side in "AB")
            if not a or not b:
                ok = False
                print(f"{workload:16} {name:15} missing from "
                      f"{'A' if not a else 'B'}")
                continue
            change, width, result = verdict(a, b, metric["bound"],
                                            metric["better"] == "lower")
            ok = ok and result == "within"
            width_text = "-" if width is None else f"{width:7.1%}"
            print(f"{workload:16} {name:15} {statistics.median(a):12.6g} "
                  f"{statistics.median(b):12.6g} {change:+8.1%} "
                  f"{metric['bound']:6.0%} {width_text:>7}  {result}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
