#!/usr/bin/env python3
"""Compares two benchmark result sets, per workload and metric.

Usage:

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]

Each result set is a JSON-lines file written by `run.py --out`, one run per
line, tagged with its workload, seed and trace flag. Runs are paired by seed,
since a seed fixes a run's inputs; a seed run more than once on one side
counts with its median. For every workload and end-to-end metric (untraced
runs) it prints each side's median and quartiles and a verdict:

  better      the change wins at least nine tenths of the seed pairs, ties
              counting for neither, and its median beats the base by more
              than the base's quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound from BENCHMARK.json;
  unchanged   neither;
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              base run.

Beside them it prints, for traced runs, the per-layer time metrics' medians
and their deltas, so a gain can be located in the layer that should carry it.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    """Results per (workload, trace flag), each a dict seed -> list of runs."""
    runs = {}
    with open(path) as lines:
        for line in lines:
            if line.strip():
                run = json.loads(line)
                by_seed = runs.setdefault((run["workload"], run["trace"]), {})
                by_seed.setdefault(run["seed"], []).append(run["result"]["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, bound, better):
    """Classifies `change` against `base` (dicts seed -> one metric's value)."""
    sign = -1 if better == "lower" else 1
    b1, bm, b3 = quartiles(list(base.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    if (b3 - b1) > bound * abs(bm) or (c3 - c1) > bound * abs(cm):
        everywhere = all(sign * (c - b) > 0
                         for c in change.values() for b in base.values())
        return "better" if everywhere else "unresolved"
    seeds = base.keys() & change.keys()
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    gain = sign * (cm - bm)
    if seeds and wins >= 0.9 * len(seeds) and gain > (b3 - b1):
        return "better"
    if -gain > bound * abs(bm):
        return "worse"
    return "unchanged"


def values_of(runs, metric):
    """seed -> the metric's median over that seed's runs."""
    values = {}
    for seed, results in runs.items():
        found = [result[metric]["value"] for result in results if metric in result]
        if found:
            values[seed] = statistics.median(found)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base, change = load(args.base), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':<15} {'metric':<14} {'base q1/median/q3':>32} "
          f"{'change q1/median/q3':>32}  verdict")
    for workload in workloads:
        b_runs, c_runs = base.get((workload, 0), {}), change.get((workload, 0), {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = values_of(b_runs, name), values_of(c_runs, name)
            if not b or not c:
                print(f"{workload:<15} {name:<14} {'(no runs)':>32}")
                continue
            fmt = lambda v: "%.4g/%.4g/%.4g" % quartiles(list(v.values()))
            print(f"{workload:<15} {name:<14} {fmt(b):>32} {fmt(c):>32}  "
                  f"{verdict(b, c, metric['bound'], metric['better'])} "
                  f"({len(b.keys() & c.keys())} seed pairs)")

    print("\nper-layer times (traced runs; median base -> change, delta)")
    for workload in workloads:
        b_runs, c_runs = base.get((workload, 1), {}), change.get((workload, 1), {})
        if not b_runs or not c_runs:
            continue
        for metric in spec["per_layer"]:
            if metric["unit"] not in ("s", "ms"):
                continue
            b = list(values_of(b_runs, metric["name"]).values())
            c = list(values_of(c_runs, metric["name"]).values())
            if not b or not c or (statistics.median(b) == 0 and statistics.median(c) == 0):
                continue
            bm, cm = statistics.median(b), statistics.median(c)
            rel = f"{(cm - bm) / bm:+.1%}" if bm else ""
            print(f"{workload:<15} {metric['name']:<32} {bm:10.4g} -> {cm:10.4g} "
                  f"{metric['unit']:<3} {cm - bm:+10.4g} {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
