#!/usr/bin/env python3
"""Compare two archives of benchmark results written by `run.py --out`.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each archive holds one JSON line per run. The tool refuses (exit 2) when
the runs do not all share one host fingerprint (microarch key, nproc,
ENMC_THREADS, build type, compiler): a number measured on another host
or build is not comparable. Otherwise it prints, per workload and
end-to-end metric, each side's median and quartiles, and a verdict:

    worse      the change's median is worse than the base's by more than
               the metric's bound in BENCHMARK.json
    better     the change's median is better by more than the base's own
               quartile spread and every change run beats the base median
    unresolved the base's quartile spread is wider than the bound
    same       otherwise

Exit status 1 when any metric reads `worse`, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + change}
    if len(prints) != 1:
        print("refusing to compare across host fingerprints:",
              file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    worse = False
    print(f"fingerprint {prints.pop()}")
    for wl in [w["name"] for w in spec["workloads"]]:
        b_runs = [r for r in base if r["workload"] == wl and
                  r["trace"] == "0"]
        c_runs = [r for r in change if r["workload"] == wl and
                  r["trace"] == "0"]
        if not b_runs or not c_runs:
            continue
        print(f"\n{wl}: {len(b_runs)} base runs, {len(c_runs)} change runs")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            bq, cq = quartiles(bv), quartiles(cv)
            b_med, c_med = bq[1], cq[1]
            spread = (bq[2] - bq[0]) / abs(b_med) if b_med else 0.0
            # Positive = the change is worse, as a share of the base.
            rel = (c_med - b_med) / abs(b_med) if b_med else 0.0
            rel = rel if lower else -rel
            beats = all((v < b_med) if lower else (v > b_med) for v in cv)
            if rel > bound:
                verdict, worse = "worse", True
            elif spread > bound:
                verdict = "unresolved"
            elif -rel > spread and beats:
                verdict = "better"
            else:
                verdict = "same"
            print(f"  {name:16s} base {b_med:12.5g} [{bq[0]:.5g}, "
                  f"{bq[2]:.5g}]  change {c_med:12.5g} [{cq[0]:.5g}, "
                  f"{cq[2]:.5g}] {m['unit']:6s} {100 * rel:+7.2f}%  "
                  f"{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
