#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Builds the benchmark (through run.py), then:
  1. runs every workload of BENCHMARK.json briefly, untraced and traced,
     and asserts each run passes its correctness check and prints every
     end-to-end (untraced) or per-layer (traced) metric named in
     BENCHMARK.json, with its unit;
  2. runs one workload with --inject-flip, which flips one bit of one
     served probability, and asserts the correctness check fails loudly:
     non-zero exit, a CORRECTNESS FAILURE line, correct=false, failed>0.
Exit status 0 when every assertion holds. Takes about three minutes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SHORT = ["--seconds", "2", "--warmup-seconds", "0.5"]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            rc, _, res = run(["--workload", wl, "--seed", "3", "--trace",
                              trace] + SHORT)
            tag = f"{wl} --trace {trace}"
            expect(rc == 0 and res["correct"] and res["failed"] == 0,
                   f"{tag}: correct, exit 0")
            expect(res["attempted"] >= 1, f"{tag}: attempted >= 1")
            for m in spec[group]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and
                       isinstance(got["value"], (int, float)),
                       f"{tag}: {m['name']} printed in {m['unit']}")
            expect(set(res["metrics"]) == {m["name"] for m in spec[group]},
                   f"{tag}: no metrics beyond BENCHMARK.json")

    rc, lines, res = run(["--workload", "screened", "--seed", "3",
                          "--trace", "0", "--inject-flip"] + SHORT)
    expect(rc != 0, "--inject-flip: non-zero exit")
    expect(any(line.startswith("CORRECTNESS FAILURE") for line in lines),
           "--inject-flip: CORRECTNESS FAILURE printed")
    expect(not res["correct"] and res["failed"] >= 1,
           "--inject-flip: correct=false, failed >= 1")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
