#!/usr/bin/env python3
"""Build and run the ENMC host wall-clock serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload screened --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench/` (the repository's src/
libraries plus the benchmark driver, Release) into the build directory:
$CARGO_TARGET_DIR when set, else `.bench_build` at the repository root.
Later runs rebuild incrementally. Build output goes to stderr; the
driver's report goes to stdout, and its last line is one JSON object
with the keys correct, attempted, failed and metrics.

Options beyond the driver's own (see enmc_perfbench.cc):
    --out FILE   append {fingerprint, workload, seed, trace, result} as
                 one JSON line to FILE, for perfbench/compare.py

Exit status: the driver's (non-zero when the correctness check fails),
or 1 when the build fails or the repository sources are missing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Threads of the process-wide pool; part of the recorded fingerprint.
THREADS = "4"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT}/src is missing; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "enmc_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(proc.stdout[-4000:] if proc.returncode
                         else "")
        if proc.returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "enmc_perfbench")


def flag_value(args, name):
    i = args.index(name) if name in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def parse_result(line):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    return res


def main(argv):
    out_path = None
    args = []
    it = iter(argv)
    for a in it:
        if a == "--out":
            out_path = next(it, None)
            if out_path is None:
                fail("--out needs a file")
        else:
            args.append(a)

    bdir = build_dir()
    binary = build(bdir)
    env = dict(os.environ, ENMC_THREADS=THREADS)
    # Keep the tracer's files inside the build directory.
    if flag_value(args, "--trace") == "1" and "--trace-json" not in args:
        args += ["--trace-json", os.path.join(bdir, "trace.json")]
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode == 0 and result is None:
        sys.stdout.write(proc.stdout)
        fail("driver printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    if out_path and result is not None:
        fingerprint = None
        for line in lines:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
        record = {"fingerprint": fingerprint,
                  "workload": flag_value(args, "--workload"),
                  "seed": flag_value(args, "--seed"),
                  "trace": flag_value(args, "--trace"),
                  "result": result}
        with open(out_path, "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
