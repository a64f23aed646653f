#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload <sim_paper|browse|cold_average|zipf_burst>
                             --seed N --seconds S --trace 0|1

Run from the repository root. The driver and the mqs libraries are built
with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use; later
runs rebuild only what changed. The driver's output is passed through; its
last stdout line is the JSON result. Exits non-zero if the build, the run or
any output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_paper", "browse", "cold_average", "zipf_burst")
# Run outputs: Chrome traces of traced runs, steady.py's raw results.
RUNS = os.path.join(ROOT, "perfbench-runs")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configure and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mqs sources under %s/src" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    log = os.path.join(out, "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    with open(log, "w") as f:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", out,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=f, stderr=subprocess.STDOUT)
            if rc != 0:
                sys.exit("perfbench: cmake configure failed, see " + log)
        rc = subprocess.call(["cmake", "--build", out, "--target", "perfbench",
                              "-j", jobs], stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        sys.exit("perfbench: build failed, see " + log)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke), "--corrupt", str(args.corrupt)]
    if args.trace:
        os.makedirs(RUNS, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            RUNS, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    # The measured phase lasts --seconds; sim_paper's first pass and each
    # round's set-up and checks come on top of it.
    limit = args.seconds + 150
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %g s" %
                 (args.workload, limit))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit("perfbench: output check failed")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
