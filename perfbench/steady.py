#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs per workload.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]
                                [--trace 0|1] [--raw FILE]

Run from the repository root. For run i, every workload runs once with seed
1000 + i (set A) and once with seed 2000 + i (set B), alternating which set
goes first. For each metric the script prints each set's median and its
interquartile range as a share of the median (statistics.quantiles, n=4),
the set-to-set median difference, and the metric's bound from
BENCHMARK.json. A spread or a worsening difference above the bound is
marked "OVER", for every bounded metric, setup_s included; README.md shows
the output the bounds were derived from and which figures it leaves
unresolved. Exits non-zero if a run fails or the failed shares of the two
sets differ. Every run's JSON result is appended to --raw (default
perfbench-runs/steady-<time>.jsonl).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("steady: %s seed %d failed (exit %d)" %
                 (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw", default=os.path.join(
        ROOT, "perfbench-runs", time.strftime("steady-%Y%m%d-%H%M%S.jsonl")),
        help="append every run's JSON result to this file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    os.makedirs(os.path.dirname(os.path.abspath(args.raw)), exist_ok=True)
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                seed = (1000 if s == "A" else 2000) + i
                r = run_once(w, seed, args.seconds, args.trace)
                results[w][s].append(r)
                with open(args.raw, "a") as f:
                    f.write(json.dumps({"workload": w, "set": s,
                                        "seed": seed, **r}) + "\n")
                print("run %d %s set %s seed %d: %.1f s" %
                      (i, w, s, seed, r["wall_s"]), file=sys.stderr, flush=True)

    ok = True
    print("%d runs per set, %g s each, trace %d" %
          (args.runs, args.seconds, args.trace))
    for w in workloads:
        print("\n== %s" % w)
        print("%-34s %12s %7s %12s %7s %7s %6s" %
              ("metric", "median A", "IQR A", "median B", "IQR B", "diff", "bound"))
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            ma, sa = spread(a)
            mb, sb = spread(b)
            diff = (mb - ma) / ma if ma else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worse = diff if m["better"] == "lower" else -diff
                over = worse > bound or max(sa, sb) > bound
                flag = " OVER" if over else ""
            print("%-34s %12.6g %6.1f%% %12.6g %6.1f%% %+6.1f%% %6s%s" %
                  (name, ma, 100 * sa, mb, 100 * sb, 100 * diff,
                   "" if bound is None else "%.0f%%" % (100 * bound), flag))
        fa = [r["failed"] / r["attempted"] for r in results[w]["A"]]
        fb = [r["failed"] / r["attempted"] for r in results[w]["B"]]
        if sorted(set(fa)) != sorted(set(fb)) or len(set(fa)) != 1:
            ok = False
            print("failed shares differ: A %s, B %s" % (set(fa), set(fb)))
        else:
            print("failed share %g in every run" % fa[0])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
