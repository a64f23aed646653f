#!/usr/bin/env python3
"""Smoke self-test of the benchmark, in well under a minute once built.

    python3 perfbench/smoke.py

Run from the repository root. Every workload runs at a tiny size, untraced
and traced, with all its output checks; each must succeed and print every
metric BENCHMARK.json lists for that mode. Then browse runs once more with
one byte of one sampled image flipped, and the image check must catch it:
that run has to fail with an image mismatch. Exits non-zero on any
deviation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
           "--smoke", "1", "--corrupt", str(corrupt)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            p = run(w, trace)
            wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            if p.returncode != 0:
                problems.append("%s trace %d exited %d:\n%s" %
                                (w, trace, p.returncode, p.stderr))
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            got = set(result["metrics"])
            if got != wanted or not result["correct"] or result["failed"]:
                problems.append("%s trace %d: missing %s, extra %s, correct %s, "
                                "failed %s" % (w, trace, sorted(wanted - got),
                                               sorted(got - wanted),
                                               result["correct"], result["failed"]))
                continue
            checked = [l for l in p.stderr.splitlines() if "checked" in l]
            print("ok  %-12s trace %d  %s" % (w, trace, " ".join(checked)))

    p = run("browse", 0, corrupt=1)
    if p.returncode == 0 or "check failed: image" not in p.stderr:
        problems.append("a corrupted image byte went unnoticed:\n" + p.stderr)
    else:
        print("ok  corrupted image byte caught: " +
              p.stderr.split("check failed: ")[1].splitlines()[0])

    for msg in problems:
        print("FAIL " + msg, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
