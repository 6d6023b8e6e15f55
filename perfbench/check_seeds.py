#!/usr/bin/env python3
"""The benchmark's own test: a second seed gives the same metric names and
passing checks.

    python3 perfbench/check_seeds.py [--seconds S] [--seeds A B]

Runs every workload of BENCHMARK.json through run.py on both seeds, with
and without tracing, and fails (exit 1) unless every run is correct, both
seeds report the same metric names, and the share of failed trials (the
known provenance-replay defect, on record-replay) is the same.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("run.py failed: %s seed %d trace %d" % (workload, seed, trace))
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seeds", type=int, nargs=2, default=[1, 2])
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            results = [run(w["name"], s, a.seconds, trace) for s in a.seeds]
            for s, res in zip(a.seeds, results):
                if not res["correct"]:
                    problems.append("%s seed %d trace %d: checks failed" % (w["name"], s, trace))
            names = [sorted(res["metrics"]) for res in results]
            if names[0] != names[1]:
                problems.append("%s trace %d: metric names differ between seeds" % (w["name"], trace))
            shares = [res["failed"] / res["attempted"] for res in results]
            if shares[0] != shares[1]:
                problems.append("%s trace %d: failed share differs between seeds: %s"
                                % (w["name"], trace, shares))
            print("%s trace %d: seeds %s ok=%s failed share %s"
                  % (w["name"], trace, a.seeds, [r["correct"] for r in results], shares))
    for p in problems:
        print("FAIL: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
