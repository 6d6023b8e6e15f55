#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune, takes
the set-up time as the median over several set-up-only processes plus the
measured run's own set-up, runs the workload, and prints as the last line
of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace 0 and its
per-layer metrics when --trace 1. The lines before it are the program's
full report (host, settings, checks, every figure with its spread).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.relpath(HERE, ROOT)
EXE = os.path.join(ROOT, "_build", "default", BENCH_DIR, "main.exe")
OUT = os.path.join(ROOT, "_perfbench")
SETUP_SAMPLES = 9
BUILD_DEADLINE_S = 800
DEADLINE_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def remaining(started):
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        fail("out of time")
    return left


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet",
             "./" + BENCH_DIR + "/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run_exe(args, started, env):
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=remaining(started))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out: " + " ".join(args))
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("benchmark run failed (exit %d): %s" % (r.returncode, " ".join(args)))
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("benchmark run printed nothing: " + " ".join(args))
    return json.loads(lines[-1])


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "corpus", BENCH_DIR):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    build()
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    nproc = len(os.sched_getaffinity(0))
    common = ["--workload", a.workload, "--seed", str(a.seed), "--nproc", str(nproc)]

    setups = [run_exe(["setup"] + common, started, env)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    result = run_exe(["run"] + common + ["--seconds", str(a.seconds), "--trace", str(a.trace),
                                         "--out", OUT], started, env)
    metrics = result["metrics"]
    setups.append(metrics["setup_s"]["value"])
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                          "samples": setups}
    result["host"]["commit"] = commit()
    result["host"]["source_digest"] = source_digest()
    print(json.dumps(result, indent=1))

    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail("metric %s missing from the run" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
