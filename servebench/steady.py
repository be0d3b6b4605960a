#!/usr/bin/env python3
"""Steadiness report: run each workload N times and compare spreads with bounds.

Run from the repository root:

    python3 servebench/steady.py --runs 10 [--workloads hot-cache,large-n]
        [--first-seed 1]

Each run uses the command and run length in BENCHMARK.json, with seeds
first-seed, first-seed+1, ... For every metric it prints the median,
the quartiles (Python's statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, the metric's bound, and whether the spread stays
under a third of it (setup_s has no spread check). Each run's line also
shows the share of CPU time the hypervisor stole during it. Raw results go to
servebench/results/steady-<workload>.json. Exits non-zero if any run
fails or prints no result.
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


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  WARNING {workload} seed {seed}: correct=false, failed={result['failed']}")
    return result, wall


def report(workload, results, bounds):
    names = list(results[0]["metrics"])
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  ok")
    worst = True
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        if name == "setup_s":
            verdict = ""
        else:
            ok = spread <= bound / 3
            worst &= ok
            verdict = "yes" if ok else "NO"
        print(f"  {name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6.3f}  {verdict}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    steady = True
    for w in workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall = run_once(spec, w, seed)
            results.append(result)
            with open(os.path.join(HERE, "results", f"{w}-seed{seed}-trace0.json")) as f:
                steal = json.load(f)["provenance"]["steal_share"]
            print(f"  {w} seed {seed}: {wall:.1f} s wall, steal {steal:.3f}", flush=True)
        with open(os.path.join(HERE, "results", f"steady-{w}.json"), "w") as f:
            json.dump(results, f, indent=1)
        steady &= report(w, results, bounds)
    print("\nevery end-to-end spread under a third of its bound:", "yes" if steady else "NO")


if __name__ == "__main__":
    main()
