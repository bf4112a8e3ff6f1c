#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json repeatedly with a different seed
each time, alternating the order of the workloads from one pass to the
next, and prints for every end-to-end metric its median and quartiles
next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 benchmark/steady.py                  # 10 passes, all workloads
    python3 benchmark/steady.py --runs 5 --workloads ingest-window

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
Python's statistics.quantiles(values, n=4); a metric is steady when its
spread is within its bound (a third of the bound leaves headroom for a
second set of runs). `setup_s` has no spread requirement, only its median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        workloads = [w for w in workloads if w in a.workloads.split(",")]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = a.first_seed + i
            r, elapsed = run_once(spec["command"], w, seed, spec["run_seconds"])
            results[w].append({"seed": seed, "elapsed_s": elapsed, **r})
            print(f"pass {i + 1}/{a.runs} {w} seed {seed}: {elapsed:.1f}s, "
                  f"{r['attempted']} attempted, {r['failed']} failed", flush=True)

    print(f"\nnproc = {os.cpu_count()}, run_seconds = {spec['run_seconds']}, "
          f"runs per workload = {a.runs}")
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        wall = [r["elapsed_s"] for r in runs]
        print(f"\n{w}: failed share {shares}, wall per run "
              f"{min(wall):.1f}-{max(wall):.1f}s")
        print(f"  {'metric':<34} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("nan")
            b = bounds[name]
            bound = f"{b['bound']:.2f}"
            flag = ""
            if name != "setup_s":
                flag = "ok" if spread <= b["bound"] / 3 else (
                    "within" if spread <= b["bound"] else "OVER")
            print(f"  {name + ' (' + unit + ')':<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {bound:>6} {flag}")


if __name__ == "__main__":
    main()
