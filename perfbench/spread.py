#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on the same commit in one or two
sets of seeds and prints, per workload and end-to-end metric, the spread
(interquartile range over median, as statistics.quantiles(n=4) gives it)
against the metric's bound in BENCHMARK.json, and how far the second
set's median moved from the first's (positive: in the metric's worse
direction).

    python3 perfbench/spread.py                     # 2 sets x 10 seeds, every workload
    python3 perfbench/spread.py --sets 1 --seeds 5 --workloads churn

Run it from the repository root. Exits 1 when any metric's spread
(setup_s's too) or set-to-set move in either direction exceeds its
bound, or a run fails its checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--raw", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads is None
                 else args.workloads.split(","))
    metrics = bench["end_to_end"]
    failed = False
    medians = {}
    for s in range(args.sets):
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            walls = []
            for i in range(args.seeds):
                seed = 1000 * (s + 1) + i
                result, wall = run(bench["command"], workload, seed, bench["run_seconds"])
                walls.append(wall)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']} of {result['attempted']}")
                    failed = True
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"\nset {s + 1}, {workload}: {args.seeds} runs, "
                  f"{statistics.mean(walls):.1f} s mean wall per run")
            print(f"{'metric':<16} {'median':>14} {'spread':>8} {'bound':>6} {'moved':>8}")
            for m in metrics:
                name, bound = m["name"], m["bound"]
                v = values[name]
                med = statistics.median(v)
                sp = spread(v) if len(v) >= 2 else 0.0
                moved = ""
                key = (workload, name)
                if key in medians:
                    first = medians[key]
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    moved = f"{worse:+.3f}"
                    if abs(worse) > bound:
                        failed = True
                        moved += " !"
                medians[key] = med
                flag = ""
                if sp > bound:
                    flag, failed = " !", True
                elif sp > bound / 3:
                    flag = " ~"
                print(f"{name:<16} {med:>14.4f} {sp:>8.3f} {bound:>6.2f} {moved:>8}{flag}")
                if args.raw:
                    print("    " + " ".join(f"{x:.4g}" for x in v))
    print("\n! = outside the bound, ~ = above a third of it")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
