#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile (Python's
``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json and a third of it.

Run from the repository root:

    python3 perfbench/spread.py --workload serving --seeds 1-5
    python3 perfbench/spread.py --workload ops_gftr --seeds 11-20 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="defaults to BENCHMARK.json's run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs incorrect")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            if n in bounds or args.trace == "1"), flush=True)

    print(f"{'metric':<40} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        spread = float("nan")
        if len(xs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
        bound = bounds.get(name)
        b = "" if bound is None else f"{bound:>6.3f} {bound / 3:>8.4f}"
        flag = "" if bound is None or not spread > bound / 3 else "  WIDE"
        print(f"{name:<40} {med:>14.6g} {spread:>8.4f} {b}{flag}")


if __name__ == "__main__":
    main()
