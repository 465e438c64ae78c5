#!/usr/bin/env python3
"""Run a workload over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-grid --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload paper-grid --seeds 0 --repeat 10
    python3 perfbench/spread.py --workload paper-grid --json stats.json

The first form runs each seed once, as a check of the bounds does; its
spread mixes differences between the seeds' layouts with run-to-run
noise. The second runs one seed ten times, so its spread is the noise
alone. For every metric of the final JSON line it prints the median of
the runs and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.
BENCHMARK.json's bound for a metric should be at least three times its
spread. --json writes the same figures, with each run's value, to a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per seed")
    ap.add_argument("--seconds")
    ap.add_argument("--json", help="also write the figures to this file")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds) * args.repeat:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed ({out.returncode})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if n in bounds or args.trace == "1"), flush=True)

    worst = 0.0
    stats = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            continue
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med
        stats[name] = {"unit": units[name], "median": med, "q1": q[0],
                       "q3": q[2], "spread": round(spread, 4), "runs": vals}
        bound = bounds.get(name)
        note = f"  bound {bound}, third {bound / 3:.4f}" if bound else ""
        if bound and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:30s} median {med:.6g}  spread {spread:.4f}{note}")
    if bounds and args.trace == "0":
        print(f"worst spread/bound (setup_s aside): {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(stats, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
