#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: for each metric, the
distance between the first and third quartile of its values over several
seeds, as a share of their median, set against the metric's bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload churn --seeds 1-10

Prints one row per metric (median, spread, bound, spread/bound) and the
number of failed requests. Exits non-zero when any spread, setup_s's
included, exceeds its bound.
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    failed = 0
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)

    worst = 0.0
    print(f"{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}{'ratio':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ratio = spread / bounds[name]
        worst = max(worst, ratio)
        print(f"{name:<14}{med:>12.5g}{spread:>9.4f}{bounds[name]:>7.3f}{ratio:>7.2f}")
    print(f"failed requests: {failed}")
    sys.exit(0 if worst <= 1.0 and failed == 0 else 1)


if __name__ == "__main__":
    main()
