#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Run from the root of a checkout of the repository:

    python3 perfbench/spread.py [--runs 10] [--workloads fleet_mem,...]

Runs each workload --runs times with tracing off, each time with another
seed, and prints for every end-to-end metric its median and its spread: the
distance between the first and third quartiles of the values
(statistics.quantiles(values, n=4)) as a share of their median, next to the
metric's bound in BENCHMARK.json. Runs are sequential; run nothing else on
the host meanwhile.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for name, v in values.items():
            median = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / median if median else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {workload:14s} {name:16s} median {median:12.4f} "
                  f"spread {spread:6.3f} bound {bounds[name]:.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
