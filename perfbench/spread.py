#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload sweep --seeds 1-10
    python3 perfbench/spread.py --workload deep --seeds 1-5 --trace 1

Runs perfbench/run.py once per seed for BENCHMARK.json's run_seconds, one
run at a time, and prints for each metric the median, the quartiles and the
quartile distance as a share of the median (statistics.quantiles(values,
n=4)), next to the metric's bound from BENCHMARK.json. Each seed's line
shows its values, so a trend over the runs can be told from scatter.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               a.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", a.trace]
        r = subprocess.run(cmd, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stderr.write(r.stderr)
            print(f"seed {seed}: run failed (exit {r.returncode})")
            return 1
        res = json.loads(lines[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{name}={m['value']:.4g}"
                         for name, m in res["metrics"].items())
        print(f"seed {seed}: attempted {res['attempted']} failed "
              f"{res['failed']} correct {res['correct']} {shown}", flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
            med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
