#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's metrics.

Runs one workload once per seed and prints, for every metric, the
median and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median -- the spread a
metric's regression bound is judged against.

    python3 perfbench/spread.py --workload sfs --seeds 1-10 [--seconds 30] [--trace 0]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run = Path(__file__).resolve().parent / "run.py"
    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(run), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(out)
            sys.exit(f"seed {seed}: run reported incorrect output")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / abs(q2) if q2 else 0.0
        print(f"{name:34s} median {q2:12.6g}  spread {share:7.4f}")


if __name__ == "__main__":
    main()
