"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--seconds S]

Runs the benchmark once per seed, one run after another, and prints for
each metric the median, the quartiles and the spread (third minus first
quartile, as a share of the median) of its values, and the failed share.
Without --seconds the run length comes from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    results = []
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
        ) + f" correct={res['correct']} failed={res['failed']}/{res['attempted']}",
            flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {name}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
              f"spread {(q3 - q1) / med:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload} failed share: {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
