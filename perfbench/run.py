"""The repository's benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats whole rounds of the
workload, each round in a fresh interpreter so that no cache carries over
from one round to the next, as many as fit in S seconds (at least one),
and reports the median of each metric over its rounds.  The first round's
outputs are checked after its timed section; every later round must print
exactly the same outputs.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
Per-round figures go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import COUNTS, TIMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_op_s": "s",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_round(args, env, outdir: str, k: int, check: bool) -> dict:
    out = os.path.join(outdir, f"round{k}.json")
    if os.path.exists(out):
        os.remove(out)
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--t0", repr(t0), "--out", out, "--trace", str(args.trace),
        "--check", str(int(check)), "--size", args.size,
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"round {k} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a few operations, for the self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "incideals", "cli.py")):
        print("error: run from the root of an incideals checkout (no src/incideals)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)

    # compile the package's bytecode and warm the file cache, untimed
    warm = subprocess.run([sys.executable, "-c", "import incideals.cli"], env=env,
                          stderr=subprocess.PIPE, text=True)
    if warm.returncode != 0:
        print(f"error: cannot import incideals: {warm.stderr[-2000:]}", file=sys.stderr)
        return 1

    # whole rounds, none started that would likely end past --seconds
    rounds = []
    spent = 0.0
    while not rounds or spent + spent / len(rounds) <= args.seconds:
        started = time.monotonic()
        try:
            res = run_round(args, env, outdir, len(rounds), check=not rounds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        spent += time.monotonic() - started - res.get("check_s", 0.0)
        rounds.append(res)
        print(f"round {len(rounds) - 1}: wall {res['wall_s']:.3f} s, "
              f"setup {res['setup_s']:.3f} s, failed {len(res['failed'])}"
              f"/{res['attempted']}", file=sys.stderr)

    problems = list(rounds[0]["problems"])
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        problems.append("rounds printed different outputs")
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in sorted({e for r in rounds for e in r["failed"]})[:20]:
        print(f"operation failed: {msg}", file=sys.stderr)

    if args.trace:
        units = {name: "s" for name in TIMES} | {name: "count" for name in COUNTS}
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in units}
    else:
        units = END_TO_END
        values = {name: statistics.median(r[name] for r in rounds) for name in units}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "result": result}, fh, indent=1)
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
