"""One round of a workload, in a fresh interpreter.

    python perfbench/round.py --workload W --seed N --t0 T --out PATH
        [--trace 0|1] [--check 0|1] [--size full|tiny]

`--t0` is the parent's CLOCK_MONOTONIC reading taken just before it
started this interpreter, so set-up time covers interpreter start, the
package import and writing the chain files.  The round then runs every
operation of the workload once, in order, each as an in-process
``incideals.cli.main`` call with its output captured, and writes its
figures to PATH as JSON.  With `--check 1` the outputs are checked after
the timed section; with `--trace 1` every layer is traced.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that crashes counts as failed
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def completed(kind: str, rc, stdout: str) -> bool:
    """Whether the operation ran to its end.

    `verify` exits 1 when a check prints FAIL; that is a finished operation
    with a wrong answer, which the checks report, not a failed one.
    """
    if rc == 0:
        return True
    return kind == "verify" and rc == 1 and "\nFAIL " in "\n" + stdout


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    import incideals.cli
    import workloads

    size = workloads.FULL if args.size == "full" else workloads.TINY
    inputs = workloads.make_inputs(args.workload, args.seed, size)
    work = os.path.join(os.path.dirname(args.out), f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    paths = {}
    for key, text in inputs.files.items():
        paths[key] = os.path.join(work, f"{key}.chain")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(text)

    tracer = None
    main_fn = incideals.cli.main
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.span("cli.self", main_fn)

    try:
        results = []
        setup_s = time.monotonic() - args.t0
        cpu0 = _cpu()
        start = time.perf_counter()
        for op in inputs.ops:
            argv = [paths[op.file] if a == "{}" else a for a in op.argv]
            t = time.perf_counter()
            rc, out, err = _run_op(main_fn, argv)
            results.append((op, rc, out, err, time.perf_counter() - t))
        wall_s = time.perf_counter() - start
        cpu_s = _cpu() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        done = [completed(op.kind, rc, out) for op, rc, out, _, _ in results]
        report = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "max_op_s": max(r[4] for r in results),
            "attempted": len(results),
            "failed": [f"{op.label}: {rc} {err.strip()}"
                       for (op, rc, _, err, _), ok in zip(results, done) if not ok],
            "ops": {r[0].label: r[4] for r in results},
            "digest": hashlib.sha256(
                repr([(r[0].label, r[1], r[2]) for r in results]).encode()
            ).hexdigest(),
        }
        if tracer is not None:
            tracer.lattice_pass()
            tracer.uninstall()
            report["layers"] = tracer.metrics()
            report["trace_bookkeeping_s"] = tracer.bookkeeping_s
        if args.check:
            from verdict import check_round

            t = time.perf_counter()
            report["problems"] = check_round(inputs, results, completed)
            report["check_s"] = time.perf_counter() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
