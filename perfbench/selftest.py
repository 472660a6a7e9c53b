"""Self-test of the benchmark.

    python3 perfbench/selftest.py      (from the root of a checkout)

1. Runs every workload at a tiny size through run.py, untraced and traced,
   and checks the shape of the result line.
2. Checks that two seeds give the same traced work counts: the seed must
   change only what the program's work does not depend on.
3. Checks that the pinned corpora are the acceptance suite's chains.
4. Runs the tiny operations in process, checks that their outputs pass,
   then corrupts one output of each kind and checks that it is rejected.
5. Feeds each check a deliberately wrong input.
Exits 0 when everything holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTS, TIMES  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    expect(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exits 0")
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}


def test_runs() -> None:
    want = {0: set(run.END_TO_END), 1: set(TIMES) | set(COUNTS)}
    for workload in workloads.WORKLOADS:
        counts = []
        for seed, trace in ((1, 0), (1, 1), (2, 1)):
            res = bench(workload, seed, trace)
            if not res:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} seed {seed} trace {trace}: {res['correct']} "
                   f"{res['failed']}/{res['attempted']}")
            expect(set(res["metrics"]) == want[trace], f"{workload} trace {trace} metric names")
            if trace:
                counts.append({k: res["metrics"][k]["value"] for k in COUNTS})
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{workload}: seeds 1 and 2 do the same counted work")


def test_corpus() -> None:
    from incideals import RandomChainParams, random_chain

    for s in (*range(1000, 1025), *range(2000, 2015), *range(3000, 3015),
              *range(4000, 4010), *range(5000, 5010)):
        k = s % 1000
        chain = random_chain(RandomChainParams(
            index=k % 3 + 1, num_gens=min(3, k % 3 + 1 + k % 2),
            max_exponent=2, max_degree=4, seed=s))
        r, gens = workloads.corpus_seed(s)
        same = r == chain.index and sorted(map(workloads.mono_text, gens)) == sorted(
            map(str, chain.seed.gens))
        if not same:
            expect(False, f"corpus chain {s} is the acceptance suite's")
            return
    expect(True, "corpus chains are the acceptance suite's")


def _run_tiny(workload: str):
    import tempfile

    from incideals.cli import main as cli_main

    inputs = workloads.make_inputs(workload, 3, workloads.TINY)
    results = []
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as work:
        for op in inputs.ops:
            argv = []
            for a in op.argv:
                if a == "{}":
                    a = os.path.join(work, f"{op.file}.chain")
                    with open(a, "w", encoding="utf-8") as fh:
                        fh.write(inputs.files[op.file])
                argv.append(a)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli_main(argv)
            results.append((op, rc, out.getvalue(), "", 0.0))
    return inputs, results


def _corrupt(kind: str, text: str) -> str:
    lines = text.splitlines()
    if kind in ("series_inc", "series_sym"):
        n, v = lines[2].split(",")  # the second width
        lines[2] = f"{n},{int(v) + 1}"
    elif kind == "verify":
        lines[0] = "FAIL" + lines[0][lines[0].index(" "):]
    elif kind == "explore":
        lines[1] = lines[1].rsplit(",", 1)[0] + ",bogus"
    else:
        i, a, v = lines[1].split(",")  # the first Betti entry
        lines[1] = f"{i},{a},{int(v) + 1}"
    return "\n".join(lines) + "\n"


def test_pipeline() -> None:
    from round import completed
    from verdict import check_round

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in workloads.WORKLOADS:
        inputs, results = _run_tiny(workload)
        expect(check_round(inputs, results, completed) == [],
               f"{workload}: tiny outputs pass every check")
        for kind in sorted({op.kind for op, *_ in results}):
            j = next(j for j, r in enumerate(results) if r[0].kind == kind)
            op, rc, out, err, took = results[j]
            bad = list(results)
            bad[j] = (op, rc, _corrupt(kind, out), err, took)
            found = check_round(inputs, bad, completed)
            expect(bool(found), f"{workload}: a corrupted {kind} output is rejected "
                                f"({found[0] if found else 'not rejected'})")


def test_checks() -> None:
    from incideals import (FieldSpec, Monomial, MonomialIdeal, betti_table,
                           homology_ranks, koszul_complex)

    rows = [(5, 3), (6, 4), (7, 5), (8, 6)]
    fit = {"fit": "slope 1 intercept -2 onset 5"}
    expect(not checks.pd_unit_steps(rows, fit), "pd steps: a unit-step series passes")
    expect(bool(checks.pd_unit_steps([(5, 3), (6, 5), (7, 6), (8, 7)], fit)),
           "pd steps: a series with one step altered fails")
    expect(bool(checks.pd_unit_steps(rows, {"fit": "slope 2 intercept -7 onset 5"})),
           "pd steps: a fit of slope 2 fails")
    expect(bool(checks.pd_unit_steps([(3, 3)], {"fit": "slope 1 intercept 0 onset 3"})),
           "pd steps: pd(n) = n fails")

    n = 3
    gens = [{1: 2}, {1: 1, 2: 1}, {2: 1, 3: 2}, {3: 3}]
    ideal = MonomialIdeal.from_gens(
        [Monomial.from_pairs(g.items(), n) for g in gens], n)
    entries = [(i, dict(a.exps), v) for i, a, v in betti_table(ideal).entries]
    coeffs = checks.taylor_coefficients(gens, n)
    expect(not checks.euler_mismatch(coeffs, entries, n), "euler: a true table passes")
    i, a, v = entries[-1]
    bad = entries[:-1] + [(i, a, v + 1)]
    expect(bool(checks.euler_mismatch(coeffs, bad, n)), "euler: one entry changed fails")
    expect(bool(checks.footer_matches(entries, {"pd": 7, "reg": 0, "char": 32003}, 32003)),
           "footer: a wrong pd fails")
    ranks = homology_ranks(koszul_complex(ideal, Monomial.from_pairs(a.items(), n)),
                           FieldSpec(32003))
    expect(not checks.koszul_agrees(entries, a, ranks, n), "koszul: a true entry passes")
    expect(bool(checks.koszul_agrees(bad, a, ranks, n)), "koszul: a changed entry fails")

    sym = [(0, {1: 1, 2: 1}, 1), (0, {1: 1, 3: 1}, 1), (0, {2: 1, 3: 1}, 1)]
    expect(not checks.permutation_invariant(sym, 3), "sym: an invariant table passes")
    expect(bool(checks.permutation_invariant(sym[:2], 3)),
           "sym: a table missing one degree of an orbit fails")
    expect(bool(checks.permutation_invariant(sym[:2] + [(0, {2: 1, 3: 1}, 2)], 3)),
           "sym: a table with one value changed fails")
    expect(bool(checks.auslander_buchsbaum(4, 3, False)), "AB: pd n-1 without m fails")
    expect(bool(checks.auslander_buchsbaum(4, 2, True)), "AB: m without pd n-1 fails")
    expect(bool(checks.reg_at_least_degree(4, 2, [{1: 3}])), "reg below a degree fails")
    ok = "PASS a\nPASS b\nNA   c (x)\nPASS d\nPASS e\n"
    expect(not checks.verify_lines(ok), "verify: PASS and NA lines pass")
    expect(bool(checks.verify_lines(ok.replace("PASS b", "FAIL b"))), "verify: FAIL fails")
    expect(bool(checks.verify_lines("PASS a\n")), "verify: a missing check fails")


def main() -> int:
    test_checks()
    test_corpus()
    test_pipeline()
    test_runs()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
