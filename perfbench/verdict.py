"""Checks a round's outputs after its timed section has ended.

The CLI output of each completed operation is parsed and handed to the
checks in ``checks``.  Where a check needs a whole Betti table that the
CLI did not print (the series operations print only pd or reg), the
table is taken from ``betti_table`` on the same term, and its pd or reg
must match the printed value before the table itself is checked.
"""
from __future__ import annotations

import random

import checks
from incideals import (
    FieldSpec,
    Monomial,
    MonomialIdeal,
    associated_primes,
    betti_table,
    homology_ranks,
    koszul_complex,
    loads_chain,
    saturation,
    term,
)
from incideals.betti import DEFAULT_LATTICE_CAP

TAYLOR_MAX_GENS = 16
KOSZUL_SAMPLES = 3


def _entries(table) -> list:
    return [(i, dict(a.exps), v) for i, a, v in table.entries]


def _gens(ideal: MonomialIdeal) -> list:
    return [dict(g.exps) for g in ideal.gens]


def _table(ideal: MonomialIdeal, p: int = 32003):
    # the arguments the CLI passes, so that a cached table is reused
    return betti_table(ideal, FieldSpec(p), None, DEFAULT_LATTICE_CAP)


def _series_inc(out: str, text: str) -> list[str]:
    rows, footer = checks.parse_series(out)
    problems = checks.pd_unit_steps(rows, footer)
    chain = saturation(loads_chain(text))
    for n, value in rows:
        ideal = term(chain, n)
        table = _table(ideal)
        if table.pd() != value:
            problems.append(f"width {n}: printed pd {value}, table {table.pd()}")
        if len(ideal.gens) <= TAYLOR_MAX_GENS:
            coeffs = checks.taylor_coefficients(_gens(ideal), n)
            problems += checks.euler_mismatch(coeffs, _entries(table), n)
    return problems


def _series_sym(op, out: str, text: str) -> list[str]:
    (metric,) = op.meta
    rows, _ = checks.parse_series(out)
    chain = loads_chain(text)
    problems = []
    for n, value in rows:
        ideal = term(chain, n)
        table = _table(ideal)
        got = table.pd() if metric == "pd" else table.reg()
        if got != value:
            problems.append(f"width {n}: printed {metric} {value}, table {got}")
        if metric == "reg":
            problems += checks.reg_at_least_degree(n, value, _gens(ideal))
            continue
        entries = _entries(table)
        problems += checks.permutation_invariant(entries, n)
        maximal = any(len(q.vars) == n for q in associated_primes(ideal))
        problems += checks.auslander_buchsbaum(n, value, maximal)
        if len(ideal.gens) <= TAYLOR_MAX_GENS:
            coeffs = checks.taylor_coefficients(_gens(ideal), n)
            problems += checks.euler_mismatch(coeffs, entries, n)
    return problems


def _betti(op, out: str, n: int, gens: list, coeffs: dict) -> list[str]:
    (p,) = op.meta
    entries, footer = checks.parse_betti(out)
    problems = checks.footer_matches(entries, footer, p)
    problems += checks.euler_mismatch(coeffs, entries, n)
    ideal = MonomialIdeal.from_gens(
        [Monomial.from_pairs(g.items(), n) for g in gens], n
    )
    rng = random.Random(op.label)
    with_entries = sorted({checks.dense(a, n) for _, a, _ in entries})
    without = sorted(set(coeffs) - set(with_entries))
    points = rng.sample(with_entries, min(KOSZUL_SAMPLES - 1, len(with_entries)))
    points += rng.sample(without, min(1, len(without)))
    for vec in points:
        a = {i + 1: e for i, e in enumerate(vec) if e}
        ranks = homology_ranks(
            koszul_complex(ideal, Monomial.from_pairs(a.items(), n)), FieldSpec(p)
        )
        problems += checks.koszul_agrees(entries, a, ranks, n)
    return problems


def check_round(inputs, results, completed) -> list[str]:
    """Problems found in the outputs of the completed operations."""
    problems = []
    taylor = {}  # per ideal: its tables in both characteristics share it
    for op, rc, out, _err, _took in results:
        if not completed(op.kind, rc, out):
            continue
        if op.kind == "series_inc":
            found = _series_inc(out, inputs.files[op.file])
        elif op.kind == "series_sym":
            found = _series_sym(op, out, inputs.files[op.file])
        elif op.kind == "verify":
            found = checks.verify_lines(out)
        elif op.kind == "explore":
            found = checks.explore_rows(out, *op.meta)
        else:
            n, gens = inputs.ideals[op.file]
            if op.file not in taylor:
                taylor[op.file] = checks.taylor_coefficients(gens, n)
            found = _betti(op, out, n, gens, taylor[op.file])
        problems += [f"{op.label}: {msg}" for msg in found]
    return problems
