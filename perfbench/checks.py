"""Correctness checks on the outputs of the timed operations.

Every check takes plain data (parsed CLI output, generator lists, Betti
entries) and returns a list of failure messages, empty when the check
holds.  None of them calls the package's Betti code: the references are
Taylor inclusion-exclusion computed here, the reduced homology of the upper
Koszul complex (``simplicial.homology_ranks``), associated primes and
permutation counts, so a corrupted output can be fed to each check in the
self-test.

A Betti entry is (i, multidegree, value) with the multidegree a dict
{variable: exponent}, as in ``workloads``.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from workloads import Mono, parse_mono


# -- parsing the CLI's output ---------------------------------------------

def parse_series(text: str) -> tuple[list[tuple[int, int]], dict[str, str]]:
    """(n, value) rows and the '# key value ...' footer lines of `series`."""
    rows, footer = [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, rest = line[1:].strip().partition(" ")
            footer[key] = rest
        elif line and line != "n,value":
            n, v = line.split(",")
            rows.append((int(n), int(v)))
    return rows, footer


def parse_betti(text: str) -> tuple[list[tuple[int, Mono, int]], dict[str, int]]:
    """Entries and the '# pd P reg R char C' footer of `betti`."""
    entries, footer = [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            words = line[1:].split()
            footer = {k: int(v) for k, v in zip(words[::2], words[1::2])}
        elif line and line != "i,multidegree,value":
            i, a, v = line.split(",")
            entries.append((int(i), parse_mono(a), int(v)))
    return entries, footer


def dense(a: Mono, n: int) -> tuple[int, ...]:
    return tuple(a.get(i, 0) for i in range(1, n + 1))


# -- checks ----------------------------------------------------------------

def pd_unit_steps(rows: list[tuple[int, int]], footer: dict[str, str]) -> list[str]:
    """pd along a saturated Inc chain: +1 per width, pd(n) <= n - 1, and
    the reported tail fit has slope 1."""
    out = []
    for (n, a), (_, b) in zip(rows, rows[1:]):
        if b != a + 1:
            out.append(f"pd({n + 1}) = {b} after pd({n}) = {a}")
    out += [f"pd({n}) = {v} > {n - 1}" for n, v in rows if v > n - 1]
    if not footer.get("fit", "").startswith("slope 1 "):
        out.append(f"fit is {footer.get('fit')!r}, not slope 1")
    return out


def taylor_coefficients(gens: list[Mono], n: int) -> dict[tuple[int, ...], int]:
    """Coefficient of x^a in sum over nonempty generator subsets S of
    (-1)^(|S|+1) x^lcm(S), for every lcm a (zero coefficients included)."""
    g = len(gens)
    mat = np.array([dense(u, n) for u in gens], dtype=np.int64)
    lcms = np.zeros((1 << g, n), dtype=np.int64)
    parity = np.zeros(1 << g, dtype=np.int64)
    for b in range(g):
        lcms[1 << b : 1 << (b + 1)] = np.maximum(lcms[: 1 << b], mat[b])
        parity[1 << b : 1 << (b + 1)] = 1 - parity[: 1 << b]
    rows, inverse = np.unique(lcms[1:], axis=0, return_inverse=True)
    coeffs = np.zeros(len(rows), dtype=np.int64)
    np.add.at(coeffs, inverse.ravel(), 2 * parity[1:] - 1)
    return {tuple(int(x) for x in row): int(c) for row, c in zip(rows, coeffs)}


def euler_mismatch(
    coeffs: dict[tuple[int, ...], int], entries: list[tuple[int, Mono, int]], n: int
) -> list[str]:
    """Alternating Betti sums per multidegree against Taylor coefficients."""
    alternating: Counter = Counter()
    for i, a, v in entries:
        alternating[dense(a, n)] += v if i % 2 == 0 else -v
    out = []
    for a in set(alternating) | set(coeffs):
        if alternating.get(a, 0) != coeffs.get(a, 0):
            out.append(f"euler at {a}: table {alternating.get(a, 0)}, "
                       f"taylor {coeffs.get(a, 0)}")
    return sorted(out)[:5]


def pd_reg_of(entries: list[tuple[int, Mono, int]]) -> tuple[int, int]:
    return (max(i for i, _, _ in entries),
            max(sum(a.values()) - i for i, a, _ in entries))


def footer_matches(entries, footer: dict[str, int], p: int) -> list[str]:
    pd, reg = pd_reg_of(entries)
    want = {"pd": pd, "reg": reg, "char": p}
    return [f"footer {k} {footer.get(k)} != {v}" for k, v in want.items()
            if footer.get(k) != v]


def permutation_invariant(entries: list[tuple[int, Mono, int]], n: int) -> list[str]:
    """Each S_n-orbit of multidegrees is present in full with one value."""
    groups: dict = {}
    for i, a, v in entries:
        vec = dense(a, n)
        groups.setdefault((i, tuple(sorted(vec))), []).append(v)
    out = []
    for (i, vec), values in groups.items():
        orbit = math.factorial(n)
        for m in Counter(vec).values():
            orbit //= math.factorial(m)
        if len(values) != orbit or len(set(values)) != 1:
            out.append(f"beta_{i} on the orbit of {vec}: {len(values)} of "
                       f"{orbit} degrees, values {sorted(set(values))}")
    return out[:5]


def auslander_buchsbaum(n: int, pd: int, max_ideal_associated: bool) -> list[str]:
    """pd I = n - 1 exactly when depth S/I = 0, i.e. when the maximal ideal
    is an associated prime."""
    if (pd == n - 1) != max_ideal_associated:
        return [f"width {n}: pd {pd} but maximal ideal associated: "
                f"{max_ideal_associated}"]
    return []


def reg_at_least_degree(n: int, reg: int, gens: list[Mono]) -> list[str]:
    top = max(sum(g.values()) for g in gens)
    return [f"width {n}: reg {reg} < generator degree {top}"] if reg < top else []


def koszul_agrees(
    entries: list[tuple[int, Mono, int]], a: Mono, ranks: dict[int, int], n: int
) -> list[str]:
    """beta_{i,a} = dim H~_{i-1} of the upper Koszul complex at a."""
    at_a = {i: v for i, b, v in entries if dense(b, n) == dense(a, n)}
    out = []
    for i in range(n + 1):
        if at_a.get(i, 0) != ranks.get(i - 1, 0):
            out.append(f"beta_{i} at {dense(a, n)}: table {at_a.get(i, 0)}, "
                       f"homology {ranks.get(i - 1, 0)}")
    return out


def verify_lines(text: str, checks: int = 5) -> list[str]:
    lines = text.splitlines()
    out = [f"verify printed {line!r}" for line in lines
           if not line.startswith(("PASS ", "NA "))]
    if len(lines) != checks:
        out.append(f"verify printed {len(lines)} lines, not {checks}")
    return out


def explore_rows(text: str, count: int, seed: int) -> list[str]:
    lines = text.splitlines()
    header = "seed,r,gens,w,lambda,q,pd_slope,pd_onset,reg_slope,reg_onset,status"
    if not lines or lines[0] != header:
        return ["explore header missing"]
    out = []
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(seed, seed + count)):
        out.append(f"explore rows for seeds {[r[0] for r in rows]}")
    for r in rows:
        if len(r) != 11 or r[10] not in ("ok", "partial", "undetermined"):
            out.append(f"explore row {r}")
    return out
