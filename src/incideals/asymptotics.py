"""Asymptotic behavior of invariants along chains: series, fits, checks.

The eventual pattern for projective dimension and regularity along a
saturated chain is linear in the width.  This module samples invariant
series over a window, detects the exactly affine tail, and packages the
structural predictions (slopes, recursions, Betti propagation) as
individually reportable checks.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .betti import (
    DEFAULT_GEN_CAP,
    DEFAULT_LATTICE_CAP,
    _differences,
    betti_table,
    pd,
)
from .chains import (
    Chain,
    ChainInvariants,
    OrbitChain,
    Symmetry,
    chain_invariants,
    colon_filtration,
    colon_filtration_term,
    m_saturation,
    term,
    window_saturated,
)
from .errors import CapExceeded, ImproperIdeal
from .gflinalg import DEFAULT_FIELD, FieldSpec
from .monomials import Monomial, MonomialIdeal, minimalize, q_invariant
from .primes import associated_primes

__all__ = [
    "LinearFit",
    "detect_linear",
    "SeriesReport",
    "series",
    "SERIES_METRICS",
    "RandomChainParams",
    "random_chain",
    "CheckResult",
    "check_pd_linearity",
    "check_reg_slope",
    "check_betti_propagation",
    "check_msat_identities",
    "check_colon_filtration",
]


# -- linear tail detection --------------------------------------------------

@dataclass(frozen=True)
class LinearFit:
    """value = slope * n + intercept, exact from width `onset` on."""

    slope: int | Fraction
    intercept: int | Fraction
    onset: int


def detect_linear(points: list[tuple[int, int]]) -> LinearFit | None:
    """Fit the longest exactly affine suffix; None if under four points.

    Points are (n, value) with strictly increasing n.  The suffix is grown
    backwards from the last pair for as long as the points stay exactly on
    the line through the final two.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    ns = [n for n, _ in points]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("widths must be strictly increasing")
    (n1, v1), (n2, v2) = points[-2], points[-1]
    slope = Fraction(v2 - v1, n2 - n1)
    start = len(points) - 2
    while start > 0:
        n0, v0 = points[start - 1]
        if v2 - v0 != slope * (n2 - n0):
            break
        start -= 1
    if len(points) - start < 4:
        return None
    intercept = v2 - slope * n2
    if slope.denominator == 1:
        slope = int(slope)
    if isinstance(intercept, Fraction) and intercept.denominator == 1:
        intercept = int(intercept)
    return LinearFit(slope=slope, intercept=intercept, onset=points[start][0])


# -- invariant series -------------------------------------------------------

def _metric_value(
    ideal: MonomialIdeal,
    metric: str,
    field: FieldSpec,
    gen_cap: int | None,
    lattice_cap: int,
) -> int:
    if metric == "gens":
        return len(ideal.gens)
    if metric == "ass_primes":
        return len(associated_primes(ideal))
    if metric == "pd" and ideal.is_proper:
        return pd(ideal, field, gen_cap, lattice_cap)
    table = betti_table(ideal, field, gen_cap, lattice_cap)
    if metric == "pd":
        return table.pd()  # the unit ideal's one-entry table: `pd` rejects it
    if metric == "reg":
        return table.reg()
    if metric == "betti_total":
        return sum(table.totals().values())
    raise ValueError(f"unknown metric {metric!r}")


SERIES_METRICS = ("pd", "reg", "gens", "betti_total", "ass_primes")


@dataclass(frozen=True)
class SeriesReport:
    metric: str
    char: int
    values: tuple[tuple[int, int], ...]
    fit: LinearFit | None
    status: str  # "linear" | "undetermined"
    truncated: str | None = None


def series(
    chain: Chain,
    metric: str,
    n_from: int,
    n_to: int,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    budget: float | None = None,
) -> SeriesReport:
    """Sample a metric over widths [n_from, n_to] and fit the linear tail.

    A CapExceeded at some width truncates the series there; the report
    keeps the earlier values and records the reason.  With a budget, the
    series also stops after the first term whose computation alone took
    longer than `budget` seconds.  The widths run in order, so each one can
    read the rows it shares with the previous width from that width's walk.
    """
    if metric not in SERIES_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not chain.index <= n_from <= n_to:
        raise ValueError(
            f"need index <= n_from <= n_to, got {chain.index}, {n_from}, {n_to}"
        )
    values: list[tuple[int, int]] = []
    truncated: str | None = None
    for n in range(n_from, n_to + 1):
        t0 = time.perf_counter()
        try:
            value = _metric_value(term(chain, n), metric, field, gen_cap, lattice_cap)
        except CapExceeded as exc:
            truncated = str(exc)
            break
        values.append((n, value))
        if budget is not None and time.perf_counter() - t0 > budget:
            if n < n_to:
                truncated = f"budget: width {n} took over {budget:g}s"
            break
    fit = detect_linear(values) if len(values) >= 2 else None
    status = "linear" if fit is not None else "undetermined"
    return SeriesReport(
        metric=metric,
        char=field.p,
        values=tuple(values),
        fit=fit,
        status=status,
        truncated=truncated,
    )


# -- random chain corpora ---------------------------------------------------

@dataclass(frozen=True)
class RandomChainParams:
    index: int
    num_gens: int
    max_exponent: int
    max_degree: int
    seed: int
    symmetry: Symmetry = Symmetry.INC


def random_chain(params: RandomChainParams) -> OrbitChain:
    """A reproducible random orbit chain.

    Each generator picks a nonempty support inside [index], then positive
    exponents up to max_exponent, resampling while the degree exceeds
    max_degree.  The generator list is minimalized; if that collapses to
    the unit ideal the whole ideal is resampled.
    """
    if params.index < 1 or params.num_gens < 1:
        raise ValueError("index and num_gens must be positive")
    if params.max_exponent < 1 or params.max_degree < 1:
        raise ValueError("max_exponent and max_degree must be positive")
    rng = random.Random(params.seed)
    r = params.index
    while True:
        gens = []
        for _ in range(params.num_gens):
            while True:
                size = rng.randint(1, r)
                supp = sorted(rng.sample(range(1, r + 1), size))
                exps = tuple(
                    (i, rng.randint(1, params.max_exponent)) for i in supp
                )
                u = Monomial(exps, r)
                if u.degree <= params.max_degree:
                    gens.append(u)
                    break
        ideal = minimalize(gens, r)
        if ideal.is_proper:
            return OrbitChain(seed=ideal, index=r, symmetry=params.symmetry)


# -- structural checks ------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural check.

    applicable=False means the chain is outside the check's hypotheses;
    holds is then True by convention so that only genuine counterexamples
    fail.  details carries the sampled evidence.
    """

    name: str
    applicable: bool
    holds: bool
    details: dict = field(compare=False)


def check_pd_linearity(
    chain: Chain,
    horizon: int = 6,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> CheckResult:
    """Projective dimension along a saturated chain: growth and the tail line.

    Checks pd(n+1) >= pd(n) + 1 and pd(n) <= n - 1 over the window, and
    that the window pins down an affine tail of slope exactly 1, so
    pd(n) = n - d eventually; d - 1 is reported as the limiting depth.
    When the growth checks hold but the affine tail has fewer than the four
    points `detect_linear` needs, the window is too short: the result is
    not applicable rather than a failure, and so is a chain whose seed term
    is the unit ideal, where every pd is 0.
    """
    name = "pd_linearity"
    r = chain.index
    applicable = window_saturated(chain, horizon)
    if not applicable:
        inv = chain_invariants(chain)
        applicable = inv.quasi_saturated
    if not applicable:
        return CheckResult(name, False, True, {"reason": "chain not saturated"})
    pts = []
    for n in range(r, r + horizon + 1):
        t = term(chain, n)
        if not t.is_proper:  # the seed; a chain with a proper seed stays proper
            return CheckResult(name, False, True, {"reason": "improper seed"})
        pts.append((n, _metric_value(t, "pd", field, gen_cap, lattice_cap)))
    increments_ok = all(b >= a + 1 for (_, a), (_, b) in zip(pts, pts[1:]))
    bound_ok = all(v <= n - 1 for n, v in pts)
    fit = detect_linear(pts) if len(pts) >= 2 else None
    details: dict = {"values": pts, "fit": fit}
    if fit is None and increments_ok and bound_ok:
        details["reason"] = "window too short: affine tail under 4 points"
        return CheckResult(name, False, True, details)
    slope_ok = fit is not None and fit.slope == 1
    if slope_ok:
        d = -int(fit.intercept)
        details["d"] = d
        details["depth"] = d - 1
    return CheckResult(
        name, True, increments_ok and bound_ok and slope_ok, details
    )


def check_reg_slope(
    chain: Chain,
    horizon: int = 6,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> CheckResult:
    """Regularity growth against the predicted limit slope w - 1.

    Always reports slope evidence: tail increment range, the offset
    max(reg - (w-1) n), and whether |reg(n)/n - (w-1)| is non-increasing
    over the last four widths.  The only hard assertion: for a
    quasi-saturated chain whose last-variable weight reaches w, the final
    increment must equal w - 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    name = "reg_slope"
    r = chain.index
    try:
        inv = chain_invariants(chain)
    except ImproperIdeal:  # the seed term is the unit ideal, and so every term
        return CheckResult(name, False, True, {"reason": "improper seed"})
    w = inv.w
    pts = [
        (n, _metric_value(term(chain, n), "reg", field, gen_cap, lattice_cap))
        for n in range(r, r + horizon + 1)
    ]
    increments = [b - a for (_, a), (_, b) in zip(pts, pts[1:])]
    tail = increments[-4:] if len(increments) >= 4 else increments
    ratios = [abs(Fraction(v, n) - (w - 1)) for n, v in pts[-4:]]
    consistent = all(b <= a for a, b in zip(ratios, ratios[1:]))
    offset = max(v - (w - 1) * n for n, v in pts)
    details = {
        "values": pts,
        "increments": increments,
        "slope_lower": min(tail),
        "slope_upper": max(tail),
        "offset": offset,
        "ratio_consistent": consistent,
        "w": w,
    }
    hard = inv.quasi_saturated and inv.lambda_maximal
    if not hard:
        details["reason"] = "slope asserted only when quasi-saturated and lambda-maximal"
        return CheckResult(name, False, True, details)
    holds = increments[-1] == w - 1
    return CheckResult(name, True, holds, details)


def check_betti_propagation(
    chain: Chain,
    n: int,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> CheckResult:
    """Every Betti degree of term n seeds one of term n+1, one step up.

    For beta_{i,a}(I_n) nonzero with t = maxsupp(a): the top exponent a_t
    is at least lambda, and for some lambda <= p <= a_t the degree
    a * x_{t+1}^p carries beta_{i+1} of I_{n+1}.  Applies to saturated
    chains with an exact lambda certificate.
    """
    name = "betti_propagation"
    if n < chain.index:
        raise ValueError("width below the chain index")
    if not window_saturated(chain, n - chain.index + 1):
        return CheckResult(name, False, True, {"reason": "chain not saturated"})
    try:
        inv = chain_invariants(chain)
    except ImproperIdeal:  # the seed term is the unit ideal, and so every term
        return CheckResult(name, False, True, {"reason": "improper seed"})
    if not inv.lambda_exact:
        return CheckResult(
            name, False, True, {"reason": "lambda certificate inconclusive"}
        )
    lam = inv.lambda_
    t1 = betti_table(term(chain, n), field, gen_cap, lattice_cap)
    t2 = betti_table(term(chain, n + 1), field, gen_cap, lattice_cap)
    degrees2, rows2, _ = t2.expanded
    degrees = set(zip(degrees2.tolist(), map(tuple, rows2.tolist())))
    failures = []
    degrees1, rows1, _ = t1.expanded
    for i, a in zip(degrees1.tolist(), rows1.tolist()):
        t = max((j for j, e in enumerate(a, 1) if e), default=0)  # maxsupp(a)
        a_t = a[t - 1] if t else 0
        if a_t < lam:
            failures.append((i, str(Monomial.from_dense(a)), "top exponent below lambda"))
            continue
        # a * x_{t+1}^p puts p in the zero column t+1 of a, widened by one
        head, tail = tuple(a[:t]), tuple(a[t:])
        found = any(
            (i + 1, head + (p,) + tail) in degrees for p in range(lam, a_t + 1)
        )
        if not found:
            failures.append((i, str(Monomial.from_dense(a)), "no successor degree"))
    details = {"checked": len(degrees1), "failures": failures, "lambda": lam}
    return CheckResult(name, True, not failures, details)


def check_msat_identities(
    chain: Chain,
    m: int,
    horizon: int = 3,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> CheckResult:
    """Recursions tying the m-saturation's resolution to its base chain.

    For J the m-saturation of I and widths n with I_{n-1} nonzero:
    beta_{i,(a,m)}(J_n) = beta_{i,a}(I_{n-1}) + beta_{i-1,a}(J_{n-1}),
    reg J_n = max(reg I_{n-1} + m, reg J_{n-1} + m - 1) (second branch
    absent while J_{n-1} is zero), lambda(J) = m, w(J) = max(m, w(I)),
    and m >= w(I) forces lambda-maximality.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    name = "msat_identities"
    msat = m_saturation(chain, m)
    r0 = chain.index
    failures = []
    recursion_widths = []
    for n in range(max(2, r0 + 1), msat.index + horizon + 1):
        prev_base = term(chain, n - 1)
        if not prev_base.is_proper:  # the seed: a proper one keeps every term proper
            return CheckResult(name, False, True, {"reason": "improper seed"})
        jn = term(msat, n)
        jn1 = term(msat, n - 1)
        recursion_widths.append(n)
        tj = betti_table(jn, field, gen_cap, lattice_cap)
        ti = betti_table(prev_base, field, gen_cap, lattice_cap)
        tj1 = (
            betti_table(jn1, field, gen_cap, lattice_cap)
            if not jn1.is_zero
            else None
        )
        # x_n is the last column: the degrees (a, m) of J_n, with m dropped
        degrees, rows, dims = tj.expanded
        top = rows[:, -1] == m
        right = [ti.expanded]
        if tj1 is not None:
            degrees1, rows1, dims1 = tj1.expanded
            right.append((degrees1 + 1, rows1, dims1))
        failures += [
            (n, *wrong)
            for wrong in _differences([(degrees[top], rows[top, :-1], dims[top])], right)
        ]
        expected = ti.reg() + m
        if tj1 is not None:
            expected = max(expected, tj1.reg() + m - 1)
        if tj.reg() != expected:
            failures.append((n, "reg", tj.reg(), expected))
    inv_base = chain_invariants(chain)
    jw = term(msat, msat.index).weights()
    if jw.lambda_ != m:
        failures.append(("lambda", jw.lambda_, m))
    if jw.w != max(m, inv_base.w):
        failures.append(("w", jw.w, max(m, inv_base.w)))
    lam_max_forced = m >= inv_base.w
    if lam_max_forced:
        inv_msat = chain_invariants(msat, horizon=horizon)
        if not inv_msat.lambda_maximal:
            failures.append(("lambda_maximal", False))
    details = {
        "widths": recursion_widths,
        "failures": failures,
        "m": m,
        "lambda_maximal_forced": lam_max_forced,
    }
    return CheckResult(name, True, not failures, details)


def check_colon_filtration(
    chain: Chain,
    e: int,
    horizon: int = 3,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> CheckResult:
    """The colon filtration against its definitional terms and invariants.

    Verifies that the derived orbit chain reproduces the definitional
    colon terms over the window, that its q does not exceed the base q
    (with equality exactly when the base is quasi-saturated and
    e <= lambda - 1), that w is preserved for e <= w - 1, and that each
    base term's regularity dominates the derived term's.
    """
    name = "colon_filtration"
    if chain.symmetry is not Symmetry.INC:
        return CheckResult(name, False, True, {"reason": "not an increasing chain"})
    seed = term(chain, chain.index)
    if not seed.is_proper:
        return CheckResult(name, False, True, {"reason": "improper seed"})
    try:
        derived = colon_filtration(chain, e)
    except ImproperIdeal as exc:
        return CheckResult(name, False, True, {"reason": str(exc)})
    inv = chain_invariants(chain)
    r = chain.index
    failures = []
    for n in range(r + 1, r + 1 + horizon + 1):
        if term(derived, n) != colon_filtration_term(chain, e, n):
            failures.append(("term", n))
    dseed = term(derived, derived.index)
    q_base = inv.q
    q_derived = q_invariant(dseed)
    if q_derived > q_base:
        failures.append(("q_bound", q_derived, q_base))
    q_equal = q_derived == q_base
    expect_equal = inv.quasi_saturated and e <= inv.lambda_ - 1
    if q_equal != expect_equal:
        failures.append(("q_equality", q_equal, expect_equal))
    w_derived = None
    if not dseed.is_unit:
        w_derived = dseed.weights().w
        if w_derived > inv.w:
            failures.append(("w_bound", w_derived, inv.w))
        if e <= inv.w - 1 and w_derived != inv.w:
            failures.append(("w_equality", w_derived, inv.w))
    reg_pairs = []
    for n in range(r + 1, r + 1 + horizon + 1):
        base_t = term(chain, n)
        der_t = term(derived, n)
        if not base_t.is_proper or not der_t.is_proper:
            continue
        rb = betti_table(base_t, field, gen_cap, lattice_cap).reg()
        rd = betti_table(der_t, field, gen_cap, lattice_cap).reg()
        reg_pairs.append((n, rb, rd))
        if rb < rd:
            failures.append(("reg_domination", n, rb, rd))
    details = {
        "failures": failures,
        "q": (q_derived, q_base),
        "w": (w_derived, inv.w),
        "reg_pairs": reg_pairs,
        "lambda_exact": inv.lambda_exact,
    }
    return CheckResult(name, True, not failures, details)
