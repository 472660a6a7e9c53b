"""Acceptance gate: thirteen end-to-end criteria, one test each.

Every assertion is an exact integer or set equality; there are no float
tolerances anywhere.  Each test measures its own wall time and enforces
the stated budget, so a pass line in `pytest -v` certifies both the
values and the runtime.  Random corpora are frozen by explicit seeds.
"""

import random
import time

from conftest import ideal, mono

from incideals import (
    DEFAULT_FIELD,
    FieldSpec,
    MonomialIdeal,
    RandomChainParams,
    SaturationChain,
    associated_primes,
    associated_primes_brute,
    betti_table,
    chain_invariants,
    check_betti_propagation,
    check_colon_filtration,
    check_msat_identities,
    check_reg_slope,
    detect_linear,
    euler_consistency,
    inc_orbit,
    inc_orbit_by_shifts,
    m_saturation,
    minimalize,
    pd,
    q_invariant,
    random_chain,
    reg,
    series,
    term,
)
from incideals.chains import OrbitChain


def _finish(num, started, budget, note=""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {num:02d} ({elapsed:.2f}s of {budget}s){' ' if note else ''}{note}")


def _corpus_chain(seed_val):
    # shared recipe for all random-chain criteria: index and generator
    # count cycle with the seed so the corpus spans r = 1..3
    k = seed_val % 1000
    params = RandomChainParams(
        index=(k % 3) + 1,
        num_gens=min(3, (k % 3) + 1 + (k % 2)),
        max_exponent=2,
        max_degree=4,
        seed=seed_val,
    )
    return random_chain(params)


def _random_ideal(rng, max_gens, ambient_hi, exp_hi):
    while True:
        ambient = rng.randint(2, ambient_hi)
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = mono([(i, rng.randint(0, exp_hi)) for i in range(1, ambient + 1)], ambient)
            if g.degree > 0:
                gens.append(g)
        if gens:
            candidate = minimalize(gens, ambient)
            if candidate.is_proper:
                return candidate


def test_criterion_01_generator_weights_golden():
    """lambda = 1 and w = 3 for <x1^4*x2, x1^3*x3^2>, exact. Budget 5 s."""
    started = time.monotonic()
    weights = ideal([[(1, 4), (2, 1)], [(1, 3), (3, 2)]], 3).weights()
    assert weights.lambda_ == 1
    assert weights.w == 3
    _finish(1, started, 5, "lambda=1 w=3")


def test_criterion_02_q_invariant_golden():
    """q = 2 for <x1^2> in width 2, exact. Budget 5 s."""
    started = time.monotonic()
    assert q_invariant(ideal([[(1, 2)]], 2)) == 2
    _finish(2, started, 5, "q=2")


def test_criterion_03_chain_lambda_exceeds_seed(mixed_squares_chain):
    """Chain lambda = 2 strictly above the seed term's lambda = 1, with the
    stabilization certificate that the window reached w. Budget 1 s."""
    started = time.monotonic()
    inv = chain_invariants(mixed_squares_chain)
    seed_lambda = term(mixed_squares_chain, 3).weights().lambda_
    assert inv.lambda_ == 2
    assert seed_lambda == 1
    assert inv.lambda_ > seed_lambda
    assert inv.lambda_certificate == "reached_w"
    assert inv.lambda_exact
    _finish(3, started, 1, "chain lambda=2 > seed lambda=1, certificate reached_w")


def test_criterion_04_two_block_series_both_chars(two_block_chain):
    """pd over widths 6..8 is (5, 3, 5) and reg is (5, 3, 3), exact, over
    GF(32003) and GF(2). Budget 60 s."""
    started = time.monotonic()
    expected = {6: (5, 5), 7: (3, 3), 8: (5, 3)}
    for p in (32003, 2):
        fld = FieldSpec(p)
        for n, (pd_exp, reg_exp) in expected.items():
            table = betti_table(term(two_block_chain, n), fld, gen_cap=None,
                                lattice_cap=2_000_000)
            assert table.pd() == pd_exp, (p, n)
            assert table.reg() == reg_exp, (p, n)
    _finish(4, started, 60, "pd (5,3,5), reg (5,3,3) in both characteristics")


def test_criterion_05_power_chain_reg_lines():
    """reg term(n) follows (w-1)n + 1 + (r-1)(s-2w+1) exactly: the width-2
    seed <x1*x2^2, x2^3> gives n + 1 for n = 2..8 and the width-3 seed
    <x1*x3^3, x3^7> gives 2n + 5 for n = 4..8. Budget 120 s."""
    started = time.monotonic()
    low = OrbitChain(index=2, seed=ideal([[(1, 1), (2, 2)], [(2, 3)]], 2))
    for n in range(2, 9):
        assert reg(term(low, n), DEFAULT_FIELD, gen_cap=None,
                   lattice_cap=2_000_000) == n + 1, n
    high = OrbitChain(index=3, seed=ideal([[(1, 1), (3, 3)], [(3, 7)]], 3))
    for n in range(4, 9):
        assert reg(term(high, n), DEFAULT_FIELD, gen_cap=None,
                   lattice_cap=2_000_000) == 2 * n + 5, n
    _finish(5, started, 120, "reg = n+1 (w=2 seed) and 2n+5 (w=3 seed)")


def test_criterion_06_m_saturation_goldens(mixed_squares_chain):
    """Terms 4 and 5 of the m-saturation match the expected generator sets
    verbatim for m = 1, 2, 3. Budget 5 s."""
    started = time.monotonic()
    for m in (1, 2, 3):
        derived = m_saturation(mixed_squares_chain, m)
        expected_4 = ideal(
            [[(1, 2), (4, m)], [(2, 2), (3, 1), (4, m)], [(3, 2), (4, m)]], 4)
        expected_5 = ideal(
            [[(1, 2), (4, m)], [(2, 2), (3, 1), (4, m)], [(3, 2), (4, m)]]
            + [[(i, 2), (5, m)] for i in range(1, 5)], 5)
        assert term(derived, 4) == expected_4, m
        assert term(derived, 5) == expected_5, m
        assert len(term(derived, 5).gens) == 7, m
    _finish(6, started, 5, "J4 3 generators, J5 7 generators, m in {1,2,3}")


def test_criterion_07_pd_unit_steps_on_saturated_chains():
    """For 25 seeded random saturated chains (r <= 3, <= 3 generators,
    exponents <= 2), pd(term(n+1)) = pd(term(n)) + 1 exactly for every n
    in [r+2, r+7], and detect_linear reports slope 1. Budget 240 s."""
    started = time.monotonic()
    for k in range(25):
        chain = SaturationChain(_corpus_chain(1000 + k))
        r = chain.index
        points = [
            (n, pd(term(chain, n), DEFAULT_FIELD, gen_cap=None,
                   lattice_cap=2_000_000))
            for n in range(r + 2, r + 9)
        ]
        for (n, a), (_, b) in zip(points, points[1:]):
            assert b == a + 1, (k, n, points)
        fit = detect_linear(points)
        assert fit is not None and fit.slope == 1, (k, points)
    _finish(7, started, 240, "25 chains, 6 unit steps each, slope 1")


def test_criterion_08_betti_propagation_on_saturated_chains():
    """Betti-degree propagation (last-exponent lower bound and successor
    nonvanishing one homological step up) holds at widths r and r+1 for
    15 seeded random saturated chains. Budget 180 s."""
    started = time.monotonic()
    for k in range(15):
        chain = SaturationChain(_corpus_chain(2000 + k))
        for n in (chain.index, chain.index + 1):
            res = check_betti_propagation(chain, n)
            assert res.applicable, (k, n, res.details)
            assert res.holds, (k, n, res.details)
    _finish(8, started, 180, "15 chains at widths r and r+1")


def test_criterion_09_colon_filtration_invariants():
    """On 15 seeded random chains and e in {0, 1, w-1}: the derived chain
    has index r+1, its q never exceeds the base q with equality exactly
    for quasi-saturated bases at small e, w is preserved for e <= w-1,
    and reg of each base term dominates the derived term. Budget 180 s."""
    started = time.monotonic()
    applicable = 0
    for k in range(15):
        chain = _corpus_chain(3000 + k)
        w = term(chain, chain.index).weights().w
        for e in sorted({0, 1, w - 1}):
            res = check_colon_filtration(chain, e)
            assert res.holds, (k, e, res.details)
            applicable += res.applicable
    assert applicable > 0
    _finish(9, started, 180, f"15 chains x 3 exponents, {applicable} applicable")


def test_criterion_10_m_saturation_recursions():
    """Betti recursion at multidegrees ending in exponent m and the reg
    recursion hold for 10 seeded random chains with m in {1, 2, w}, over
    widths up to r+5. Budget 180 s."""
    started = time.monotonic()
    applicable = 0
    for k in range(10):
        chain = _corpus_chain(4000 + k)
        w = term(chain, chain.index).weights().w
        for m in sorted({1, 2, w}):
            res = check_msat_identities(chain, m, horizon=3)
            assert res.holds, (k, m, res.details)
            applicable += res.applicable
    assert applicable > 0
    _finish(10, started, 180, f"10 chains x m choices, {applicable} applicable")


def test_criterion_11_oracle_equivalences():
    """(a) direct orbit enumeration agrees with iterated single-gap shifts
    on 200 random monomials; (b) alternating Betti sums match the
    inclusion-exclusion lcm count on 50 random ideals; (c) the prime
    splitting agrees with the colon-divisor oracle on 30 random ideals
    with <= 4 generators. Budget 120 s."""
    started = time.monotonic()
    rng = random.Random(7000)
    for _ in range(200):
        m = rng.randint(1, 5)
        u = mono([(i, rng.randint(0, 2)) for i in range(1, m + 1)], m)
        n = m + rng.randint(0, 3)
        assert inc_orbit(u, m, n) == inc_orbit_by_shifts(u, m, n), (u, m, n)
    rng = random.Random(7100)
    for _ in range(50):
        assert euler_consistency(_random_ideal(rng, 6, 5, 3))
    rng = random.Random(7200)
    for _ in range(30):
        candidate = _random_ideal(rng, 4, 4, 3)
        assert associated_primes(candidate) == associated_primes_brute(candidate)
    _finish(11, started, 120, "orbits x200, euler x50, primes x30")


def test_criterion_12_reg_slope_limit_evidence():
    """For 10 seeded random chains the reg/width ratio evidence is
    recorded (|reg(n)/n - (w-1)| over the last 4 widths), and the tail
    increment reg(n+1) - reg(n) = w - 1 is asserted exactly whenever the
    chain is quasi-saturated and lambda-maximal; the ratio trend itself
    is evidence, not an assertion. Budget 180 s."""
    started = time.monotonic()
    hard = 0
    evidence_only = 0
    ratio_trend = []
    for k in range(10):
        chain = _corpus_chain(5000 + k)
        res = check_reg_slope(chain, horizon=6)
        assert res.holds, (k, res.details)
        assert "ratio_consistent" in res.details, k
        ratio_trend.append(bool(res.details["ratio_consistent"]))
        if res.applicable:
            hard += 1
        else:
            evidence_only += 1
    # frozen corpus split: 8 chains hit the hard increment clause, 2 are
    # not quasi-saturated and stay evidence-only
    assert hard == 8 and evidence_only == 2, (hard, evidence_only)
    _finish(12, started, 180,
            f"hard x{hard}, evidence x{evidence_only}, "
            f"ratio non-increasing in {sum(ratio_trend)}/10")


def test_criterion_13_pd_past_the_lattice_cap():
    """pd of saturated chain 1014 over widths 5..16 under the default caps
    is n - 1 at every width, with no truncation, though the lcm lattice
    passes the 500k cap at width 13: a socle witness certifies depth zero
    before any lattice is built. Budget 10 s."""
    started = time.monotonic()
    chain = SaturationChain(_corpus_chain(1014))
    rep = series(chain, "pd", 5, 16)
    assert rep.values == tuple((n, n - 1) for n in range(5, 17)), rep.values
    assert rep.truncated is None
    _finish(13, started, 10, "12 widths, pd = n - 1, no lattice past the cap")
