import itertools
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import incideals.chains as chains
from incideals import (
    AmbientMismatch,
    CapExceeded,
    ImproperIdeal,
    Monomial,
    MonomialIdeal,
    MSaturationChain,
    OrbitChain,
    SaturationChain,
    Symmetry,
    chain_invariants,
    colon_filtration,
    colon_filtration_term,
    inc_orbit,
    inc_orbit_by_shifts,
    m_saturation,
    q_invariant,
    saturated_truncation,
    saturation,
    sym_orbit,
    term,
)
from incideals.monomials import _orbit_size, minimalize
from conftest import ideal, mono


def test_inc_orbit_golden():
    got = inc_orbit(mono([(2, 2), (3, 1)], 3), 3, 4)
    assert got == {
        mono([(2, 2), (3, 1)], 4),
        mono([(2, 2), (4, 1)], 4),
        mono([(3, 2), (4, 1)], 4),
    }
    assert inc_orbit(mono([(1, 2)], 3), 3, 4) == {
        mono([(1, 2)], 4),
        mono([(2, 2)], 4),
    }
    # identity width keeps just the monomial
    assert inc_orbit(mono([(1, 1)], 2), 2, 2) == {mono([(1, 1)], 2)}


def test_inc_orbit_of_one():
    assert inc_orbit(Monomial.one(2), 2, 5) == {Monomial.one(5)}


monomial_pairs = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
)


@given(monomial_pairs, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_inc_orbit_matches_shift_oracle(pairs, extra):
    u = Monomial.from_pairs(pairs, 3)
    n = 3 + extra
    orbit = inc_orbit(u, 3, n)
    assert orbit == inc_orbit_by_shifts(u, 3, n)
    assert len(orbit) == comb(extra + len(u.exps), len(u.exps))  # the counted placements


def sym_orbit_by_injections(u, n):
    """The Sym orbit as every injection of u's support into [n], deduplicated."""
    exps = [e for _, e in u.exps]
    return frozenset(
        Monomial(tuple(sorted(zip(targets, exps))), n)
        for targets in itertools.permutations(range(1, n + 1), len(exps))
    )


@given(
    st.lists(st.integers(1, 3), max_size=4),
    st.integers(0, 8),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_sym_orbit_matches_injection_oracle(exps, n, wider, rnd):
    # u lives at a width up to 3 past n (at least its support); exps=[] is 1
    n = max(n, len(exps))
    support = sorted(rnd.sample(range(1, n + wider + 1), len(exps)))
    u = Monomial(tuple(zip(support, exps)), n + wider)
    orbit = sym_orbit(u, n)
    assert orbit == sym_orbit_by_injections(u, n)
    assert len(orbit) == _orbit_size(exps + [0] * (n - len(exps)))


def test_sym_orbit():
    got = sym_orbit(mono([(1, 2), (2, 1)], 2), 2)
    assert got == {mono([(1, 2), (2, 1)], 2), mono([(1, 1), (2, 2)], 2)}
    assert len(sym_orbit(mono([(1, 1)], 1), 4)) == 4
    # inc orbit sits inside the sym orbit
    u = mono([(1, 1), (3, 2)], 3)
    assert inc_orbit(u, 3, 5) <= sym_orbit(u, 5)


def test_orbit_caps_trip_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the orbit enumeration started")

    wide_inc = Monomial.from_pairs([(i, 1) for i in range(1, 6)], 5)
    wide_sym = Monomial.from_pairs([(i, 1) for i in range(1, 7)], 6)
    monkeypatch.setattr(chains, "Monomial", no_enumeration)
    monkeypatch.setattr(chains, "_arrangements", no_enumeration)
    with pytest.raises(CapExceeded) as exc:
        inc_orbit(wide_inc, 5, 100)
    assert exc.value.actual == comb(100, 5) > chains.ORBIT_CAP
    with pytest.raises(CapExceeded) as exc:
        sym_orbit(wide_sym, 40)
    assert exc.value.actual == comb(40, 6) > chains.ORBIT_CAP


@pytest.mark.parametrize(
    "pairs,m,n,symmetry,size",
    [
        ([(1, 2), (3, 1)], 3, 5, Symmetry.INC, comb(4, 2)),
        ([(1, 2), (3, 1)], 3, 2, Symmetry.INC, 0),  # m > n: no increasing map
        ([(1, 2), (3, 1)], 3, 5, Symmetry.SYM, 20),
        ([(1, 1), (2, 1), (3, 1)], 3, 2, Symmetry.SYM, 0),  # support wider than n
        ([], 1, 4, Symmetry.INC, 1),
    ],
    ids=["inc", "inc_no_map", "sym", "sym_too_wide", "unit"],
)
def test_orbit_and_its_count(pairs, m, n, symmetry, size):
    u = mono(pairs, m)
    images = chains._orbit(u, m, n, symmetry)
    assert len(images) == chains._orbit_count(u, m, n, symmetry) == size
    if size and symmetry is Symmetry.INC:
        assert images == inc_orbit_by_shifts(u, m, n)


def test_sym_saturation_below_the_index_drops_wide_supports():
    # x1*x2*x3 has no image at width 2; x1^2*x2 has its two arrangements
    seed = ideal([[(1, 2), (2, 1)], [(1, 1), (2, 1), (3, 1)]], 3)
    s = saturation(OrbitChain(seed=seed, index=3, symmetry=Symmetry.SYM))
    assert term(s, 2) == ideal([[(1, 2), (2, 1)], [(1, 1), (2, 2)]], 2)
    assert term(s, 1).is_zero


def test_orbit_chain_terms(mixed_squares_chain):
    c = mixed_squares_chain
    assert term(c, 3) == c.seed
    expected4 = MonomialIdeal.from_gens(
        tuple(Monomial.variable(i, 4, 2) for i in (1, 2, 3, 4)), 4
    )
    assert term(c, 4) == expected4
    assert term(c, 2).is_zero  # no head
    with pytest.raises(ValueError):
        term(c, 0)


def test_orbit_chain_validation():
    with pytest.raises(ImproperIdeal):
        OrbitChain(seed=MonomialIdeal.zero(2), index=2)
    with pytest.raises(AmbientMismatch):
        OrbitChain(seed=ideal([[(1, 1)]], 2), index=3)
    # unit seeds are allowed; every term is the unit ideal
    u = OrbitChain(seed=MonomialIdeal.unit(2), index=2)
    assert term(u, 4).is_unit


def test_orbit_chain_head():
    head = (MonomialIdeal.zero(1), ideal([[(1, 2)]], 2))
    c = OrbitChain(seed=ideal([[(1, 2)], [(2, 2)]], 3), index=3, head=head)
    assert term(c, 2) == head[1]
    assert term(c, 1).is_zero
    bad_head = (ideal([[(1, 1)]], 1), MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        # x1 at width 1 must map into the later terms and does not
        OrbitChain(seed=ideal([[(1, 2)], [(2, 2)]], 3), index=3, head=bad_head)


def test_two_block_chain_terms(two_block_chain):
    i7 = term(two_block_chain, 7)
    quads = [(2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)]
    assert i7 == ideal([[(a, 1), (b, 1)] for a, b in quads], 7)
    i8 = term(two_block_chain, 8)
    assert len(i8.gens) == 12
    assert all(g.degree == 2 for g in i8.gens)


@pytest.mark.parametrize(
    "chain,top",
    [
        ("mixed_squares_chain", 8),
        ("two_block_chain", 7),
        (OrbitChain(seed=ideal([[(2, 1), (4, 1)]], 4), index=4), 8),
        (OrbitChain(seed=ideal([[(3, 2)]], 3), index=3), 8),
    ],
    ids=["mixed_squares", "two_block", "support_gap", "last_variable_only"],
)
def test_saturation_terms_match_restriction(request, chain, top):
    # widths start at 1, below every index
    if isinstance(chain, str):
        chain = request.getfixturevalue(chain)
    s = saturation(chain)
    for n in range(1, top + 1):
        assert term(s, n) == term(chain, n + chain.index).restrict(n), n
        assert saturated_truncation(s, n) == term(s, n)


def test_saturation_requires_orbit_chain(mixed_squares_chain):
    s = saturation(mixed_squares_chain)
    with pytest.raises(TypeError):
        SaturationChain(s)


def test_saturated_truncation_gate():
    c = OrbitChain(seed=ideal([[(1, 2)]], 2), index=2, symmetry=Symmetry.SYM)
    with pytest.raises(ValueError):
        saturated_truncation(c, 3)


def test_msat_terms(mixed_squares_chain):
    j = m_saturation(mixed_squares_chain, 2)
    assert j.index == 5
    assert term(j, 1).is_zero
    assert term(j, 3).is_zero  # base terms below the index are zero
    j4 = term(j, 4)
    assert j4 == ideal(
        [
            [(1, 2), (4, 2)],
            [(2, 2), (3, 1), (4, 2)],
            [(3, 2), (4, 2)],
        ],
        4,
    )
    with pytest.raises(ValueError):
        MSaturationChain(mixed_squares_chain, 0)


def test_chain_invariants_mixed(mixed_squares_chain):
    inv = chain_invariants(mixed_squares_chain)
    assert inv.lambda_ == 2
    assert inv.w == 2
    assert inv.q == 11
    assert not inv.quasi_saturated
    assert inv.lambda_maximal
    assert inv.lambda_certificate == "reached_w"
    assert inv.lambda_exact
    assert not inv.saturated_window
    # the seed itself still has the smaller weight
    assert term(mixed_squares_chain, 3).weights().lambda_ == 1


def test_chain_invariants_squares(squares_chain):
    inv = chain_invariants(squares_chain)
    assert inv.lambda_ == 2 and inv.w == 2 and inv.q == 2
    assert inv.quasi_saturated
    assert inv.saturated_window


def test_chain_invariants_saturated(mixed_squares_chain):
    inv = chain_invariants(saturation(mixed_squares_chain))
    assert inv.saturated_window
    assert inv.quasi_saturated
    assert inv.lambda_ == 2


def test_chain_invariants_stable_tail():
    # lambda is 1 over the whole window, below w = 2, on a chain that is
    # not saturated
    c = OrbitChain(seed=ideal([[(3, 2)], [(1, 3), (2, 1)]], 3), index=3)
    inv = chain_invariants(c)
    assert (inv.lambda_, inv.w, inv.horizon) == (1, 2, 12)
    assert not inv.saturated_window
    assert inv.lambda_certificate == "stable_tail" and not inv.lambda_exact


def test_chain_invariants_window_cap_trips_before_the_window(monkeypatch):
    # horizon 2 * 22 + 4 = 48: the terms at widths 3..51 and, for the
    # saturated truncations, 6..54 enumerate C(55, 4) = 341,055 images
    c = OrbitChain(seed=ideal([[(1, 20), (2, 1), (3, 1)]], 3), index=3)
    term(c, 3)  # the seed term sizes the window

    def no_terms(self, n):
        raise AssertionError(f"term {n} was built")

    monkeypatch.setattr(OrbitChain, "_compute_term", no_terms)
    with pytest.raises(CapExceeded) as exc:
        chain_invariants(c)
    assert exc.value.what == "invariants window images"
    assert exc.value.actual == comb(55, 4) > chains.WINDOW_CAP


@pytest.mark.parametrize("derive", [lambda c: c, saturation, lambda c: m_saturation(c, 2)],
                         ids=["plain", "saturation", "msat"])
def test_window_images_count_what_a_term_enumerates(mixed_squares_chain, derive, monkeypatch):
    # orbit terms minimalize exactly their images; an m-saturation term
    # multiplies out the base generators, at most their images
    c = derive(mixed_squares_chain)
    sizes = []

    def counted(gens, n):
        sizes.append(len(gens))
        return minimalize(gens, n)

    monkeypatch.setattr(chains, "minimalize", counted)
    for n in range(c.index, c.index + 4):
        sizes.clear()
        c._compute_term(n)
        if isinstance(c, MSaturationChain):
            assert sizes[-1] <= c._images(n)
        else:
            assert sizes == [c._images(n)]


def test_colon_filtration_matches_definitional(squares_chain, mixed_squares_chain):
    for chain, e in [(squares_chain, 1), (mixed_squares_chain, 1), (mixed_squares_chain, 2)]:
        derived = colon_filtration(chain, e)
        assert derived.index == chain.index + 1
        for n in range(chain.index + 1, chain.index + 6):
            assert term(derived, n) == colon_filtration_term(chain, e, n), (e, n)


def test_colon_filtration_unit_seed(squares_chain):
    derived = colon_filtration(squares_chain, 2)
    assert term(derived, 2).is_unit
    assert q_invariant(term(derived, 2)) == 0


def test_colon_filtration_e_zero(squares_chain):
    derived = colon_filtration(squares_chain, 0)
    assert term(derived, 2) == term(squares_chain, 2).restrict(1).embed(2)
    with pytest.raises(ValueError):
        colon_filtration(squares_chain, -1)


def test_colon_filtration_sym_gate():
    c = OrbitChain(seed=ideal([[(1, 2)]], 2), index=2, symmetry=Symmetry.SYM)
    with pytest.raises(ValueError):
        colon_filtration(c, 1)


def test_terms_are_cached(mixed_squares_chain):
    a = term(mixed_squares_chain, 6)
    b = term(mixed_squares_chain, 6)
    assert a is b
