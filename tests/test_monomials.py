from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from incideals import (
    AmbientMismatch,
    CapExceeded,
    ImproperIdeal,
    Monomial,
    MonomialIdeal,
    colon_stable_exponent,
    hilbert_count,
    lcm,
    minimalize,
    q_invariant,
)
from conftest import ideal, mono


def test_monomial_basics():
    u = mono([(1, 4), (2, 1)], 3)
    assert u.degree == 5
    assert u.support == (1, 2)
    assert u.maxsupp == 2
    assert u.exponent(1) == 4
    assert u.exponent(3) == 0
    assert str(u) == "x1^4*x2"
    assert str(Monomial.one(2)) == "1"
    assert Monomial.one(2).is_one


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(((0, 1),), 2)
    with pytest.raises(ValueError):
        Monomial(((1, 0),), 2)
    with pytest.raises(ValueError):
        Monomial(((2, 1), (1, 1)), 2)  # indices must increase
    with pytest.raises(ValueError):
        Monomial(((3, 1),), 2)  # outside the ambient width


def test_from_pairs_merges_repeats():
    u = Monomial.from_pairs([(1, 1), (1, 1), (2, 3)], 2)
    assert u == mono([(1, 2), (2, 3)], 2)


def test_mul_div_gcd():
    u = mono([(1, 2), (3, 1)], 3)
    v = mono([(1, 1), (2, 1)], 3)
    assert u * v == mono([(1, 3), (2, 1), (3, 1)], 3)
    assert (u * v) / v == u
    assert u.gcd(v) == mono([(1, 1)], 3)
    assert lcm(u, v) == mono([(1, 2), (2, 1), (3, 1)], 3)
    with pytest.raises(ValueError):
        u / v  # not divisible
    with pytest.raises(AmbientMismatch):
        u * mono([(1, 1)], 4)


def test_divides_and_embed():
    u = mono([(1, 1)], 2)
    v = mono([(1, 2), (2, 1)], 2)
    assert u.divides(v)
    assert not v.divides(u)
    w = u.embed(5)
    assert w.ambient == 5
    with pytest.raises(AmbientMismatch):
        v.embed(1)


def test_last_and_max_exponent():
    u = mono([(1, 4), (3, 2)], 3)
    assert u.last_exponent == 2
    assert u.max_exponent == 4
    with pytest.raises(ValueError):
        Monomial.one(2).last_exponent


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=5
    ),
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=5
    ),
)
@settings(max_examples=200, deadline=None)
def test_lcm_gcd_product_identity(pa, pb):
    u = Monomial.from_pairs(pa, 5)
    v = Monomial.from_pairs(pb, 5)
    assert lcm(u, v) * u.gcd(v) == u * v
    assert u.divides(lcm(u, v))
    assert u.gcd(v).divides(u)


def test_minimalize():
    gens = [mono([(1, 2)], 2), mono([(1, 3)], 2), mono([(1, 2), (2, 1)], 2)]
    J = minimalize(gens, 2)
    assert J.gens == (mono([(1, 2)], 2),)
    assert minimalize([], 3).is_zero
    assert minimalize([Monomial.one(3), mono([(1, 1)], 3)], 3).is_unit


def test_ideal_membership_and_contains():
    J = ideal([[(1, 2)], [(2, 1), (3, 1)]], 3)
    assert mono([(1, 2), (3, 5)], 3) in J
    assert mono([(2, 1), (3, 1)], 3) in J
    assert mono([(1, 1)], 3) not in J
    assert Monomial.one(3) not in J
    assert Monomial.one(3) in MonomialIdeal.unit(3)
    assert mono([(1, 1)], 3) not in MonomialIdeal.zero(3)


def test_colon():
    # <x1 x3^2, x3^3> : x3 = <x1 x3, x3^2>
    J = ideal([[(1, 1), (3, 2)], [(3, 3)]], 3)
    Q = J.colon(mono([(3, 1)], 3))
    assert Q == ideal([[(1, 1), (3, 1)], [(3, 2)]], 3)
    # <x1 x3^2, x3^4> : x1 x2 x3 = <x3>  (x3^3 absorbed by x3)
    J2 = ideal([[(1, 1), (3, 2)], [(3, 4)]], 3)
    Q2 = J2.colon(mono([(1, 1), (2, 1), (3, 1)], 3))
    assert Q2 == ideal([[(3, 1)]], 3)
    assert MonomialIdeal.zero(2).colon(mono([(1, 1)], 2)).is_zero


def test_restrict_embed_roundtrip():
    J = ideal([[(1, 2)], [(2, 1), (4, 1)], [(3, 2)]], 4)
    R = J.restrict(3)
    assert R.ambient == 3
    assert R == ideal([[(1, 2)], [(3, 2)]], 3)
    assert J.restrict(1) == ideal([[(1, 2)]], 1)
    E = R.embed(5)
    assert E.ambient == 5 and len(E.gens) == 2


def test_intersect():
    A = ideal([[(1, 2)]], 2)
    B = ideal([[(2, 1)]], 2)
    assert A.intersect(B) == ideal([[(1, 2), (2, 1)]], 2)
    sq = ideal([[(1, 2)], [(2, 2)]], 2)
    assert sq.intersect(MonomialIdeal.unit(2)) == sq


def test_weights_golden():
    J = ideal([[(1, 4), (2, 1)], [(1, 3), (3, 2)]], 3)
    w = J.weights()
    assert w.lambda_ == 1
    assert w.w == 3
    assert w.maxsupp == 3
    assert w.delta == 5
    with pytest.raises(ImproperIdeal):
        MonomialIdeal.unit(2).weights()
    with pytest.raises(ImproperIdeal):
        MonomialIdeal.zero(2).weights()


def test_colon_stable_exponent():
    assert colon_stable_exponent(ideal([[(1, 2)]], 2), 1) == 2
    assert colon_stable_exponent(ideal([[(2, 1)]], 2), 1) == 0
    assert colon_stable_exponent(ideal([[(1, 1), (2, 1)], [(2, 3)]], 2), 2) == 3


def test_hilbert_count():
    # R_2 / <x1^2>: degree 0: 1; degree 1: x1, x2; degree 2: x1x2, x2^2
    J = ideal([[(1, 2)]], 2)
    assert hilbert_count(J, 2, 0) == 1
    assert hilbert_count(J, 2, 1) == 2
    assert hilbert_count(J, 2, 2) == 2
    with pytest.raises(CapExceeded):
        hilbert_count(ideal([[(1, 2)]], 10), 10, 40, cap=100)


def test_q_invariant_caps_its_total_up_front(monkeypatch):
    import incideals.monomials as monomials

    def no_count(*args, **kwargs):
        raise AssertionError("hilbert_count was called")

    monkeypatch.setattr(monomials, "hilbert_count", no_count)
    huge = ideal([[(1, 40000), (2, 1)]], 2)
    with pytest.raises(CapExceeded) as exc:
        q_invariant(huge)
    assert exc.value.actual == comb(40003, 2)
    # each degree up to 101 fits the cap, but the 102 degrees together do not
    with pytest.raises(CapExceeded):
        q_invariant(ideal([[(1, 99), (2, 1), (3, 1)]], 3), cap=comb(104, 3) - 1)


def test_q_invariant_golden():
    assert q_invariant(ideal([[(1, 2)]], 2)) == 2
    seed = ideal([[(1, 2)], [(2, 2), (3, 1)], [(3, 2)]], 3)
    assert q_invariant(seed) == 11
    squares4 = ideal([[(1, 2)], [(2, 2)], [(3, 2)]], 4)
    assert q_invariant(squares4) == 7
    assert q_invariant(MonomialIdeal.unit(3)) == 0
    with pytest.raises(ImproperIdeal):
        q_invariant(MonomialIdeal.zero(3))


def test_sorting_is_by_degree_then_exponents():
    J = ideal([[(2, 1)], [(1, 1)]], 2)
    assert [str(g) for g in J.gens] == ["x1", "x2"]


def test_constructor_rejects_non_canonical_generators():
    x1, x2 = mono([(1, 1)], 2), mono([(2, 1)], 2)
    x1x2 = mono([(1, 1), (2, 1)], 2)
    assert MonomialIdeal((x1, x2), 2).gens == (x1, x2)
    with pytest.raises(ValueError, match="sorted"):
        MonomialIdeal((x2, x1), 2)
    with pytest.raises(ValueError, match="sorted"):
        MonomialIdeal((x1, x1), 2)
    with pytest.raises(ValueError, match="minimal"):
        MonomialIdeal((x1, x1x2), 2)
    with pytest.raises(AmbientMismatch):
        MonomialIdeal((mono([(1, 1)], 3),), 2)
    with pytest.raises(ValueError):
        MonomialIdeal.from_gens([], -1)


@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=7),
        )
    )
)
def test_trusted_construction_is_canonical(case):
    # every ideal built without the constructor's check passes that check
    n, rows = case
    J = MonomialIdeal.from_gens([Monomial.from_dense(r, n) for r in rows], n)
    built = [J, J.embed(n + 2), *(J.restrict(k) for k in range(n + 1))]
    if J.gens:
        u = J.gens[-1]
        built += [J.colon(u), J.intersect(J.colon(u))]
    for I in built:
        assert MonomialIdeal(I.gens, I.ambient) == I, I
