import functools
import itertools
import operator
import random
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from incideals import (
    CapExceeded,
    DEFAULT_FIELD,
    FieldSpec,
    ImproperIdeal,
    Monomial,
    MonomialIdeal,
    OrbitChain,
    RandomChainParams,
    SaturationChain,
    SimplicialComplex,
    Symmetry,
    betti_table,
    euler_consistency,
    homology_ranks,
    koszul_complex,
    lcm,
    lcm_lattice,
    m_saturation,
    pd,
    random_chain,
    reg,
    reg_colon_bounds_check,
    series,
    term,
)
from incideals.betti import (
    DEFAULT_LATTICE_CAP,
    _class_ranks,
    _complex_classes,
    _dense,
    _lattice_matrix,
    _row_keys,
    _strong_core,
    _symmetric,
    _walk,
)
from incideals.simplicial import face_closure
from conftest import ideal, mono


def squares(n):
    return MonomialIdeal.from_gens(
        tuple(Monomial.variable(i, n, 2) for i in range(1, n + 1)), n
    )


def random_ideal(rng, nmax=4, gmax=4, emax=3):
    n = rng.randint(2, nmax)
    gens = []
    for _ in range(rng.randint(1, gmax)):
        supp = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        gens.append(Monomial.from_pairs([(i, rng.randint(1, emax)) for i in supp], n))
    return MonomialIdeal.from_gens(tuple(gens), n)


def test_lcm_lattice_golden():
    J = ideal([[(1, 2)], [(2, 2)]], 2)
    lat = lcm_lattice(J)
    assert lat == {mono([(1, 2)], 2), mono([(2, 2)], 2), mono([(1, 2), (2, 2)], 2)}


def corpus_chain(seed_val):
    # the random-chain recipe of the acceptance corpus
    k = seed_val % 1000
    return random_chain(
        RandomChainParams(
            index=(k % 3) + 1,
            num_gens=min(3, (k % 3) + 1 + (k % 2)),
            max_exponent=2,
            max_degree=4,
            seed=seed_val,
        )
    )


def subset_lcms(J):
    out = set()
    for k in range(1, len(J.gens) + 1):
        for sub in itertools.combinations(J.gens, k):
            acc = sub[0]
            for g in sub[1:]:
                acc = lcm(acc, g)
            out.add(acc)
    return out


def wide_ideal():
    # 8 generators in 40 variables, each variable squared in one of them:
    # the radix product 3^40 exceeds int64, so rows are keyed by bytes
    rng = random.Random(5)
    gens = []
    for i in range(8):
        exps = [2 if v % 8 == i else rng.randint(0, 1) for v in range(40)]
        gens.append(Monomial.from_dense(exps, 40))
    return MonomialIdeal.from_gens(tuple(gens), 40)


def test_lcm_lattice_matches_subset_enumeration():
    rng = random.Random(21)
    cases = []
    for _ in range(20):
        J = random_ideal(rng)
        if J.is_proper:
            cases.append(J)
    for seed in (1004, 1010, 1011, 1014, 1017, 1023):
        for chain in (corpus_chain(seed), SaturationChain(corpus_chain(seed))):
            for n in range(chain.index, 8):
                J = term(chain, n)
                if 6 <= len(J.gens) <= 10:
                    cases.append(J)
    assert sum(len(J.gens) >= 6 for J in cases) >= 15
    wide = wide_ideal()
    assert _row_keys(_dense(wide))[0](_dense(wide)).dtype.kind == "V"
    cases.append(wide)
    for J in cases:
        assert lcm_lattice(J, gen_cap=None) == subset_lcms(J), J


def test_lcm_lattice_gen_cap():
    J = MonomialIdeal.from_gens(
        tuple(Monomial.variable(i, 25, 2) for i in range(1, 22)), 25
    )
    with pytest.raises(CapExceeded):
        lcm_lattice(J)
    # cap is adjustable
    assert len(lcm_lattice(ideal([[(1, 2)], [(2, 2)]], 2), gen_cap=2)) == 3


def test_koszul_complex_shapes():
    J = squares(3)
    a = mono([(1, 2), (2, 2), (3, 2)], 3)
    c = koszul_complex(J, a)
    # generators are tight at exactly one vertex each: hollow triangle
    assert sorted(c.facet_masks()) == [0b011, 0b101, 0b110]
    outside = mono([(1, 1)], 3)
    assert koszul_complex(J, outside).is_void
    inside = mono([(1, 2), (2, 1)], 3)
    c2 = koszul_complex(J, inside)
    assert not c2.is_void


def test_betti_squares_golden():
    for n in (1, 2, 3, 4, 5):
        T = betti_table(squares(n))
        assert T.pd() == n - 1
        assert T.reg() == n + 1
        assert T.totals() == {i: comb(n, i + 1) for i in range(n)}


def test_betti_principal_ideal():
    T = betti_table(ideal([[(1, 3), (2, 1)]], 2))
    assert T.entries == ((0, mono([(1, 3), (2, 1)], 2), 1),)
    assert T.pd() == 0 and T.reg() == 4


def test_pd_reg_improper_errors():
    with pytest.raises(ImproperIdeal):
        pd(MonomialIdeal.zero(2))
    with pytest.raises(ImproperIdeal):
        reg(MonomialIdeal.unit(2))
    with pytest.raises(ImproperIdeal):
        betti_table(MonomialIdeal.zero(2))


def test_betti_unit_table():
    T = betti_table(MonomialIdeal.unit(3))
    assert T.pd() == 0 and T.reg() == 0


def koszul_reference(J, field):
    """{(i, a): beta_{i,a}} from `homology_ranks` at every lcm-lattice point."""
    ref = {}
    for a in lcm_lattice(J, gen_cap=None):
        for i, h in homology_ranks(koszul_complex(J, a), field).items():
            if h:
                ref[(i + 1, a)] = h
    return ref


def test_fast_path_matches_reference_homology():
    rng = random.Random(7)
    for _ in range(30):
        J = random_ideal(rng)
        if not J.is_proper:
            continue
        T = betti_table(J)
        assert {(i, a): v for i, a, v in T.entries} == koszul_reference(J, DEFAULT_FIELD), J


def test_no_homology_off_the_lattice():
    rng = random.Random(17)
    for _ in range(10):
        J = random_ideal(rng, nmax=3)
        if not J.is_proper:
            continue
        lat = lcm_lattice(J)
        for a in list(lat)[:4]:
            b = a * Monomial.variable(1, J.ambient)
            if b in lat or b not in J:
                continue
            ranks = homology_ranks(koszul_complex(J, b), DEFAULT_FIELD)
            assert all(v == 0 for v in ranks.values()), (J, b)


def test_euler_consistency():
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        J = random_ideal(rng)
        if not J.is_proper:
            continue
        assert euler_consistency(J), J
        checked += 1
    assert checked >= 20


def test_betti_gen_cap_raises():
    J = squares(21)
    with pytest.raises(CapExceeded):
        betti_table(J)
    T = betti_table(squares(6), gen_cap=None)
    assert T.pd() == 5


def test_lattice_cap_raises():
    with pytest.raises(CapExceeded):
        betti_table(squares(5), lattice_cap=10)


def test_lattice_cap_trips_within_the_crossing_round():
    # The lattice of squares(20) is every nonempty subset of 20 variables;
    # closure round k adds the (k+1)-subsets.  The 1..5-subsets number
    # 21699, the 6-subsets 38760.  The round from the 15504 5-subsets runs
    # in several blocks, and the cap must stop it before it ends.
    with pytest.raises(CapExceeded) as exc:
        lcm_lattice(squares(20), gen_cap=None, lattice_cap=21_700)
    assert 21_700 < exc.value.actual < 21_699 + 38_760


@pytest.mark.parametrize("p", [2, 32003])
def test_betti_matches_koszul_homology_on_chain_terms(p):
    field = FieldSpec(p)
    for seed in (1011, 1014, 1016):
        chain = SaturationChain(corpus_chain(seed))
        for n in range(chain.index, 8):
            J = term(chain, n)
            got = {(i, a): v for i, a, v in betti_table(J, field, gen_cap=None).entries}
            assert got == koszul_reference(J, field), (seed, n, p)


@st.composite
def chain_terms(draw):
    """Saturated (m None) and m-saturated terms of the acceptance-corpus
    chains, at widths up to 7; proper ideals only."""
    base = corpus_chain(draw(st.integers(1000, 1024)))
    m = draw(st.sampled_from([None, 1, 2]))
    J = term(SaturationChain(base) if m is None else m_saturation(base, m),
             draw(st.integers(1, 7)))
    assume(J.is_proper)
    return J


@settings(max_examples=60)
@given(chain_terms(), st.sampled_from([2, 32003]))
def test_betti_matches_koszul_homology_on_drawn_chain_terms(J, p):
    field = FieldSpec(p)
    got = {(i, a): v for i, a, v in betti_table(J, field, gen_cap=None).entries}
    assert got == koszul_reference(J, field)


@settings(max_examples=60)
@given(chain_terms(), st.sampled_from([2, 32003]))
def test_euler_consistency_on_drawn_chain_terms(J, p):
    assume(len(J.gens) <= 16)  # the Taylor side has 2^gens terms
    assert euler_consistency(J, FieldSpec(p))


# the 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


def complex_on(s, facets):
    return SimplicialComplex.from_facets_masks(facets, tuple(range(1, s + 1)))


@st.composite
def facet_classes(draw):
    """(s, maximal facets): a nonvoid complex on s vertices, as `_complex_classes`
    yields it."""
    s = draw(st.integers(1, 9))
    facets = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=1, max_size=8))
    return s, complex_on(s, facets).facet_masks()


def dominated_vertices(s, facets):
    """Vertices v such that every facet through v holds some other vertex."""
    maximal = complex_on(s, facets).facet_masks()
    out = []
    for v in range(s):
        through = [f for f in maximal if f >> v & 1]
        if through and any(all(f >> w & 1 for f in through) for w in range(s) if w != v):
            out.append(v)
    return out


def test_class_ranks_match_reference_homology():
    dual_used = set()

    # random facets rarely leave a core with at most half of all subsets
    # as faces, so two such cores are given: RP^2 and the 5-cycle
    @given(facet_classes(), st.sampled_from([2, 3, 32003]))
    @example((6, tuple(sorted(sum(1 << (v - 1) for v in t) for t in RP2_TRIANGLES))), 2)
    @example((5, (0b00011, 0b00110, 0b01100, 0b10001, 0b11000)), 3)
    def check(case, p):
        s, facets = case
        ref = homology_ranks(complex_on(s, facets), FieldSpec(p))
        k, core = _strong_core(s, facets)
        assert _class_ranks(k, core, p) == {i + 1: h for i, h in ref.items() if h}
        dual_used.add(k > 0 and 2 * len(face_closure(core)) > 1 << k)

    check()
    assert dual_used == {False, True}  # both a core and the dual of one were reduced


@given(facet_classes(), st.sampled_from([2, 3, 32003]))
def test_strong_core_is_a_core(case, p):
    s, facets = case
    k, core = _strong_core(s, facets)
    # maximal facets on k vertices, each vertex used, none dominated
    assert core == complex_on(k, core).facet_masks() == tuple(sorted(core))
    assert functools.reduce(operator.or_, core) == (1 << k) - 1
    assert dominated_vertices(k, core) == []
    # the cone over it, with apex s, collapses to a point
    cone = tuple(f | 1 << s for f in facets)
    assert _strong_core(s + 1, cone) == (1, (1,))
    assert _class_ranks(1, (1,), p) == {}


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_empty_face_complex(p):
    # {empty face} has H~_{-1} = K on any vertex set, the empty one included
    assert homology_ranks(complex_on(0, [0]), FieldSpec(p)) == {-1: 1}
    for s in (0, 1, 3):
        assert _strong_core(s, (0,)) == (0, (0,))
        assert _class_ranks(s, (0,), p) == {0: 1}


def test_class_ranks_of_projective_plane():
    facets = tuple(sorted(sum(1 << (v - 1) for v in t) for t in RP2_TRIANGLES))
    assert _class_ranks(6, facets, 2) == {2: 1, 3: 1}
    assert _class_ranks(6, facets, 3) == {}


@given(
    st.integers(0, 10).flatmap(
        lambda s: st.tuples(st.just(s), st.lists(st.integers(0, (1 << s) - 1), max_size=6))
    )
)
def test_face_closure_matches_subset_enumeration(case):
    s, masks = case
    brute = {g for g in range(1 << s) if any(g & ~f == 0 for f in masks)}
    assert face_closure(masks) == brute


def test_char_dependence_shows_up():
    # Stanley-Reisner ideal of the 6-vertex projective plane triangulation
    triangles = RP2_TRIANGLES
    keep = {frozenset(t) for t in triangles}
    nonfaces = [
        s
        for s in itertools.combinations(range(1, 7), 3)
        if frozenset(s) not in keep
    ]
    mins = []
    for s in nonfaces:
        # minimal nonfaces only: every proper pair must be a face
        mins.append(Monomial.from_pairs([(v, 1) for v in s], 6))
    J = MonomialIdeal.from_gens(tuple(mins), 6)
    p0 = betti_table(J, FieldSpec(32003), gen_cap=None).pd()
    p2 = betti_table(J, FieldSpec(2), gen_cap=None).pd()
    assert p2 == p0 + 1  # the classical char-2 jump


def test_reg_colon_bounds():
    rng = random.Random(41)
    for _ in range(12):
        J = random_ideal(rng, nmax=3, gmax=3)
        if not J.is_proper:
            continue
        for k in range(1, J.ambient + 1):
            assert reg_colon_bounds_check(J, k), (J, k)


# -- one lattice point per S_n-orbit ---------------------------------------

def sym_closure(rows, n):
    """The ideal generated by every permutation of the given exponent rows."""
    gens = {p for row in rows for p in itertools.permutations(row)}
    return MonomialIdeal.from_gens(tuple(Monomial.from_dense(g, n) for g in gens), n)


def closed_under_permutations(J):
    gens = {g.dense() for g in J.gens}
    return all(p in gens for g in gens for p in itertools.permutations(g))


def sym_chain():
    # the Sym chain <x1^2 x2, x1 x2 x3>; its lattice has 17, 66, 222, 701,
    # 2151 points at widths 3..7, in 6, 11, 17, 24, 32 orbits
    return OrbitChain(
        seed=ideal([[(1, 2), (2, 1)], [(1, 1), (2, 1), (3, 1)]], 3),
        index=3,
        symmetry=Symmetry.SYM,
    )


def assert_orbit_route_exact(J, field):
    """The expanded orbit-route table equals Koszul homology over lcm_lattice."""
    gens = _dense(J)
    assert _symmetric(gens)
    lattice = lcm_lattice(J, gen_cap=None)
    rows, weights = _lattice_matrix(gens, DEFAULT_LATTICE_CAP, symmetric=True)
    assert int(weights.sum()) == len(lattice)
    assert all(list(r) == sorted(r, reverse=True) for r in rows.tolist())
    ref = {}
    for a in lattice:
        for i, h in homology_ranks(koszul_complex(J, a), field).items():
            if h:
                ref[(i + 1, a)] = h
    T = betti_table(J, field, gen_cap=None)
    assert {(i, a): v for i, a, v in T.entries} == ref
    assert len(T.entries) == len(ref)
    totals = {}
    for (i, _), v in ref.items():
        totals[i] = totals.get(i, 0) + v
    assert T.totals() == totals


@st.composite
def symmetric_ideals(draw):
    n = draw(st.integers(2, 6))
    patterns = draw(
        st.lists(
            st.lists(st.integers(1, 3), min_size=1, max_size=min(n, 3)),
            min_size=1,
            max_size=3,
        )
    )
    J = sym_closure([tuple(p) + (0,) * (n - len(p)) for p in patterns], n)
    assume(len(J.gens) <= 22)
    return J


@settings(max_examples=100)
@given(symmetric_ideals(), st.sampled_from([2, 32003]))
def test_orbit_route_matches_koszul_homology(J, p):
    assert_orbit_route_exact(J, FieldSpec(p))
    if len(J.gens) <= 16:  # the Taylor side has 2^gens terms
        assert euler_consistency(J, FieldSpec(p))


@pytest.mark.parametrize("p", [2, 32003])
def test_orbit_route_on_sym_chain_terms(p):
    chain = sym_chain()
    for n in range(3, 8):
        J = term(chain, n)
        assert_orbit_route_exact(J, FieldSpec(p))
        if len(J.gens) <= 22:
            assert euler_consistency(J, FieldSpec(p), gen_cap=22)


def test_orbit_route_is_taken_on_sym_terms():
    T = betti_table(term(sym_chain(), 7), gen_cap=None)
    assert len(T.rows) < len(T.entries) == 1212
    assert int(T.weights.max()) > 1


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=1, max_size=6
            ),
        )
    )
)
def test_symmetric_matches_brute_force(case):
    n, rows = case
    loose = MonomialIdeal.from_gens(tuple(Monomial.from_dense(r, n) for r in rows), n)
    closed = sym_closure([tuple(r) for r in rows], n)
    cases = [loose, closed]
    # near misses: one orbit image removed, and unused variables
    cases += [
        MonomialIdeal.from_gens(closed.gens[:k] + closed.gens[k + 1 :], n)
        for k in range(len(closed.gens))
        if len(closed.gens) > 1
    ]
    cases.append(MonomialIdeal.from_gens(tuple(g.embed(n + 1) for g in closed.gens), n + 1))
    for J in cases:
        assert _symmetric(_dense(J)) == closed_under_permutations(J), J


def test_symmetric_near_misses():
    closed = sym_closure([(2, 1, 0)], 3)
    assert _symmetric(_dense(closed))
    assert not _symmetric(_dense(MonomialIdeal.from_gens(closed.gens[1:], 3)))
    assert not _symmetric(_dense(MonomialIdeal.from_gens(
        tuple(g.embed(4) for g in closed.gens), 4)))


def test_lattice_cap_counts_every_point_of_a_symmetric_term():
    # width 6: 701 lattice points in 24 orbits, so only the full count trips
    chain = sym_chain()
    J = term(chain, 6)
    rows, _ = _lattice_matrix(_dense(J), DEFAULT_LATTICE_CAP, symmetric=True)
    assert len(rows) == 24 and len(lcm_lattice(J, gen_cap=None)) == 701
    with pytest.raises(CapExceeded) as exc:
        betti_table(J, gen_cap=None, lattice_cap=700)
    assert exc.value.actual > 700
    assert betti_table(J, gen_cap=None, lattice_cap=701).pd() == 5
    rep = series(chain, "pd", 3, 8, lattice_cap=700)
    assert [n for n, _ in rep.values] == [3, 4, 5]
    assert rep.truncated.startswith("lcm lattice size")


def test_lattice_cap_is_at_most_int64():
    # m^2 in 48 variables: its lattice, every vector over {0, 1, 2} but the
    # unit vectors, has over 2^63 points, more than orbit weights can hold
    n = 48
    gens = [Monomial.variable(i, n, 2) for i in range(1, n + 1)]
    gens += [Monomial.from_pairs([(i, 1), (j, 1)], n)
             for i, j in itertools.combinations(range(1, n + 1), 2)]
    J = MonomialIdeal.from_gens(tuple(gens), n)
    with pytest.raises(CapExceeded) as exc:
        betti_table(J, gen_cap=None, lattice_cap=10**30)
    assert exc.value.limit == 2**63 - 1 < exc.value.actual


@st.composite
def small_ideals(draw):
    n = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
            min_size=1,
            max_size=7,
        )
    )
    return MonomialIdeal.from_gens(tuple(Monomial.from_dense(r, n) for r in rows), n)


def lattice_rows(J, symmetric):
    """All lcm_lattice points, or the orbit representatives of the symmetric route."""
    if symmetric:
        return _lattice_matrix(_dense(J), DEFAULT_LATTICE_CAP, symmetric=True)[0]
    points = sorted(lcm_lattice(J, gen_cap=None), key=Monomial.sort_key)
    return np.array([a.dense() for a in points], dtype=np.int16)


@given(small_ideals(), symmetric_ideals())
def test_lattice_support_vertices_are_tight_for_a_divisor(J, K):
    # a_j is attained by a generator whose lcm gives a, and it divides x^a;
    # `_complex_classes` finds every cone from the minimal tight masks on this
    for I, symmetric in ((J, False), (K, True)):
        gens = [g.dense() for g in I.gens]
        for a in lattice_rows(I, symmetric).tolist():
            divisors = [g for g in gens if all(x <= y for x, y in zip(g, a))]
            for j, e in enumerate(a):
                assert not e or any(g[j] == e for g in divisors), (I, a, j)


@given(small_ideals(), symmetric_ideals())
def test_complex_classes_skip_exactly_the_cones(J, K):
    for I, symmetric in ((J, False), (K, True)):
        rows = lattice_rows(I, symmetric)
        classes = {r: (s, facets) for r, s, facets in _complex_classes(rows, _dense(I))}
        for r, a in enumerate(rows.tolist()):
            koszul = koszul_complex(I, Monomial.from_dense(a, I.ambient))
            if koszul.is_cone:
                assert r not in classes, (I, a)
            else:
                assert classes[r] == (len(koszul.vertices), koszul.facet_masks()), (I, a)


def expanded_by_monomials(T):
    """The orbit rows of T, one per multidegree, sorted by (i, sort_key)."""
    rows = []
    for i, row, v, w in zip(T.degrees.tolist(), T.rows.tolist(), T.dims.tolist(),
                            T.weights.tolist()):
        orbit = sorted(set(itertools.permutations(row))) if w > 1 else [tuple(row)]
        assert len(orbit) == w
        rows += [(i, a, v) for a in orbit]
    rows.sort(key=lambda t: (t[0], Monomial.from_dense(t[1]).sort_key()))
    return rows


@given(small_ideals(), symmetric_ideals())
def test_expanded_is_sorted_like_entries(J, K):
    for I in (J, K):
        T = betti_table(I, gen_cap=None)
        degrees, rows, dims = T.expanded
        assert rows.dtype == np.int16 and rows.shape == (len(degrees), I.ambient)
        got = list(zip(degrees.tolist(), map(tuple, rows.tolist()), dims.tolist()))
        assert got == expanded_by_monomials(T), I
        assert [(i, a.dense(), v) for i, a, v in T.entries] == got


def test_expanded_orders_pairs_not_dense_rows():
    # x1*x3 before x2^2: (1, 1) < (2, 2) as pairs, though (1, 0, 1) > (0, 2, 0)
    T = betti_table(ideal([[(1, 1), (3, 1)], [(2, 2)]], 3))
    degrees, rows, _ = T.expanded
    assert degrees[:2].tolist() == [0, 0]
    assert rows[:2].tolist() == [[1, 0, 1], [0, 2, 0]]
    assert [str(a) for _, a, _ in T.entries[:2]] == ["x1*x3", "x2^2"]


# -- pd from the top support bands -------------------------------------------

def assert_same_table(T, U):
    for x, y in zip(T.expanded, U.expanded):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (T.pd(), T.reg(), T.totals()) == (U.pd(), U.reg(), U.totals())


@settings(max_examples=150)
@given(st.one_of(small_ideals(), symmetric_ideals(), chain_terms()),
       st.sampled_from([2, 32003]))
# the top band of the lattice is one cone, so only the second band finds pd
@example(ideal([[(1, 2), (4, 1)], [(3, 1), (4, 2)], [(1, 3), (2, 1)]], 4), 2)
def test_pd_walk_matches_the_table(J, p):
    field = FieldSpec(p)
    _walk.cache_clear()
    cold = betti_table(J, field, gen_cap=None)
    assert pd(J, field, gen_cap=None) == cold.pd()
    _walk.cache_clear()
    walked = pd(J, field, gen_cap=None)
    assert walked == cold.pd()
    assert_same_table(betti_table(J, field, gen_cap=None), cold)


def test_pd_walk_stops_at_the_top_band():
    # <x1^3, x2^2, ..., x6^2>: 63 lattice points, one of support 6, of degree 5
    J = MonomialIdeal.from_gens(
        (Monomial.variable(1, 6, 3),) + squares(6).gens[1:], 6
    )
    _walk.cache_clear()
    assert pd(J) == 5
    walk = _walk(J, DEFAULT_FIELD.p, DEFAULT_LATTICE_CAP)
    assert int(walk._visited.sum()) == 1 < len(walk._visited) == 63
    assert betti_table(J).pd() == 5 and walk._visited is None  # released


@pytest.mark.parametrize(
    "J,kwargs",
    [
        (squares(21), {}),
        (ideal([[(63, 1)]], 63), {"gen_cap": None}),
        (squares(5), {"lattice_cap": 10}),
    ],
    ids=["gen_cap", "ambient_width", "lattice_cap"],
)
def test_pd_and_betti_table_raise_the_same_caps(J, kwargs):
    raised = []
    for fn in (pd, betti_table):
        _walk.cache_clear()
        with pytest.raises(CapExceeded) as exc:
            fn(J, **kwargs)
        raised.append((exc.value.what, exc.value.limit, exc.value.actual, str(exc.value)))
    assert raised[0] == raised[1]
