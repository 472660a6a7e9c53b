import functools
import itertools
import math
import operator
import random
import sys
import threading
import time
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
    MonomialPrime,
    OrbitChain,
    RandomChainParams,
    SaturationChain,
    SimplicialComplex,
    Symmetry,
    associated_primes,
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
    _PAD,
    _SOCLE_CANDIDATES,
    _certified_depth,
    _class_ranks,
    _complex_classes,
    _dense,
    _distinct_rows,
    _lattice_matrix,
    _row_keys,
    _socle_columns,
    _socle_witness,
    _strong_cores,
    _symmetric,
    _walk,
    _walk_key,
)
import incideals.betti as betti_module
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


def test_euler_consistency_without_a_gen_cap():
    # None lifts the generator cap only: the Taylor side still has 2^g terms
    assert euler_consistency(squares(4), gen_cap=None)
    with pytest.raises(CapExceeded) as exc:
        euler_consistency(squares(23), gen_cap=None)
    assert (exc.value.what, exc.value.limit, exc.value.actual) == ("euler subsets", 22, 23)


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
def facet_classes(draw, least=1):
    """(s, maximal facets): a nonvoid complex on s vertices, as `_complex_classes`
    yields it."""
    s = draw(st.integers(least, 9))
    facets = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=1, max_size=8))
    return s, complex_on(s, facets).facet_masks()


def strong_core_oracle(s, facets):
    """The strong core (k, facets) of one complex, one vertex deletion at a time.

    The sequential route that `_strong_cores` vectorises: passes over
    v = 0..s-1 delete each dominated v from the current facets (the
    facets through v lose v, and those that become a subset of a facet
    not through v are dropped) until a pass deletes nothing; the
    vertices left are relabelled onto 0..k-1 in order.
    """
    live = set(facets)
    shrinking = True
    while shrinking:
        shrinking = False
        for v in range(s):
            bit = 1 << v
            through = [f for f in live if f & bit]
            if not through or functools.reduce(operator.and_, through) == bit:
                continue
            rest = [g for g in live if not g & bit]
            live = set(rest)
            live.update(f ^ bit for f in through if all((f ^ bit) & ~g for g in rest))
            shrinking = True
    union = functools.reduce(operator.or_, live, 0)
    used = [v for v in range(s) if union >> v & 1]
    relabeled = [sum((f >> v & 1) << new for new, v in enumerate(used)) for f in live]
    return len(used), tuple(sorted(relabeled))


def padded(rows):
    """Facet tuples as one int64 array, each row padded with _PAD."""
    width = max(map(len, rows))
    return np.array([list(f) + [_PAD] * (width - len(f)) for f in rows], dtype=np.int64)


def strong_cores_of(classes):
    """`_strong_cores` on a list of (s, facets), as one (k, facets) pair per row."""
    s = np.array([c[0] for c in classes], dtype=np.int64)
    k, cores = _strong_cores(s, padded([c[1] for c in classes]))
    assert (cores[:, -1] != _PAD).any()  # cut to the widest core
    return [(size, tuple(f for f in row if f != _PAD))
            for size, row in zip(k.tolist(), cores.tolist())]


def strong_core(s, facets):
    (core,) = strong_cores_of([(s, facets)])
    return core


@st.composite
def facet_batches(draw):
    """Lists of (s, maximal facets) with s from 0 to 9, some rows repeated."""
    rows = draw(st.lists(facet_classes(least=0), min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows + repeats))


@given(facet_batches())
def test_strong_cores_match_the_sequential_deletion(batch):
    assert strong_cores_of(batch) == [strong_core_oracle(s, f) for s, f in batch]


@settings(max_examples=50)
@given(facet_batches(), st.integers(1, 3))
def test_strong_cores_do_not_depend_on_the_block_size(batch, rows_per_slab):
    # the subset cube comes in slabs of rows_per_slab rows, the relabelling cube in
    # slabs of about as many cells
    whole = strong_cores_of(batch)
    width = max(len(f) for _, f in batch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti_module, "_BLOCK_CELLS", rows_per_slab * width * width)
        assert strong_cores_of(batch) == whole


@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=30))
def test_distinct_rows_inverse_rebuilds_the_input(rows):
    rows = np.array(rows, dtype=np.int64)
    distinct, inverse = _distinct_rows(rows)
    assert (distinct[inverse] == rows).all()
    assert len(set(map(tuple, distinct.tolist()))) == len(distinct)


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
        k, core = strong_core(s, facets)
        assert _class_ranks(k, core, p) == {i + 1: h for i, h in ref.items() if h}
        dual_used.add(k > 0 and 2 * len(face_closure(core)) > 1 << k)

    check()
    assert dual_used == {False, True}  # both a core and the dual of one were reduced


@given(facet_classes(), st.sampled_from([2, 3, 32003]))
def test_strong_core_is_a_core(case, p):
    s, facets = case
    k, core = strong_core(s, facets)
    # maximal facets on k vertices, each vertex used, none dominated
    assert core == complex_on(k, core).facet_masks() == tuple(sorted(core))
    assert functools.reduce(operator.or_, core) == (1 << k) - 1
    assert dominated_vertices(k, core) == []
    # the cone over it, with apex s, collapses to a point
    cone = tuple(f | 1 << s for f in facets)
    assert strong_core(s + 1, cone) == (1, (1,))
    assert _class_ranks(1, (1,), p) == {}


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_empty_face_complex(p):
    # {empty face} has H~_{-1} = K on any vertex set, the empty one included
    assert homology_ranks(complex_on(0, [0]), FieldSpec(p)) == {-1: 1}
    for s in (0, 1, 3):
        assert strong_core(s, (0,)) == (0, (0,))
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


def rp2_stanley_reisner():
    """The Stanley-Reisner ideal of the 6-vertex projective plane: its
    minimal nonfaces are the triples that are not triangles."""
    keep = {frozenset(t) for t in RP2_TRIANGLES}
    mins = [
        Monomial.from_pairs([(v, 1) for v in s], 6)
        for s in itertools.combinations(range(1, 7), 3)
        if frozenset(s) not in keep
    ]
    return MonomialIdeal.from_gens(tuple(mins), 6)


def test_char_dependence_shows_up():
    J = rp2_stanley_reisner()
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
    rows, weights, _, _ = _lattice_matrix(gens, DEFAULT_LATTICE_CAP, symmetric=True)
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


def subset_maxima(gens):
    """The rows max(S) over the nonempty subsets S of the generator rows."""
    lcms = np.zeros((1 << len(gens), gens.shape[1]), dtype=np.int16)
    for b in range(len(gens)):
        lcms[1 << b : 1 << (b + 1)] = np.maximum(lcms[: 1 << b], gens[b])
    return set(map(tuple, lcms[1:].tolist()))


@settings(max_examples=100)
@given(st.one_of(chain_terms(), symmetric_ideals()))
@example(wide_ideal())  # rows keyed by bytes
def test_lattice_matrix_matches_subset_enumeration(J):
    # the lattice has no characteristic, so none is drawn
    gens = _dense(J)
    assume(len(gens) <= 16)  # 2^gens subsets
    symmetric = _symmetric(gens)
    rows, weights, keys, encode = _lattice_matrix(gens, DEFAULT_LATTICE_CAP, symmetric)
    assert np.array_equal(keys, _row_keys(gens)[0](rows))
    assert np.array_equal(keys, encode(rows))
    listed = rows.tolist()
    assert all(a < b for a, b in zip(listed, listed[1:])), J  # lexicographic
    points = []
    for row, w in zip(rows.tolist(), weights.tolist()):
        orbit = set(itertools.permutations(row)) if symmetric else {tuple(row)}
        assert len(orbit) == w, (J, row)
        points += orbit
    assert len(points) == len(set(points)) == int(weights.sum())
    assert set(points) == subset_maxima(gens), J


def test_lattice_cap_counts_every_point_of_a_symmetric_term():
    # width 6: 701 lattice points in 24 orbits, so only the full count trips
    chain = sym_chain()
    J = term(chain, 6)
    rows = _lattice_matrix(_dense(J), DEFAULT_LATTICE_CAP, symmetric=True)[0]
    assert len(rows) == 24 and len(lcm_lattice(J, gen_cap=None)) == 701
    with pytest.raises(CapExceeded) as exc:
        betti_table(J, gen_cap=None, lattice_cap=700)
    assert exc.value.actual > 700
    assert betti_table(J, gen_cap=None, lattice_cap=701).pd() == 5
    rep = series(chain, "reg", 3, 8, lattice_cap=700)
    assert [n for n, _ in rep.values] == [3, 4, 5]
    assert rep.truncated.startswith("lcm lattice size")
    # every term has depth zero, so a socle witness gives pd without a lattice
    rep = series(chain, "pd", 3, 8, lattice_cap=700)
    assert rep.values == tuple((n, n - 1) for n in range(3, 9))
    assert rep.truncated is None


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


def assert_classes_match_koszul(I, symmetric):
    rows = lattice_rows(I, symmetric)
    classes = {}
    for index, s, facets in _complex_classes(rows, _dense(I)):
        assert (facets[:, -1] != _PAD).any()  # cut to the block's most facets
        for r, k, f in zip(index.tolist(), s.tolist(), facets.tolist()):
            assert r not in classes
            classes[r] = (k, tuple(x for x in f if x != _PAD))
    for r, a in enumerate(rows.tolist()):
        koszul = koszul_complex(I, Monomial.from_dense(a, I.ambient))
        if koszul.is_cone:
            assert r not in classes, (I, a)
        else:
            assert classes[r] == (len(koszul.vertices), koszul.facet_masks()), (I, a)


@given(small_ideals(), symmetric_ideals())
def test_complex_classes_skip_exactly_the_cones(J, K):
    for I, symmetric in ((J, False), (K, True)):
        assert_classes_match_koszul(I, symmetric)


@settings(max_examples=60)
@given(chain_terms())
def test_complex_classes_skip_exactly_the_cones_on_chain_terms(J):
    # chain terms have lattice points with many tight masks
    assert_classes_match_koszul(J, False)


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


def complete_intersection_in_six():
    # <x1^2, ..., x4^2, x5^2 x6>: depth 1, with <x1, ..., x5> associated
    return MonomialIdeal.from_gens(
        squares(6).gens[:4] + (mono([(5, 2), (6, 1)], 6),), 6
    )


def two_lines():
    # <x1 x3, x1 x4, x2 x3, x2 x4> = <x1, x2> /\ <x3, x4>: depth 1, but no
    # associated prime of height 3, so its pd needs the lattice
    return ideal([[(1, 1), (3, 1)], [(1, 1), (4, 1)], [(2, 1), (3, 1)], [(2, 1), (4, 1)]], 4)


def walk_of(J):
    gens, used = _walk_key(J)
    return _walk(gens, len(used), DEFAULT_LATTICE_CAP)


def test_pd_walk_stops_at_the_top_band():
    # 9 lattice points, one of support 4, of degree 2; no cone among them
    J = two_lines()
    _walk.cache_clear()
    assert pd(J) == 2
    walk = walk_of(J)
    assert walk._low == 4
    assert int((walk._core >= 0).sum()) == 1 < len(walk._core) == 9
    assert betti_table(J).pd() == 2
    assert walk._low == 0 and walk._core.min() >= 0
    assert len(walk._lattice) == len(walk._weights) == 9
    # the top band of this lattice is one cone, which the table releases
    K = ideal([[(1, 2), (4, 1)], [(3, 1), (4, 2)], [(1, 3), (2, 1)]], 4)
    walk = walk_of(K)
    assert betti_table(K).pd() == pd(K)
    points = len(lcm_lattice(K))
    assert len(walk._lattice) == len(walk._weights) == len(walk._core) == points - 1
    assert walk._core.min() >= 0


def test_certified_pd_builds_no_lattice():
    # <x1^3, x2^2, ..., x6^2> is artinian: x1^2 x2 ... x6 spans its socle
    J = MonomialIdeal.from_gens(
        (Monomial.variable(1, 6, 3),) + squares(6).gens[1:], 6
    )
    _walk.cache_clear()
    assert pd(J) == 5 and pd(J, FieldSpec(2)) == 5
    walk = walk_of(J)
    assert walk._lattice is None and walk._core is None
    assert betti_table(J).pd() == 5
    # with the lattice built, pd walks the bands of the non-cone rows
    assert pd(J) == 5 and pd(J, FieldSpec(2)) == 5


def assert_walk_shared(J, chars, pd_first):
    """pd and tables over both `chars` from one walk equal cold tables, and
    the walk builds its lattice once and classifies each row once.

    pd first runs pd, pd, table, table: the second pd reuses the rows the
    first classified.  Table first runs table, pd, table, pd: the first pd
    walks the rows left after the cones were released.
    """
    cold = {}
    for p in chars:
        _walk.cache_clear()
        cold[p] = betti_table(J, FieldSpec(p), gen_cap=None)
    _walk.cache_clear()
    built, classified = [], []
    lattice_matrix, complex_classes = betti_module._lattice_matrix, betti_module._complex_classes

    def counted_lattice(*args):
        result = lattice_matrix(*args)
        built.append(len(result[0]))
        return result

    def counted_classes(points, gens):
        classified.extend(map(tuple, points.tolist()))
        return complex_classes(points, gens)

    def check_pd(p):
        assert pd(J, FieldSpec(p), gen_cap=None) == cold[p].pd(), (J, p)

    def check_table(p):
        assert_same_table(betti_table(J, FieldSpec(p), gen_cap=None), cold[p])

    first, second = chars
    if pd_first:
        steps = [(check_pd, first), (check_pd, second),
                 (check_table, first), (check_table, second)]
    else:
        steps = [(check_table, first), (check_pd, second),
                 (check_table, second), (check_pd, first)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti_module, "_lattice_matrix", counted_lattice)
        mp.setattr(betti_module, "_complex_classes", counted_classes)
        for check, p in steps:
            check(p)
    assert len(built) == 1
    assert len(classified) == len(set(classified)) == built[0]


@pytest.mark.parametrize("chars", [(32003, 2), (2, 32003)])
@pytest.mark.parametrize("pd_first", [True, False], ids=["pd_first", "table_first"])
def test_walk_is_shared_across_characteristics(chars, pd_first):
    # pd 2 over GF(32003) and 3 over GF(2); no socle witness, so pd walks bands
    assert_walk_shared(rp2_stanley_reisner(), chars, pd_first)


@settings(max_examples=100)
@given(st.one_of(small_ideals(), symmetric_ideals(), chain_terms()),
       st.permutations([2, 32003]), st.booleans())
def test_drawn_walks_are_shared_across_characteristics(J, chars, pd_first):
    assert_walk_shared(J, tuple(chars), pd_first)


@pytest.mark.parametrize("chars", [(32003, 2), (2, 32003)])
@pytest.mark.parametrize("J", [rp2_stanley_reisner(), complete_intersection_in_six(),
                               ideal([[(1, 2), (4, 1)], [(3, 1), (4, 2)], [(1, 3), (2, 1)]], 4)],
                         ids=["rp2", "complete_intersection", "cone_top_band"])
def test_pd_after_a_table_reads_the_classified_rows(J, chars):
    # a table in one characteristic classifies every row for both
    _walk.cache_clear()
    cold = {p: betti_table(J, FieldSpec(p)).pd() for p in chars}
    _walk.cache_clear()
    betti_table(J, FieldSpec(chars[0]))
    calls = []

    def counted(name):
        original = getattr(betti_module, name)
        return lambda *args: calls.append(name) or original(*args)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_lattice_matrix", "_complex_classes"):
            mp.setattr(betti_module, name, counted(name))
        assert [pd(J, FieldSpec(p)) for p in chars] == [cold[p] for p in chars]
    assert calls == []


@pytest.mark.parametrize(
    "J,kwargs",
    [
        (squares(21), {}),
        (ideal([[(63, 1)]], 63), {"gen_cap": None}),
        (two_lines(), {"lattice_cap": 5}),
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


def test_certified_pd_passes_the_lattice_cap():
    # <x1^2, ..., x5^2> has 31 lattice points, but its socle witness
    # x1 x2 x3 x4 x5 gives pd = 4 before any is built
    _walk.cache_clear()
    assert pd(squares(5), lattice_cap=10) == 4
    with pytest.raises(CapExceeded):
        betti_table(squares(5), lattice_cap=10)
    with pytest.raises(CapExceeded):  # the width and generator caps come first
        pd(squares(21), lattice_cap=10)


def test_depth_one_pd_passes_the_lattice_cap():
    # <x1^2, ..., x4^2, x5^2 x6> has 31 lattice points and no socle, but
    # the annihilator of x1 x2 x3 x4 x5 x6 is <x1, ..., x5>
    J = complete_intersection_in_six()
    _walk.cache_clear()
    assert pd(J, lattice_cap=10) == 4 and pd(J, FieldSpec(2), lattice_cap=10) == 4
    gens, used = _walk_key(J)
    walk = _walk(gens, len(used), 10)
    assert walk._certified == 1 and walk._lattice is None
    with pytest.raises(CapExceeded):
        betti_table(J, lattice_cap=10)


# -- one walk up to unused variables, and cores read from restrictions ---------

def widened(J, shift=0, extra=1):
    """J in `extra` more variables, its own moved up by `shift`."""
    n = J.ambient + extra
    return MonomialIdeal.from_gens(
        tuple(Monomial.from_pairs([(i + shift, e) for i, e in g.exps], n) for g in J.gens), n
    )


def restrictions(J):
    """For each variable x_j with some generator free of it, those
    generators, in the width of J."""
    out = []
    for j in range(1, J.ambient + 1):
        free = tuple(g for g in J.gens if not g.exponent(j))
        if free:
            out.append(MonomialIdeal.from_gens(free, J.ambient))
    return out


def uncompressed_table(J, p):
    """The table from a walk of J as given, unused variables and all."""
    _walk.cache_clear()
    walk = betti_module._Walk(tuple(g.exps for g in J.gens), J.ambient, DEFAULT_LATTICE_CAP)
    return walk.table(p, list(range(1, J.ambient + 1)), J.ambient)


@settings(max_examples=100)
@given(st.one_of(small_ideals(), symmetric_ideals(), chain_terms()), st.data())
def test_walks_warmed_by_restrictions_and_padding_match_cold(J, data):
    fields = {p: FieldSpec(p) for p in (2, 32003)}
    copies = [widened(J), widened(J, shift=1)]
    cold = {}
    for p, field in fields.items():
        _walk.cache_clear()
        cold[p] = betti_table(J, field, gen_cap=None)
        cold[p, 1] = uncompressed_table(copies[1], p)
    _walk.cache_clear()
    for K in data.draw(st.permutations(restrictions(J) + copies)):
        field = fields[data.draw(st.sampled_from(sorted(fields)))]
        if data.draw(st.booleans()):
            pd(K, field, gen_cap=None)
        else:
            betti_table(K, field, gen_cap=None)
    for p, field in fields.items():
        assert_same_table(betti_table(J, field, gen_cap=None), cold[p])
        assert pd(J, field, gen_cap=None) == cold[p].pd()
        assert_same_table(betti_table(copies[1], field, gen_cap=None), cold[p, 1])
        assert pd(copies[1], field, gen_cap=None) == cold[p].pd()


def restriction_low(J, j):
    """The support from which the walk of J's restriction to x_j = 0 has
    classified its rows; above every support when it has no lattice."""
    free = tuple(g for g in J.gens if not g.exponent(j))
    walk = walk_of(MonomialIdeal.from_gens(free, J.ambient)) if free else None
    return J.ambient + 1 if walk is None or walk._lattice is None else walk._low


@pytest.mark.parametrize("warm", ["table", "pd"])
@pytest.mark.parametrize(
    "J",
    [rp2_stanley_reisner(), complete_intersection_in_six(),
     term(SaturationChain(corpus_chain(1014)), 7), term(sym_chain(), 5)],
    ids=["rp2", "complete_intersection", "chain_1014", "sym_chain"],
)
def test_rows_read_from_restrictions_are_not_classified_again(J, warm):
    # a row with a_j = 0 is classified here only below the support from
    # which the walk of the restriction has classified its own; after a
    # table there, never
    _walk.cache_clear()
    cold = betti_table(J, gen_cap=None)
    _walk.cache_clear()
    for R in restrictions(J):
        (betti_table if warm == "table" else pd)(R, gen_cap=None)
    low = [restriction_low(J, j) for j in range(1, J.ambient + 1)]
    if warm == "table":
        assert set(low) <= {0, J.ambient + 1}
    classified = []
    complex_classes = betti_module._complex_classes

    def counted(points, gens):
        classified.append(points)
        return complex_classes(points, gens)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti_module, "_complex_classes", counted)
        assert_same_table(betti_table(J, gen_cap=None), cold)
        assert pd(J, gen_cap=None) == cold.pd()
    for points in classified:
        support = np.count_nonzero(points, axis=1)
        for j, below in enumerate(low):
            assert (support[points[:, j] == 0] < below).all(), (J, j)
    assert len(betti_module._restrictions) > 0
    _walk.cache_clear()
    assert len(betti_module._restrictions) == 0


@pytest.mark.parametrize("shift", [0, 1, 2], ids=["last", "first", "middle"])
def test_padded_symmetric_ideal_matches_the_uncompressed_walk(shift):
    # <x1^2, x2^2, x3^2> is closed under permuting the variables; in width 4
    # it is not, so the orbits of its walk are expanded before padding
    if shift == 2:
        P = ideal([[(1, 2)], [(2, 2)], [(4, 2)]], 4)
    else:
        P = widened(squares(3), shift=shift)
    for p in (2, 32003):
        cold = uncompressed_table(P, p)
        _walk.cache_clear()
        betti_table(squares(3), FieldSpec(p))  # the walk P shares
        T = betti_table(P, FieldSpec(p))
        assert_same_table(T, cold)
        assert T.entries == cold.entries
        assert T.ambient == 4 and T.weights.tolist() == [1] * len(T.weights)
    assert {(i, a): v for i, a, v in T.entries} == koszul_reference(P, FieldSpec(32003))


def test_repeated_betti_table_calls_return_one_table():
    J = squares(3)
    _walk.cache_clear()
    T = betti_table(J)
    P, Q = widened(J), widened(J, shift=1)
    assert betti_table(J) is T
    assert betti_table(P) is betti_table(P) is not T
    assert betti_table(Q) is betti_table(Q) is not betti_table(P)
    assert betti_table(J, FieldSpec(2)) is not T
    assert _walk.cache_info().currsize == 1  # one walk for J and its copies
    assert pd(P) == pd(Q) == T.pd() == 2


def test_caps_are_checked_on_the_ideal_as_given():
    # 21 generators in 31 variables: the generator cap, not the width
    with pytest.raises(CapExceeded) as exc:
        betti_table(widened(squares(21), shift=5, extra=10))
    assert (exc.value.what, exc.value.actual) == ("betti generators", 21)
    # one variable used of 63: the width cap, for pd and the table alike
    for fn in (pd, betti_table):
        with pytest.raises(CapExceeded) as exc:
            fn(ideal([[(63, 1)]], 63), gen_cap=None)
        assert (exc.value.what, exc.value.actual) == ("ambient width", 63)
    J = ideal([[(62, 1)]], 62)
    assert pd(J) == 0
    degrees, rows, dims = betti_table(J).expanded
    assert rows.shape == (1, 62) and rows[0, 61] == 1 and rows.sum() == 1


def test_lcm_lattice_of_padded_ideals():
    for J in (squares(3), term(SaturationChain(corpus_chain(1014)), 5)):
        for P in (widened(J), widened(J, shift=1, extra=2)):
            assert lcm_lattice(P, gen_cap=None) == subset_lcms(P), P


def test_threads_reading_restrictions_match_cold_tables():
    # each walk reads its restrictions under their locks, inside its own:
    # threads walking a chain in opposite orders neither deadlock nor mix rows
    chain = SaturationChain(corpus_chain(1017))
    ideals = [term(chain, n) for n in range(3, 8)]
    ideals += [widened(J, shift=1) for J in ideals]
    cold = {}
    for J in ideals:
        _walk.cache_clear()
        cold[J] = betti_table(J, gen_cap=None)
    _walk.cache_clear()
    got = [[] for _ in range(4)]
    errors = []

    def work(k):
        try:
            for J in ideals[:: 1 if k % 2 else -1]:
                got[k].append((J, betti_table(J, gen_cap=None), pd(J, gen_cap=None)))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for done in got:
        assert len(done) == len(ideals)
        for J, T, d in done:
            assert_same_table(T, cold[J])
            assert d == cold[J].pd()


def test_interrupted_classification_is_not_read_by_the_next_width():
    # a walk raises the support from which its rows are classified only
    # once a band is done: after a classification cut short, the walk of
    # the next width reads none of the band's rows from it
    chain = SaturationChain(corpus_chain(1014))
    J, K = term(chain, 5), term(chain, 6)
    cold = {}
    for I in (J, K):
        _walk.cache_clear()
        cold[I] = betti_table(I, gen_cap=None)
    _walk.cache_clear()
    complex_classes = betti_module._complex_classes

    def interrupted(points, gens):
        blocks = complex_classes(points, gens)
        yield next(blocks)
        raise RuntimeError("interrupted after one block")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti_module, "_complex_classes", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            betti_table(J, gen_cap=None)
    assert walk_of(J)._low == J.ambient + 1
    assert_same_table(betti_table(K, gen_cap=None), cold[K])
    assert pd(K, gen_cap=None) == cold[K].pd()
    assert_same_table(betti_table(J, gen_cap=None), cold[J])
    _walk.cache_clear()


# -- the depth certificates ---------------------------------------------------

def socle_candidates(J):
    return math.prod(map(len, _socle_columns(_dense(J))))


def is_socle_monomial(J, u, skip=None):
    """x^u is outside J and x_i x^u is in J for every i but `skip`."""
    x = Monomial.from_dense(u, J.ambient)
    return not J.contains(x) and all(
        J.contains(x * Monomial.variable(i, J.ambient))
        for i in range(1, J.ambient + 1)
        if i != skip
    )


@settings(max_examples=150)
@given(st.one_of(small_ideals(), symmetric_ideals(), chain_terms()),
       st.sampled_from([2, 32003]))
# depth 1, and x1 x2 x3^2 is in the ideal, though for each i a generator
# exceeds it at x_i alone, by 1: only the membership test rules it out
@example(ideal([[(1, 1), (2, 1), (3, 1)], [(1, 1), (2, 2)], [(1, 2), (3, 2)],
                [(2, 1), (3, 3)]], 3), 2)
def test_socle_witness_certifies_depth_zero(J, p):
    assume(socle_candidates(J) <= _SOCLE_CANDIDATES)
    n = J.ambient
    u = _socle_witness(_dense(J))
    assert u is None or is_socle_monomial(J, u.tolist())
    maximal = MonomialPrime(frozenset(range(1, n + 1)))
    assert (u is not None) == (maximal in associated_primes(J))
    assert (u is not None) == (betti_table(J, FieldSpec(p), gen_cap=None).pd() == n - 1)


@settings(max_examples=150)
@given(st.one_of(small_ideals(), symmetric_ideals(), chain_terms()))
@example(complete_intersection_in_six())
@example(two_lines())  # depth 1, but not certified
def test_depth_one_certificate(J):
    assume(socle_candidates(J) <= _SOCLE_CANDIDATES)
    n, gens = J.ambient, _dense(J)
    depth, witness = _certified_depth(gens)
    assert depth in (0, 1, None)
    assert (witness is not None) == (depth == 0)
    variables = frozenset(range(1, n + 1))
    primes = associated_primes(J)
    below = {MonomialPrime(variables - {j}) for j in variables} if n > 1 else set()
    assert (depth == 1) == (MonomialPrime(variables) not in primes and bool(below & primes))
    if depth != 1:
        return
    witnessed = 0
    for j in range(1, n + 1):
        u = _socle_witness(np.delete(gens, j - 1, axis=1))
        if u is not None:
            w = np.insert(u, j - 1, gens[:, j - 1].max())
            assert is_socle_monomial(J, w.tolist(), skip=j), (J, j, w)
            witnessed += 1
    assert witnessed
    for p in (2, 32003):
        assert betti_table(J, FieldSpec(p), gen_cap=None).pd() == n - 2


def test_depth_one_certificate_reaches_width_17_on_chain_1017():
    # saturated chain 1017, <x2 x3, x3^2, x1^2 x2^2>, has depth 1 at every
    # width; its lattice passes the default cap at width 13
    started = time.monotonic()
    report = series(SaturationChain(corpus_chain(1017)), "pd", 5, 17)
    elapsed = time.monotonic() - started
    assert report.truncated is None
    assert report.values == tuple((n, n - 2) for n in range(5, 18))
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_socle_witness_gives_up_past_its_bound():
    # <x1^2, ..., x17^2, x1 x2, ..., x16 x17> is artinian, but each column
    # has two candidate exponents, so there are 2^17 candidates
    n = 17
    gens = [mono([(i, 2)], n) for i in range(1, n + 1)]
    gens += [mono([(i, 1), (i + 1, 1)], n) for i in range(1, n)]
    J = MonomialIdeal.from_gens(tuple(gens), n)
    assert socle_candidates(J) == 2**17 > _SOCLE_CANDIDATES
    assert _socle_witness(_dense(J)) is None


# -- socle witnesses carried along a chain ------------------------------------

def free_of_last(J):
    """The generators of J free of x_n, in n - 1 variables."""
    n = J.ambient
    return MonomialIdeal.from_gens(
        tuple(Monomial(g.exps, n - 1) for g in J.gens if g.exponent(n) == 0), n - 1
    )


@settings(max_examples=100)
@given(st.one_of(chain_terms(), symmetric_ideals()), st.sampled_from([2, 32003]))
# <x1^2, x1 x2, x2^2, x1 x3>: the witness x2 of <x1^2, x1 x2, x2^2> extends
# to none, since no generator with x3 lies below it, and the search finds
# x1.  This is no chain term: on a saturated chain, with J = I_{n-1}, some
# generator h <= u + e_{n-1} of I_{n-1} has an image under x_{n-1} -> x_n
# that lies below u in the first n - 1 columns, so an extension is found
@example(ideal([[(1, 2)], [(1, 1), (2, 1)], [(2, 2)], [(1, 1), (3, 1)]], 3), 2)
def test_carried_socle_witness(J, p):
    # symmetric_ideals() are the terms of the Sym chains of their patterns
    n = J.ambient
    assume(n > 1 and len(_walk_key(J)[1]) == n)
    R = free_of_last(J)
    assume(R.gens and len(_walk_key(R)[1]) == n - 1)
    _walk.cache_clear()
    pd(R, gen_cap=None)  # the walk of R is certified first, as in a series
    value = pd(J, FieldSpec(p), gen_cap=None)
    walk = walk_of(J)
    carried = walk._extended(walk_of(R))
    if carried is not None:
        assert is_socle_monomial(J, carried.tolist())
        assert walk._certified == 0 and walk._witness.tolist() == carried.tolist()
    if walk._certified == 0:
        assert is_socle_monomial(J, walk._witness.tolist())
        assert value == n - 1
    complete = socle_candidates(J) <= _SOCLE_CANDIDATES
    for q in (2, 32003):
        try:
            table = betti_table(J, FieldSpec(q), gen_cap=None)
        except CapExceeded:
            continue
        if walk._certified == 0 or complete:
            assert (table.pd() == n - 1) == (walk._certified == 0)


def test_restriction_walks_built_past_the_bound_are_the_series_walks():
    # saturated chain 1014 has 2^(n-1) candidates at width n: from width 20
    # the walk builds and certifies the walks of widths 19, 18 and 17, and
    # the last searches within the bound
    chain = SaturationChain(corpus_chain(1014))
    _walk.cache_clear()
    assert pd(term(chain, 20), gen_cap=None) == 19
    assert _walk.cache_info().currsize == 4
    for n in (17, 18, 19):
        walk = walk_of(term(chain, n))
        assert walk._certified == 0 and walk._lattice is None
        assert is_socle_monomial(term(chain, n), walk._witness.tolist())
    assert _walk.cache_info().currsize == 4  # the terms' own walks


def test_symmetric_generators_search_one_deleted_column(monkeypatch):
    # every triple product in five variables: depth 2, so neither depth is
    # certified; a permuted column gives the same answer as the last
    J = MonomialIdeal.from_gens(
        tuple(Monomial.from_pairs([(i, 1) for i in t], 5)
              for t in itertools.combinations(range(1, 6), 3)), 5
    )
    searched = []
    witness = betti_module._socle_witness

    def counted(gens, columns=None):
        searched.append(gens.shape[1])
        return witness(gens, columns)

    monkeypatch.setattr(betti_module, "_socle_witness", counted)
    assert _certified_depth(_dense(J)) == (None, None)
    assert searched == [5, 4]


@pytest.mark.parametrize(
    "chain, top",
    [(SaturationChain(corpus_chain(1014)), 11), (sym_chain(), 15)],
    ids=["chain_1014_saturated", "sym_chain"],
)
def test_carried_pd_matches_the_table(chain, top):
    # the pd series, carried from width to width with no lattice built,
    # against the tables (on walks of their own, the lattice cap lifted)
    _walk.cache_clear()
    report = series(chain, "pd", chain.index, top)
    assert report.truncated is None
    for n, value in report.values:
        J = term(chain, n)
        assert walk_of(J)._lattice is None
        for p in (2, 32003):
            assert betti_table(J, FieldSpec(p), gen_cap=None, lattice_cap=10**9).pd() == value


def test_threads_carrying_witnesses_agree():
    # a walk certifies its restriction's walk under that walk's lock, inside
    # its own: threads running a chain up, down (building the walks of the
    # restrictions past the search bound) and through tables of the small
    # widths neither deadlock nor disagree
    chain = SaturationChain(corpus_chain(1014))
    ideals = [term(chain, n) for n in range(5, 25)]
    _walk.cache_clear()
    got = [[] for _ in range(4)]
    errors = []

    def work(k):
        try:
            for J in ideals[:: 1 if k % 2 else -1]:
                if k == 2 and J.ambient <= 8:
                    got[k].append((J, betti_table(J, gen_cap=None).pd()))
                got[k].append((J, pd(J, gen_cap=None)))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for done in got:
        assert len(done) >= len(ideals)
        assert all(d == J.ambient - 1 for J, d in done)
    for J in ideals:
        walk = walk_of(J)
        if walk._lattice is None:
            assert is_socle_monomial(J, walk._witness.tolist())
