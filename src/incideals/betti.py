"""Multigraded Betti numbers of monomial ideals over a prime field.

For a monomial ideal J and a multidegree a, beta_{i,a}(J) is the K-dimension
of H~_{i-1} of the upper Koszul complex of J at a: the complex on the
support of x^a whose faces F satisfy x^a / x^F in J.  Each generator g of J
dividing x^a contributes the full simplex on the vertices where g stays
strictly below a, so the complex is a union of simplices and is determined
by those facets.

Betti numbers vanish away from the lcm lattice (all least common multiples
of subsets of the minimal generators), so a table is built in three stages.
`_lattice_matrix` closes the generator set under pairwise lcm, in time
proportional to the lattice size, keeping the points as one sorted array
of keys (integers, or bytes for very wide exponent ranges).
`_complex_classes` reads each point's complex off its divisibility and
tight-vertex masks (g dividing x^a is tight at each j with g_j = a_j):
the maximal facets are the complements of the minimal tight masks.  For
each block of points, `_distinct_rows` finds the distinct facet sets,
`_strong_cores` shrinks all of them to their strong cores at once, and
`_class_ranks` computes the homology of each distinct core once per
characteristic.

Every coordinate of a = lcm(S) is attained by some g in S, which divides
x^a, so each support vertex of a lattice point is tight for a divisor.
Cones, which carry no homology, are found from the minimal tight masks
alone: a vertex in none of them lies in every maximal facet.

When the generator set is closed under permuting the variables (read off
the generators, as the Sym chain terms are), so is the Betti table:
beta_{i, sigma a} = beta_{i, a}.  The closure then keeps one point per
S_n-orbit, its descending sort, and weighs it by its orbit size (Murai,
"Betti tables of monomial ideals fixed by permutations").  The lattice
cap still counts the whole lattice, the sum of the orbit sizes, so it
trips at the same size with or without symmetry.

A `BettiTable` is a set of arrays, one row per nonzero
(i, representative, dim) with the representative's orbit size: pd, reg
and the totals are array reductions.  Consumers read `expanded`, the same
arrays with every orbit expanded, one int16 row per multidegree, sorted by
i and then by `Monomial.sort_key`; it is built the first time it is read
and then kept.  `entries` is its `Monomial` view, for the tests and the
Euler audit.

Homology ranks come from sparse column reduction over GF(p), one boundary
map at a time from the top face size down, with clearing: a face that is
the pivot of a reduced column one level up has a column that reduces to
zero, so it is skipped (Chen-Kerber, "Persistent homology computation
with a twist", 2011).  Three shortcuts keep large saturated-chain ideals
tractable; all are cross-checked in the test suite against the dense
reference path in ``simplicial``:

* cones are skipped before any face is enumerated;
* every other complex is shrunk to its strong core, on its facet masks
  alone, before any face is enumerated: a vertex v is dominated when
  every facet through v also contains some other vertex, and dominated
  vertices are deleted in passes over v = 0, 1, ... until a pass deletes
  none, for all complexes of a block at once.  Each deletion is a strong
  deformation retract (Barmak-Minian, "Strong homotopy types, nerves and
  collapses", 2012), so the reduced homology is unchanged over every
  field, and the core does not depend on p;
* per core, either the complex itself or its combinatorial Alexander
  dual is reduced, whichever has fewer faces, using
  dim H~_{i-1}(D) = dim H~_{s-i-2}(dual D) over a field.  The dual has
  exactly 2^s - |D| faces, so the choice needs no enumeration.

The caches are ``functools.lru_cache``s.  `_class_ranks` maps (core, p)
to the ranks (up to 65536 entries), so that the many repeated orbit
patterns along a chain are reduced once: many classes share one core, so
few rank computations remain.  Cores themselves are not cached across
walks; within a block each distinct facet set is shrunk once.  Each
``cache_info()`` reports hits and misses.

The other cache, `_walk`, keys a `_Walk` by the ideal with its unused
variables dropped and by lattice_cap alone (up to 256 walks).  Adding a
variable that no generator uses changes no Betti number, so an ideal,
its copies in wider rings and its shifts share one walk: `_walk_key`
relabels the used variables onto 1..k in order and keeps the generator
order, and `betti_table` scatters the walk's rows into the columns the
ideal uses, once per (p, variables, width).  Everything a walk holds
but its answers is the same in every characteristic.  A walk answers two
questions lazily, pd and the table, each per p, and builds the
lattice, with the lattice cap checked, only when one of them needs it;
it counts the support of each row then, once.  Classifying a point
records only the index of its strong core among the walk's distinct
cores, with Python work once per distinct core of a block, not once per
point; cones are dropped.  The
rows are classified down one support threshold: those of support at
least the threshold are classified, the rest are not yet.  p enters
through `_class_ranks`, once per distinct core, and the ranks are
scattered onto the rows.  So each point is classified at most once for
all characteristics: `betti --char 2` after `betti --char 32003` on one
ideal only computes ranks.  `table` lowers the threshold to 0 and
assembles the `BettiTable` from the rows kept; `pd` needs far less.
While no lattice is built it looks for a certified depth of S/I, 0 or
1, and then pd = n - 1 - depth (Auslander-Buchsbaum) in every
characteristic, with no lattice built and no lattice cap tripped.
Depth 0 is a socle monomial x^u of S/I (u outside I, x_i x^u in I for
every i).  Its upper Koszul complex at u + (1, ..., 1) is the boundary
of the (n-1)-simplex, so pd = n - 1, the largest value there is; such a
u exists exactly when pd = n - 1.  The candidates are the products of
the g_j - 1 over the generator exponents, at most 2^16 of them, tested
in blocks, once per walk.  Depth 1 needs that search complete and
empty, so depth >= 1, and a socle monomial x^u of the generators with
some column j deleted (x_j set to 1).  Then x^u times a power of x_j
at least every x_j exponent is annihilated by exactly the prime of all
variables but x_j, which is so associated, and depth S/I <= 1
(Bruns-Herzog, Prop. 1.2.13).  Columns are tried from the last, each
search within the same bound.  Depth 1 with no associated prime of
height n - 1, as of <x1, x2> /\\ <x3, x4>, is not certified.  Otherwise
pd walks the support bands of the lattice rows, built if need be:
beta_{i,a} != 0 implies i <= |supp a| - 1, so it lowers the threshold
to the top support of the rows kept first, and then, if the best degree
found over GF(p) is `best`, to best + 2; no point of smaller support can
exceed `best`.  Both bands pass `_complex_classes` a subset of the
lattice points, which is all its cone test needs, and after a table pd
classifies nothing.
`pd`, the pd series and the pd check take the walk; `betti_table` and
every caller that needs the table anyway (the `betti` CSV, the other
verify checks, the other series metrics) take the table.

Walks also share classified points through restriction.  The lattice
points with a_j = 0 are exactly the lcm lattice of the generators free
of x_j, and the upper Koszul complex at such a point sees only those
generators (Hochster's restriction; Miller-Sturmfels, ch. 1 and 5).
`_restrictions` indexes the live walks with a built lattice by their
generator matrix, holding none of them alive.  Before a walk classifies
the rows of a support band, it looks up the walk of each restriction
there and takes the strong core of each row of the band with a_j = 0
that the restriction has classified, found by one `searchsorted` of the
row keys; a row the restriction dropped was a cone and is dropped here
too.  Along a chain, where each truncation's restriction to x_n = 0 is
often the previous one, most points are then classified once for the
whole chain.
"""
from __future__ import annotations

import math
import threading
import weakref
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapExceeded, ImproperIdeal
from .gflinalg import DEFAULT_FIELD, FieldSpec
from .monomials import Monomial, MonomialIdeal, _arrangements, _orbit_size
from .simplicial import SimplicialComplex, face_closure

__all__ = [
    "BettiTable",
    "betti_table",
    "lcm_lattice",
    "koszul_complex",
    "pd",
    "reg",
    "euler_consistency",
    "reg_colon_bounds_check",
    "DEFAULT_GEN_CAP",
    "DEFAULT_LATTICE_CAP",
]

DEFAULT_GEN_CAP = 20
DEFAULT_LATTICE_CAP = 500_000

_MAX_AMBIENT = 62  # bitmask faces live in int64
_MAX_WEIGHT = int(np.iinfo(np.int64).max)  # lattice points per row, and so the cap
_BLOCK_CELLS = 1 << 18  # cells per block temporary; bounds peak memory
_PAD = int(np.iinfo(np.int64).max)  # pads facet rows; sorts after every facet mask


# -- dense exponents -------------------------------------------------------

_MAX_EXPONENT = int(np.iinfo(np.int16).max)


def _dense(ideal: MonomialIdeal) -> np.ndarray:
    return _exponent_matrix([g.exps for g in ideal.gens], ideal.ambient)


def _exponent_matrix(gens, width: int) -> np.ndarray:
    """One int16 row per generator, given as (index, exponent) pairs."""
    mat = np.zeros((len(gens), width), dtype=np.int16)
    for row, exps in enumerate(gens):
        for i, e in exps:
            if e > _MAX_EXPONENT:
                raise ValueError(
                    f"exponent {e} of x{i} exceeds {_MAX_EXPONENT}, the largest"
                    " supported in Betti computations"
                )
            mat[row, i - 1] = e
    return mat


# -- lcm lattice -----------------------------------------------------------

def _row_keys(gens: np.ndarray):
    """Sortable keys for exponent rows bounded by the generators.

    Returns (encode, decode, joins): rows to keys, keys to rows, and the
    keys of max(row, g) for every row of a key block and every generator
    g, row-major.  Rows are keyed by a mixed-radix int64 (radix max + 1
    per column, column 0 most significant) when the radix product fits,
    else by their big-endian bytes.  Either way the order of the keys is
    the lexicographic order of the rows.
    """
    cols = gens.shape[1]
    radix = [int(m) + 1 for m in gens.max(axis=0)]
    if math.prod(radix) > 2**63:
        void = np.dtype((np.void, 2 * cols))

        def encode(rows: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(rows, dtype=">u2").view(void).ravel()

        def decode(keys: np.ndarray) -> np.ndarray:
            return keys.view(">u2").reshape(-1, cols).astype(np.int16)

        def joins(keys: np.ndarray) -> np.ndarray:
            rows = decode(keys)
            return encode(np.maximum(rows[:, None, :], gens[None, :, :]))

        return encode, decode, joins

    place = np.array([math.prod(radix[j + 1 :]) for j in range(cols)], dtype=np.int64)
    radix_arr = np.array(radix, dtype=np.int64)
    scaled = gens * place  # max(x, y) * c = max(x * c, y * c) for c >= 0

    def encode(rows: np.ndarray) -> np.ndarray:
        return (rows * place).sum(axis=1)

    def decode(keys: np.ndarray) -> np.ndarray:
        return (keys[:, None] // place % radix_arr).astype(np.int16)

    def joins(keys: np.ndarray) -> np.ndarray:
        out = np.zeros((len(keys), len(gens)), dtype=np.int64)
        part = np.empty_like(out)
        for j in range(cols):
            digit = keys // place[j] % radix_arr[j] * place[j]
            np.maximum(digit[:, None], scaled[None, :, j], out=part)
            out += part
        return out.ravel()

    return encode, decode, joins


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # np.unique hashes integer keys before sorting them, which is several
    # times slower than one sort on the candidate blocks here
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _symmetric(gens: np.ndarray) -> bool:
    """Whether permuting the variables maps the generator set to itself.

    The generators are distinct, so the set is closed exactly when each
    sorted exponent pattern occurs as often as its orbit has points.
    """
    patterns = Counter(map(tuple, np.sort(gens, axis=1).tolist()))
    return all(c == _orbit_size(row) for row, c in patterns.items())


def _lattice_matrix(
    gens: np.ndarray, lattice_cap: int, symmetric: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable]:
    """All exponentwise maxima of nonempty generator subsets, with weights.

    Closure under pairwise maximum with single generators reaches every
    subset maximum, and each lattice element is expanded only once.  With
    `symmetric` (the generator set, hence the lattice, is closed under
    permuting the variables) only one point per orbit is kept, its
    descending sort: if b is in the lattice and sigma sorts b, then
    sort(max(b, g)) = sort(max(sort b, sigma g)) and sigma g is again a
    generator.  The lattice is one sorted array of row keys: each block
    of joins is located in it by one `searchsorted`, which both tests
    membership and gives the insertion points of the new keys.  Returns the
    rows in increasing key order, which is lexicographic, the number of
    lattice points each stands for (its orbit size, else 1), the sorted
    keys themselves, and the `encode` of `_row_keys(gens)` that made them.
    The cap counts the whole lattice, not the rows; it is checked after
    every block, so it trips inside the round that crosses it.
    """
    encode, decode, joins = _row_keys(gens)
    limit = min(lattice_cap, _MAX_WEIGHT)

    def canonical(keys: np.ndarray) -> np.ndarray:
        if symmetric:
            keys = encode(np.sort(decode(keys), axis=1)[:, ::-1])
        return _sorted_unique(keys)

    total = 0

    def count(fresh: np.ndarray) -> None:
        # orbit sizes are exact Python ints until the cap bounds them
        nonlocal total
        total += sum(map(_orbit_size, decode(fresh).tolist())) if symmetric else len(fresh)
        if total > limit:
            raise CapExceeded("lcm lattice size", limit, total)

    seen = frontier = canonical(encode(gens))
    count(seen)
    block_rows = max(1, 2_000_000 // max(1, gens.size))
    while len(frontier):
        fresh_parts = []
        for lo in range(0, len(frontier), block_rows):
            keys = canonical(joins(frontier[lo : lo + block_rows]))
            at = np.searchsorted(seen, keys)
            new = seen[np.minimum(at, len(seen) - 1)] != keys
            if not new.any():
                continue
            fresh = keys[new]
            count(fresh)
            seen = np.insert(seen, at[new], fresh)
            fresh_parts.append(fresh)
        frontier = np.concatenate(fresh_parts) if fresh_parts else seen[:0]
    rows = decode(seen)
    weights = list(map(_orbit_size, rows.tolist())) if symmetric else np.ones(len(rows))
    return rows, np.asarray(weights, dtype=np.int64), seen, encode


def lcm_lattice(
    ideal: MonomialIdeal,
    gen_cap: int | None = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> frozenset[Monomial]:
    """The set of lcms of nonempty subsets of the minimal generators."""
    if not ideal.is_proper:
        raise ImproperIdeal("the lcm lattice needs a nonzero proper ideal")
    if gen_cap is not None and len(ideal.gens) > gen_cap:
        raise CapExceeded("lcm lattice generators", gen_cap, len(ideal.gens))
    rows = _lattice_matrix(_dense(ideal), lattice_cap, symmetric=False)[0]
    return frozenset(Monomial.from_dense(row, ideal.ambient) for row in rows)


# -- depth certificates ----------------------------------------------------

_SOCLE_CANDIDATES = 1 << 16  # socle candidates tried before the lattice walk


def _socle_columns(gens: np.ndarray) -> list[np.ndarray]:
    """The exponents u_j of the candidate socle monomials x^u of S/I, per column.

    x_j x^u in I with x^u outside means that some generator g divides
    x_j x^u but not x^u, so g_j = u_j + 1: the candidates in column j are
    g_j - 1 over the positive g_j, ascending.  A column with none is a
    variable that is a nonzerodivisor on S/I, and then the socle is zero.
    """
    return [_sorted_unique(col[col > 0]) - 1 for col in gens.T]


def _socle_witness(gens: np.ndarray) -> np.ndarray | None:
    """A monomial x^u in the socle of S/I, or None when none is found.

    x^u is in the socle when u is outside I and x_i x^u is in I for every
    i: no generator is <= u, and for every i some generator exceeds u at
    i alone, by exactly 1.  The upper Koszul complex at u + (1, ..., 1) is
    then the boundary of the (n-1)-simplex, so beta_{n-1, u+1} = 1 in
    every characteristic and pd I = n - 1, the most Hilbert's syzygy
    theorem allows; by Auslander-Buchsbaum, a socle exists exactly when pd
    I = n - 1.  The candidates of `_socle_columns` are tried in
    lexicographic order, in blocks of at most _BLOCK_CELLS (candidate,
    generator) pairs, up to the first witness; past
    _SOCLE_CANDIDATES of them none is tried, and None proves nothing.
    """
    columns = _socle_columns(gens)
    count = math.prod(map(len, columns))
    if not count or count > _SOCLE_CANDIDATES:
        return None
    place = [math.prod(map(len, columns[j + 1 :])) for j in range(len(columns))]
    most = max(1, _BLOCK_CELLS // len(gens))
    lo, rows = 0, min(64, most)  # blocks double: an early witness costs little
    while lo < count:
        k = np.arange(lo, min(count, lo + rows))
        lo, rows = lo + rows, min(2 * rows, most)
        u = np.stack([c[k // q % len(c)] for c, q in zip(columns, place)], axis=1)
        # the sum over j of max(g_j - u_j, 0), each clipped at 2: 0 when
        # g <= u, and 1 when g exceeds u at one column only, by exactly 1
        excess = np.zeros((len(u), len(gens)), dtype=np.int16)
        for j in range(gens.shape[1]):
            over = gens[:, j] - u[:, j, None]
            excess += np.clip(over, 0, 2, out=over)
        alive = np.flatnonzero(excess.all(axis=1))
        single = excess[alive] == 1
        for j in range(gens.shape[1]):
            hit = (single & (gens[:, j] == u[alive, j, None] + 1)).any(axis=1)
            alive, single = alive[hit], single[hit]
        if len(alive):
            return u[alive[0]]
    return None


def _certified_depth(gens: np.ndarray) -> int | None:
    """depth S/I, when a socle witness settles it at 0 or 1; else None.

    Depth 0 is a socle witness of I.  Depth 1 needs two facts.  First,
    the search for one was complete and found none, so the maximal ideal
    m is not associated and depth S/I >= 1.  Second, for some column j,
    the generators with x_j set to 1 (column j deleted) have a socle
    witness u.  Then w = (u, the largest x_j exponent) has x^w outside I
    and x_i x^w in I for every i != j, and no power of x_j takes x^w into
    I, so the annihilator of x^w is the prime m_j generated by every
    variable but x_j.  So depth S/I <= dim S/m_j = 1 (Bruns-Herzog,
    Prop. 1.2.13).  Ass and the socle do not depend on the field, so
    neither does the depth.  Columns are tried from the last, the new
    variable of a chain term, skipping each x_j with a power among the
    generators: x_j = 1 makes those the unit ideal, which has no socle.
    Deleting a column keeps the other columns' candidates, so each search
    is bounded by _SOCLE_CANDIDATES, as the first one is.  Depth 1 with
    no associated prime of height n - 1, as of <x1 x3, x1 x4, x2 x3,
    x2 x4> = <x1, x2> /\\ <x3, x4>, is not certified.
    """
    if math.prod(map(len, _socle_columns(gens))) > _SOCLE_CANDIDATES:
        return None
    if _socle_witness(gens) is not None:
        return 0
    for j in reversed(range(gens.shape[1])):
        rest = np.delete(gens, j, axis=1)
        if rest.any(axis=1).all() and _socle_witness(rest) is not None:
            return 1
    return None


# -- upper Koszul complexes ------------------------------------------------

def koszul_complex(ideal: MonomialIdeal, a: Monomial) -> SimplicialComplex:
    """The upper Koszul complex of the ideal at multidegree a.

    Faces are subsets F of supp(a) with x^a / x^F in the ideal; the void
    complex is returned when x^a itself is outside.
    """
    if a.ambient != ideal.ambient:
        raise ImproperIdeal(f"multidegree {a!r} not in width {ideal.ambient}")
    verts = a.support
    position = {v: b for b, v in enumerate(verts)}
    masks = []
    for g in ideal.gens:
        if g.divides(a):
            mask = 0
            for i, e in a.exps:
                if g.exponent(i) < e:
                    mask |= 1 << position[i]
            masks.append(mask)
    if not masks:
        return SimplicialComplex.void(verts)
    return SimplicialComplex.from_facets_masks(masks, verts)


# -- homology of a facet class ---------------------------------------------

def _ranks_from_faces(faces: set[int], s: int, p: int) -> dict[int, int]:
    """Nonzero dims of H~_{k-1} indexed by face size k, from faces on s vertices.

    Sparse column reduction over GF(p), one boundary map at a time from the
    top face size down.  A column is a dict {face: coeff} and its pivot is
    its largest face; reduced columns are stored by pivot, scaled to pivot
    coefficient 1.  Faces that are pivots of the map above are skipped
    (clearing): each is the largest face of a cycle, so its column is a
    combination of the columns of smaller faces.
    """
    levels: list[list[int]] = [[] for _ in range(s + 1)]
    for f in faces:
        levels[f.bit_count()].append(f)
    ranks = [0] * (s + 2)
    above: dict[int, dict[int, int]] = {}
    for k in range(s, 0, -1):
        pivots: dict[int, dict[int, int]] = {}
        for f in levels[k]:
            if f in above:
                continue
            col = {}
            sign, b = 1, f
            while b:
                low = b & -b
                col[f ^ low] = sign
                sign = p - sign
                b ^= low
            while col:
                piv = max(col)
                c = col[piv]
                red = pivots.get(piv)
                if red is None:
                    if c != 1:
                        inv = pow(c, -1, p)
                        col = {g: v * inv % p for g, v in col.items()}
                    pivots[piv] = col
                    break
                for g, r in red.items():
                    v = (col.get(g, 0) - c * r) % p
                    if v:
                        col[g] = v
                    else:
                        del col[g]
        ranks[k] = len(pivots)
        above = pivots
    return {
        k: h
        for k, level in enumerate(levels)
        if (h := len(level) - ranks[k] - ranks[k + 1])
    }


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array, and for each row its index among them.

    One argsort of the rows' bytes: the distinct rows come out in byte
    order, which is all that grouping needs.  `np.unique` would also do,
    but its first call in an interpreter costs 10-20 ms.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


def _strong_cores(s: np.ndarray, facets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strong cores (k, facets) of complexes given by maximal facets, row-wise.

    Row r is a complex on s[r] vertices whose maximal facets are the
    masks of facets[r], padded with _PAD.  A vertex v is dominated when
    every facet through v also contains some other vertex, that is when
    the AND of the facets through v is more than v alone; deleting it
    keeps the complex's strong homotopy type (Barmak-Minian, "Strong
    homotopy types, nerves and collapses", 2012), so the reduced homology
    in every characteristic.  All rows are shrunk together, in passes over
    v = 0, 1, ...: a row deletes v when v is dominated there, and a row
    that deleted nothing in a pass is a core.  Deleting v takes v out of
    the facets through it and drops each that becomes a subset of a facet
    not through v.  The facets stay an antichain and none becomes empty,
    so dropped facets and padding can be 0 while rows shrink: the empty
    face is a facet only of {empty face}, where it stands alone.  The
    vertices still in a facet are then relabelled onto 0..k-1 in order,
    and the facets sorted and padded with _PAD again.  A cone ends as a
    single vertex.  The subset tests of a step form a rows x facets x
    facets cube and the relabelling a rows x facets x s cube, each taken
    in slices of rows of at most _BLOCK_CELLS cells (one row when a row's
    part alone is larger); the other temporaries are rows x facets, as
    large as the input.
    """
    masks = np.where(facets == _PAD, 0, facets)
    width = masks.shape[1]
    slab = max(1, _BLOCK_CELLS // (width * width))
    active = np.arange(len(masks))
    while len(active):
        live = masks[active]
        deleted = np.zeros(len(active), dtype=bool)
        for v in range(int(s[active].max())):
            bit = np.int64(1) << v
            through = (live & bit) != 0
            # the AND of the facets through v holds v, and more iff v is
            # dominated; with no facet through v it is -1
            meet = np.bitwise_and.reduce(live, axis=1, where=through, initial=-1)
            rows = np.flatnonzero(meet > bit)
            if not len(rows):
                continue
            deleted[rows] = True
            for lo in range(0, len(rows), slab):
                at = rows[lo : lo + slab]
                cut, hit = live[at] & ~bit, through[at]
                # a facet through v that now lies in a facet not through v is dropped
                rest = np.where(hit, 0, cut)
                drop = hit & ((cut[:, :, None] & ~rest[:, None, :]) == 0).any(axis=2)
                live[at] = np.where(drop, 0, cut)
        masks[active] = live
        active = active[deleted]
    union = np.bitwise_or.reduce(masks, axis=1)
    vertices = np.arange(max(1, int(s.max())), dtype=np.int64)
    lower = (np.int64(1) << vertices) - 1  # the vertices below each j
    relabeled = np.empty_like(masks)
    step = max(1, _BLOCK_CELLS // (width * len(vertices)))
    for lo in range(0, len(masks), step):
        part = slice(lo, lo + step)
        # vertex j moves to the number of used vertices below it
        below = np.bitwise_count(union[part, None] & lower)
        bits = (masks[part, :, None] >> vertices) & 1
        relabeled[part] = np.bitwise_or.reduce(bits << below[:, None, :], axis=2)
    cores = np.where(masks == 0, _PAD, relabeled)
    cores[union == 0, 0] = 0  # {empty face}
    cores.sort(axis=1)
    k = np.bitwise_count(union).astype(np.int64)
    return k, cores[:, : (cores != _PAD).sum(axis=1).max()]


@lru_cache(maxsize=1 << 16)
def _class_ranks(s: int, facets: tuple[int, ...], p: int) -> dict[int, int]:
    """Betti contributions {i: dim} for a complex given by maximal facets.

    The complex lives on s relabeled vertices; level i corresponds to
    H~_{i-1}.  The Alexander dual has exactly 2^s minus as many faces as
    the complex, so it is reduced instead when the complex holds more than
    half of all subsets; ranks are cached per (s, facets, p).  On no
    vertices the dual of {empty face} is the void complex, where the
    duality fails, so that complex is always reduced directly.
    """
    direct = face_closure(facets)
    if not s or 2 * len(direct) <= 1 << s:
        return _ranks_from_faces(direct, s, p)
    full = (1 << s) - 1
    dual = {f for f in range(full + 1) if full ^ f not in direct}
    return {s - k - 1: h for k, h in _ranks_from_faces(dual, s, p).items()}


def _complex_classes(points: np.ndarray, gens: np.ndarray):
    """The relabelled maximal facets of the upper Koszul complexes at `points`.

    Yields one triple of arrays (index, s, facets) per block, over the
    points of the block whose complex is not a cone: their indices into
    `points`, their support sizes s, and their maximal facets relabelled
    onto 0..s-1 along the support, sorted, and padded with _PAD to the
    block's largest facet count.  The points must be lcm-lattice
    points, so that the minimal tight masks decide the cones.  Each block
    of at most _BLOCK_CELLS (point, generator) cells sorts its distinct
    tight masks per row and finds the minimal ones in one pass over the
    mask columns, mask k against the k masks to its left, so a row with c
    masks costs about c^2 / 2 subset tests and no temporary exceeds the
    block.  Within a block the points come by their number of tight masks;
    a block whose points are all cones yields nothing.
    """
    n = gens.shape[1]
    chunk = max(1, _BLOCK_CELLS // len(gens))
    for first in range(0, len(points), chunk):
        block = points[first : first + chunk]
        # divisibility and tight-vertex masks, one variable at a time
        div = np.ones((len(block), len(gens)), dtype=bool)
        tight = np.zeros((len(block), len(gens)), dtype=np.int64)
        supp = np.zeros(len(block), dtype=np.int64)
        for j in range(n):
            le = block[:, j, None]
            ge = gens[None, :, j]
            div &= ge <= le
            np.bitwise_or(tight, np.int64(1) << j, out=tight, where=ge == le)
            supp |= (block[:, j] > 0).astype(np.int64) << j
        # a non-divisor pads with supp (the empty facet, which never changes
        # the maximal facets); repeated masks become padding too.  Masks are
        # subsets of supp, so numerically at most supp, and padding sorts last
        t = np.sort(np.where(div, tight & supp[:, None], supp[:, None]), axis=1)
        t[:, 1:] = np.where(t[:, 1:] == t[:, :-1], supp[:, None], t[:, 1:])
        t.sort(axis=1)
        count = (t < supp[:, None]).sum(axis=1)
        # rows by mask count, so that the rows with a mask k are a suffix:
        # each step below then works on views, not on gathered copies
        order = np.argsort(count, kind="stable")
        supp, count = supp[order], count[order]
        most = int(count[-1])
        t = t[order, : most + 1]  # the rest is padding
        # in a sorted row a proper subset sits to the left, and of equal
        # masks only the leftmost copy can be minimal.  Column 0 always is:
        # a lone tight mask equals supp at a generator's own point
        minimal = np.zeros(t.shape, dtype=bool)
        minimal[:, 0] = True
        starts = np.searchsorted(count, np.arange(1, most), side="right")
        for k, lo in enumerate(starts.tolist(), 1):
            minimal[lo:, k] = (t[lo:, :k] & ~t[lo:, k, None]).all(axis=1)
        # a vertex in no minimal tight mask lies in every maximal facet: cone
        open_ = np.flatnonzero(np.bitwise_or.reduce(np.where(minimal, t, 0), axis=1) == supp)
        if not len(open_):
            continue
        t, supp, minimal = t[open_], supp[open_], minimal[open_]
        relabeled = np.zeros_like(t)
        below = np.zeros(len(t), dtype=np.int64)  # support vertices below j
        for j in range(n):
            relabeled |= ((t >> j) & 1) << below[:, None]
            below += (supp >> j) & 1
        full = (np.int64(1) << below) - 1
        facets = np.where(minimal, full[:, None] ^ relabeled, _PAD)
        facets.sort(axis=1)
        yield first + order[open_], below, facets[:, : minimal.sum(axis=1).max()]


# -- Betti tables ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BettiTable:
    """Nonzero multigraded Betti numbers, one row per orbit representative.

    Entry k says beta_{degrees[k], a} = dims[k] for each of the weights[k]
    distinct permutations a of rows[k] (a single point when the weight is
    1).  Tables of ideals not closed under permuting the variables have
    weight 1 throughout.
    """

    degrees: np.ndarray  # homological degree i, int64
    rows: np.ndarray  # multidegree exponents, int16, one row per entry
    dims: np.ndarray  # int64
    weights: np.ndarray  # int64
    char: int
    ambient: int

    def pd(self) -> int:
        """Largest homological degree with a nonzero Betti number."""
        return int(self.degrees.max())

    def reg(self) -> int:
        """max(|a| - i) over the nonzero Betti numbers."""
        return int((self.rows.sum(axis=1, dtype=np.int64) - self.degrees).max())

    def totals(self) -> dict[int, int]:
        """sum over a of beta_{i,a}, for each homological degree i."""
        acc = dict.fromkeys(sorted(set(self.degrees.tolist())), 0)
        for i, v, w in zip(self.degrees.tolist(), self.dims.tolist(), self.weights.tolist()):
            acc[i] += v * w
        return acc

    @cached_property
    def expanded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero beta_{i,a} as arrays (degrees, rows, dims), one row
        per multidegree a, sorted by i and then by `Monomial.sort_key`.

        Rows of weight w > 1 are expanded over their orbits.  Two rows of
        one total degree first differ at some column j, and their
        (index, exponent) pairs first differ there too: by exponent, or,
        where one row is 0 at j, by the index of its next pair (it has one,
        the degrees being equal), which is larger.  So the pairs compare
        like the dense rows with 0 read as the largest exponent.
        """
        degrees, rows, dims = self.degrees, self.rows, self.dims
        if len(self.weights) and self.weights.max() > 1:
            orbits = []
            last = None
            for row in rows.tolist():
                if row != last:  # the walk records the degrees of a point together
                    last = row
                    orbit = np.array(_arrangements(row), dtype=np.int16)
                orbits.append(orbit)
            degrees = np.repeat(degrees, self.weights)
            rows = np.concatenate(orbits)
            dims = np.repeat(dims, self.weights)
        zero_last = rows.astype(np.uint16) - np.uint16(1)  # 0 wraps to 65535
        total = rows.sum(axis=1, dtype=np.int64)
        order = np.lexsort((*zero_last.T[::-1], total, degrees))
        return degrees[order], rows[order], dims[order]

    @cached_property
    def entries(self) -> tuple[tuple[int, Monomial, int], ...]:
        """Every nonzero (i, multidegree, dim) of `expanded`, the
        multidegree as a `Monomial`."""
        degrees, rows, dims = self.expanded
        return tuple(
            (i, Monomial.from_dense(a, self.ambient), v)
            for i, a, v in zip(degrees.tolist(), rows.tolist(), dims.tolist())
        )


def _differences(left: list, right: list) -> list[tuple[int, str, int, int]]:
    """Where two sums of Betti tables differ: (i, a, left dim, right dim),
    a as text, sorted by i and then by `Monomial.sort_key` of a.

    Each side is a list of (degrees, rows, dims) arrays, rows of one width.
    The dims count positive on the left and negative on the right; one
    sort of every (i, a) brings equal keys together, and `np.add.reduceat`
    sums them, so a nonzero sum is a difference.  Only those few are
    sorted by `Monomial.sort_key`.
    """
    tables = left + right
    degrees = np.concatenate([t[0] for t in tables])
    rows = np.concatenate([t[1] for t in tables])
    signed = np.concatenate([t[2] for t in left] + [-t[2] for t in right])
    order = np.lexsort((*rows.T, degrees))
    degrees, rows, signed = degrees[order], rows[order], signed[order]
    first = np.ones(len(degrees), dtype=bool)
    first[1:] = (degrees[1:] != degrees[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    net = np.add.reduceat(signed, starts)
    wrong = np.flatnonzero(net)
    if not len(wrong):
        return []
    lhs = np.add.reduceat(signed.clip(0), starts)[wrong]
    at = starts[wrong]
    found = [
        (i, Monomial.from_dense(a), x, x - d)
        for i, a, x, d in zip(
            degrees[at].tolist(), rows[at].tolist(), lhs.tolist(), net[wrong].tolist()
        )
    ]
    found.sort(key=lambda f: (f[0], f[1].sort_key()))
    return [(i, str(a), x, y) for i, a, x, y in found]


def _padded(table: BettiTable, variables: tuple[int, ...], width: int) -> BettiTable:
    """The table of the same ideal in `width` variables, its own moved to
    x_v for v in `variables`.

    Variables that no generator uses change no Betti number: the
    multidegrees just gain zero coordinates.  The padded generators are
    not closed under permuting the variables, so orbits are expanded
    first.
    """
    if len(table.weights) and table.weights.max() > 1:
        degrees, rows, dims = table.expanded
    else:
        degrees, rows, dims = table.degrees, table.rows, table.dims
    wide = np.zeros((len(rows), width), dtype=np.int16)
    wide[:, np.subtract(variables, 1)] = rows
    ones = np.ones(len(rows), dtype=np.int64)
    return BettiTable(degrees, wide, dims, ones, table.char, width)


class _Walk:
    """The lcm lattice of one validated ideal, classified on demand.

    The ideal is given as `_walk_key` gives it, with no unused variable, so
    ideals that differ only by unused variables share one walk.  The
    lattice itself is built on first use, with the lattice cap checked
    then: a pd from a certified depth builds none.  The lattice and
    its classification are the same in every characteristic; only the
    tables are kept per characteristic.  The support size and the key of
    each row (in the encoding of `_row_keys`) are kept with it from when
    the lattice is built.  Each row gets one entry of `_core`, an index
    into `_cores`, the distinct strong cores met so far, or -1 while it
    is not classified; classified cones are dropped.  Every row of
    support at least `_low` is classified; rows of smaller support may
    be too.  Each block of `_complex_classes` is shrunk to strong cores
    by `_strong_cores` over its distinct facet sets, and `_cores` is
    looked up once per distinct core of the block.  `pd(p)` and
    `table(p)` lower `_low` only as far as each needs, so every row is
    classified at most once for all characteristics; p enters only
    through `_class_ranks` of each distinct core.  A generator set closed
    under permuting the variables has an invariant Betti table,
    beta_{i, sigma a} = beta_{i, a}, so the lattice holds one point per
    orbit.

    The rows with a_j = 0 are the lcm lattice of the generators free of
    x_j, and each carries the same upper Koszul complex there (Hochster's
    restriction).  Once its lattice is built, a walk is entered in
    `_restrictions`, and before it classifies rows it reads the cores of
    such rows off the walk of each restriction found there; see
    `_read_restrictions`.
    """

    def __init__(self, gens: tuple, width: int, lattice_cap: int) -> None:
        self._gens = _exponent_matrix(gens, width)
        self._lattice_cap = lattice_cap
        self._ambient = width
        self._symmetric = False
        self._lattice: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._keys: np.ndarray | None = None  # per row: its key, ascending
        self._encode = None  # rows to keys
        self._supp: np.ndarray | None = None  # per row: its support size
        self._core: np.ndarray | None = None  # per row: -1 or a core index
        self._low = width + 1  # every row of support at least this is classified
        self._cores: dict[tuple[int, tuple[int, ...]], int] = {}  # core -> index
        self._tables: dict = {}  # p, or (p, variables, width) when padded
        self._lock = threading.Lock()

    def _keep(self, rows: np.ndarray) -> None:
        self._lattice = self._lattice[rows]
        self._weights = self._weights[rows]
        self._keys = self._keys[rows]
        self._supp = self._supp[rows]
        self._core = self._core[rows]

    def _classify(self, low: int) -> None:
        """Classify every row of support at least `low`, building the
        lattice on the first call, and drop the cones among them; rows
        that walks of restrictions have classified are read from them."""
        if self._lattice is None:
            self._symmetric = _symmetric(self._gens)
            self._lattice, self._weights, self._keys, self._encode = _lattice_matrix(
                self._gens, self._lattice_cap, self._symmetric
            )
            self._supp = np.count_nonzero(self._lattice, axis=1)
            self._core = np.full(len(self._lattice), -1, dtype=np.int64)
            _restrictions[self._gens.shape, self._gens.tobytes()] = self
        self._read_restrictions(low)
        band = np.flatnonzero((self._supp >= low) & (self._core < 0))
        self._low = min(low, self._low)
        if not len(band):
            return
        cores = self._cores
        for index, s, facets in _complex_classes(self._lattice[band], self._gens):
            classes, of_class = _distinct_rows(np.column_stack([s, facets]))
            distinct, of_core = _distinct_rows(
                np.column_stack(_strong_cores(classes[:, 0], classes[:, 1:]))
            )
            sizes = (distinct[:, 1:] != _PAD).sum(axis=1)
            ids = [
                cores.setdefault((row[0], tuple(row[1 : 1 + size])), len(cores))
                for row, size in zip(distinct.tolist(), sizes.tolist())
            ]
            self._core[band[index]] = np.array(ids)[of_core[of_class]]
        self._keep((self._core >= 0) | (self._supp < low))

    def _read_restrictions(self, low: int) -> None:
        """Classify the rows of support at least `low` with a zero
        coordinate from the walks of the restrictions, where those have
        classified them.

        A row has a zero coordinate exactly when its support is below the
        width.  For each column j, the generators free of x_j, their
        unused columns dropped, key the walk of that restriction in
        `_restrictions`.  Its rows are the rows here with a_j = 0, the
        same columns dropped (sorted descending when it is symmetric), and
        it has classified all those of support at least its `_low`.  Those
        rows here are found in its sorted keys by one `searchsorted`: a row
        found takes its core, and a row absent was a cone there and is
        dropped.  Python runs once per distinct core read, not per row.
        The restriction has fewer generators than this walk, so its lock,
        taken inside this walk's, is always the later in that order.
        """
        pending = np.flatnonzero(
            (self._supp >= low) & (self._supp < self._ambient) & (self._core < 0)
        )
        gone = []
        # a row of a symmetric walk sorts descending, so a zero coordinate
        # shows in the last column: from there one restriction reads them all
        for j in reversed(range(self._ambient)):
            if not len(pending):
                break
            sub = self._gens[self._gens[:, j] == 0]
            used = sub.any(axis=0)
            sub = sub[:, used]
            other = _restrictions.get((sub.shape, sub.tobytes()))
            if other is None:
                continue
            with other._lock:
                read = (self._lattice[pending, j] == 0) & (self._supp[pending] >= other._low)
                rows = pending[read]
                if not len(rows):
                    continue
                points = self._lattice[rows][:, used]
                if other._symmetric:
                    points = np.sort(points, axis=1)[:, ::-1]
                keys = other._encode(points)
                at = np.searchsorted(other._keys, keys)
                found = other._keys[np.minimum(at, len(other._keys) - 1)] == keys
                theirs = other._core[at[found]]
                hit = np.flatnonzero(np.bincount(theirs))
                cores = list(other._cores)
                ids = np.zeros(len(cores), dtype=np.int64)
                ids[hit] = [
                    self._cores.setdefault(cores[c], len(self._cores)) for c in hit.tolist()
                ]
            self._core[rows[found]] = ids[theirs]
            gone.append(rows[~found])
            pending = pending[~read]
        if gone:
            keep = np.ones(len(self._lattice), dtype=bool)
            keep[np.concatenate(gone)] = False
            self._keep(keep)

    def _best(self, low: int, p: int) -> int:
        """The largest degree of a Betti number over GF(p) at the rows of
        support at least `low`, -1 if none, classifying them first."""
        self._classify(low)
        present = np.flatnonzero(np.bincount(self._core[self._supp >= low]))
        cores = list(self._cores)
        return max(
            (max(_class_ranks(*cores[c], p), default=-1) for c in present.tolist()),
            default=-1,
        )

    @cached_property
    def _certified(self) -> int | None:
        """depth S/I when `_certified_depth` settles it, else None."""
        return _certified_depth(self._gens)

    def pd(self, p: int) -> int:
        """The largest homological degree over GF(p): n - 1 - depth S/I
        on a certified depth of 0 or 1 while no lattice is built, else
        from the support bands of the lattice rows.

        By Auslander-Buchsbaum pd I = n - 1 - depth S/I, in every
        characteristic.  Depth 0 is certified by a socle witness, depth 1
        by a complete search that found none together with a socle
        witness of the generators with one column deleted; see
        `_certified_depth`.  Otherwise beta_{i,a} != 0 implies
        i <= |supp a| - 1, so once the top band of the rows kept gives
        `best`, only the points with best + 2 <= |supp a| can exceed it;
        a second pass lowers the threshold to best + 2.  Rows classified
        before, for any p, are not classified again, so after a table pd
        only reads the classified rows.
        """
        with self._lock:
            if self._lattice is None and self._certified is not None:
                return self._ambient - 1 - self._certified
            self._classify(self._ambient + 1)  # builds the lattice, classifies no row
            top = int(self._supp.max())
            best = self._best(top, p)
            if best + 2 < top:
                best = self._best(best + 2, p)
            return best

    def table(self, p: int, variables: list[int], width: int) -> BettiTable:
        """Every Betti number over GF(p), of the ideal with its variables
        moved to x_v for v in `variables`, in `width` variables.  Each
        table is built once and kept."""
        with self._lock:
            if p not in self._tables:
                self._tables[p] = self._assemble(p)
            if width == self._ambient:
                return self._tables[p]
            key = (p, tuple(variables), width)
            if key not in self._tables:
                self._tables[key] = _padded(self._tables[p], key[1], width)
            return self._tables[key]

    def _assemble(self, p: int) -> BettiTable:
        """The table over GF(p), the ranks of each distinct core scattered
        onto its rows."""
        self._classify(0)
        ranks = [_class_ranks(*core, p) for core in self._cores]
        counts = np.array([len(r) for r in ranks], dtype=np.int64)
        degrees = np.array([i for r in ranks for i in r], dtype=np.int64)
        dims = np.array([h for r in ranks for h in r.values()], dtype=np.int64)
        # a row with core c takes the run degrees[start[c] : start[c] + counts[c]]
        start = np.cumsum(counts) - counts
        per_row = counts[self._core]
        row = np.repeat(np.arange(len(per_row)), per_row)
        within = np.arange(len(row)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        flat = np.repeat(start[self._core], per_row) + within
        return BettiTable(
            degrees[flat],
            self._lattice[row],
            dims[flat],
            self._weights[row],
            p,
            self._ambient,
        )


_walk = lru_cache(maxsize=256)(_Walk)
# the walks with a built lattice, by generator matrix: an index of `_walk`
# that holds none of them alive
_restrictions: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _walk_key(ideal: MonomialIdeal) -> tuple[tuple, list[int]]:
    """The ideal with its unused variables dropped, and the variables used.

    Returns the generators as (index, exponent) pairs, with the k used
    variables relabelled onto 1..k in order, and the indices of those
    variables.  Generators keep their order.  Only the relabelling, when
    a variable below the last used one is unused, builds new pairs.
    """
    gens = tuple([g.exps for g in ideal.gens])
    used = sorted({i for exps in gens for i, _ in exps})
    if used[-1] != len(used):
        rank = {v: i for i, v in enumerate(used, 1)}
        gens = tuple(tuple((rank[i], e) for i, e in exps) for exps in gens)
    return gens, used


def _checked_walk(
    ideal: MonomialIdeal, gen_cap: int | None, lattice_cap: int
) -> tuple[_Walk, list[int]]:
    """The walk of a proper ideal, after the width and generator caps,
    and the variables the ideal uses."""
    if ideal.ambient > _MAX_AMBIENT:
        raise CapExceeded("ambient width", _MAX_AMBIENT, ideal.ambient)
    if gen_cap is not None and len(ideal.gens) > gen_cap:
        raise CapExceeded("betti generators", gen_cap, len(ideal.gens))
    gens, used = _walk_key(ideal)
    return _walk(gens, len(used), lattice_cap), used


def betti_table(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """All nonzero beta_{i,a} of a nonzero monomial ideal over GF(p).

    `gen_cap` bounds the number of minimal generators admitted (None
    disables the bound), `lattice_cap` bounds the lcm lattice size; both
    raise CapExceeded rather than start an infeasible computation.
    """
    if ideal.is_zero:
        raise ImproperIdeal("Betti numbers of the zero ideal are undefined")
    if ideal.is_unit:
        zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        origin = np.zeros((1, ideal.ambient), dtype=np.int16)
        return BettiTable(zero, origin, one, one, field.p, ideal.ambient)
    walk, used = _checked_walk(ideal, gen_cap, lattice_cap)
    return walk.table(field.p, used, ideal.ambient)


def pd(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> int:
    """Projective dimension of the ideal (as a module, so <x1..xk> gives k-1).

    Read off the top support bands of the lcm lattice, not a whole table;
    the caps are those of `betti_table`.
    """
    if not ideal.is_proper:
        raise ImproperIdeal("pd needs a nonzero proper ideal")
    return _checked_walk(ideal, gen_cap, lattice_cap)[0].pd(field.p)


def reg(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> int:
    """Castelnuovo-Mumford regularity, read off the Betti table."""
    if not ideal.is_proper:
        raise ImproperIdeal("reg needs a nonzero proper ideal")
    return betti_table(ideal, field, gen_cap, lattice_cap).reg()


# -- independent audits ----------------------------------------------------

def euler_consistency(
    ideal: MonomialIdeal,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> bool:
    """Check alternating Betti sums against the Taylor complex.

    For every multidegree a, sum_i (-1)^i beta_{i,a} must equal the
    coefficient of x^a in sum over nonempty generator subsets S of
    (-1)^(|S|+1) x^lcm(S); both sides are computed independently.  The
    2^g subsets bound g by 22 whatever `gen_cap` is (None: no other bound).
    """
    if not ideal.is_proper:
        raise ImproperIdeal("euler check needs a nonzero proper ideal")
    g = len(ideal.gens)
    cap = 22 if gen_cap is None else min(gen_cap, 22)
    if g > cap:
        raise CapExceeded("euler subsets", cap, g)
    gens = _dense(ideal)
    n = ideal.ambient
    lcms = np.zeros((1 << g, n), dtype=np.int16)
    for b in range(g):
        lcms[1 << b : 1 << (b + 1)] = np.maximum(lcms[: 1 << b], gens[b])
    # odd subsets contribute +1, even subsets -1
    signs = np.where(np.bitwise_count(np.arange(1, 1 << g)) & 1, 1, -1)
    rows, inverse = np.unique(lcms[1:], axis=0, return_inverse=True)
    coeffs = np.zeros(len(rows), dtype=np.int64)
    np.add.at(coeffs, inverse.ravel(), signs)
    taylor = {
        Monomial.from_dense(rows[i], n): int(coeffs[i])
        for i in range(len(rows))
        if coeffs[i] != 0
    }
    table = betti_table(ideal, field, gen_cap=None, lattice_cap=lattice_cap)
    alternating: dict[Monomial, int] = {}
    for i, a, v in table.entries:
        alternating[a] = alternating.get(a, 0) + (v if i % 2 == 0 else -v)
    alternating = {a: c for a, c in alternating.items() if c != 0}
    return alternating == taylor


def reg_colon_bounds_check(
    ideal: MonomialIdeal,
    k: int,
    field: FieldSpec = DEFAULT_FIELD,
    gen_cap: int | None = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> bool:
    """Sandwich regularity between its colon-ideal bounds for variable x_k.

    With d the stabilizing colon exponent, every <(I : x_k^e), x_k> bounds
    reg I from below, and reg I equals reg<(I : x_k^e), x_k> + e for some
    0 <= e <= d.  Unit colon cases enter the candidate set with the
    convention reg<1> = 0 but are excluded from the lower bound.
    """
    from .monomials import colon_stable_exponent

    if not ideal.is_proper:
        raise ImproperIdeal("the colon bounds need a nonzero proper ideal")
    d = colon_stable_exponent(ideal, k)
    xk = Monomial.variable(k, ideal.ambient)
    lower = []
    candidates = set()
    for e in range(d + 1):
        xke = Monomial.variable(k, ideal.ambient, e)
        withvar = MonomialIdeal.from_gens(
            ideal.colon(xke).gens + (xk,), ideal.ambient
        )
        if withvar.is_unit:
            candidates.add(e)  # reg<1> = 0 by convention
            continue
        r = reg(withvar, field, gen_cap, lattice_cap)
        lower.append(r)
        candidates.add(r + e)
    r_ideal = reg(ideal, field, gen_cap, lattice_cap)
    if lower and max(lower) > r_ideal:
        return False
    return r_ideal in candidates
