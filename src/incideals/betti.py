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
proportional to the lattice size, deduplicating points as sortable keys
(integers, or bytes for very wide exponent ranges).  `_complex_classes`
reads each point's complex off its divisibility and tight-vertex masks (g
dividing x^a is tight at each j with g_j = a_j): the maximal facets are
the complements of the minimal tight masks.  `_strong_core` shrinks each
distinct facet set to its strong core, and `_class_ranks` computes the
homology of each distinct core once per characteristic.

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
  vertices are deleted one at a time while there is one.  Each deletion
  is a strong deformation retract (Barmak-Minian, "Strong homotopy types,
  nerves and collapses", 2012), so the reduced homology is unchanged over
  every field, and the core does not depend on p;
* per core, either the complex itself or its combinatorial Alexander
  dual is reduced, whichever has fewer faces, using
  dim H~_{i-1}(D) = dim H~_{s-i-2}(dual D) over a field.  The dual has
  exactly 2^s - |D| faces, so the choice needs no enumeration.

The caches are ``functools.lru_cache``s.  Two serve the complex classes,
so that the many repeated orbit patterns along a chain are reduced once:
`_strong_core` maps a relabeled facet set (s, facets) to its core with no
characteristic in the key, and `_class_ranks` maps (core, p) to the ranks
(up to 65536 entries each).  Many classes share one core, so few rank
computations remain; the cache in front of the core keeps a repeated
class at one lookup.  Each ``cache_info()`` reports hits and misses.

The third cache, `_walk`, keys a `_Walk` by (ideal, p, lattice_cap), as
the whole tables were keyed before it (up to 256 walks).  A walk builds
the lattice once, with the caps checked, and answers two questions
lazily.  `table` classifies every point not yet classified and assembles
the `BettiTable`; `pd` needs far fewer points.  beta_{i,a} != 0 implies
i <= |supp a| - 1, so the walk classifies the points of the top support
first, and then, if the best degree found is `best`, only the points below
the top with support at least best + 2; no point of smaller support can
exceed `best`.  Both pass `_complex_classes` a subset of the lattice
points, which is all its cone test needs, and each point is classified
at most once per (ideal, p).  `pd` and the pd series take the walk;
`betti_table` and every caller that needs the table anyway (the `betti`
CSV, the verify checks, the other series metrics) take the table, and
`pd` after a table reads it off.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import CapExceeded, ImproperIdeal
from .gflinalg import DEFAULT_FIELD, FieldSpec
from .monomials import Monomial, MonomialIdeal
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
_BLOCK_CELLS = 1 << 18  # int64 cells per classification temporary; bounds peak memory


# -- dense exponents -------------------------------------------------------

_MAX_EXPONENT = int(np.iinfo(np.int16).max)


def _dense(ideal: MonomialIdeal) -> np.ndarray:
    mat = np.zeros((len(ideal.gens), ideal.ambient), dtype=np.int16)
    for row, g in enumerate(ideal.gens):
        for i, e in g.exps:
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


def _orbit_size(row: Sequence[int]) -> int:
    """n! / prod(mult!): the number of distinct permutations of a row."""
    size = math.factorial(len(row))
    for m in Counter(row).values():
        size //= math.factorial(m)
    return size


def _symmetric(gens: np.ndarray) -> bool:
    """Whether permuting the variables maps the generator set to itself.

    The generators are distinct, so the set is closed exactly when each
    sorted exponent pattern occurs as often as its orbit has points.
    """
    patterns = Counter(map(tuple, np.sort(gens, axis=1).tolist()))
    return all(c == _orbit_size(row) for row, c in patterns.items())


def _lattice_matrix(
    gens: np.ndarray, lattice_cap: int, symmetric: bool
) -> tuple[np.ndarray, np.ndarray]:
    """All exponentwise maxima of nonempty generator subsets, with weights.

    Closure under pairwise maximum with single generators reaches every
    subset maximum, and each lattice element is expanded only once.  With
    `symmetric` (the generator set, hence the lattice, is closed under
    permuting the variables) only one point per orbit is kept, its
    descending sort: if b is in the lattice and sigma sorts b, then
    sort(max(b, g)) = sort(max(sort b, sigma g)) and sigma g is again a
    generator.  Returns the rows and the number of lattice points each
    stands for (its orbit size, else 1).  The cap counts the whole lattice,
    not the rows; it is checked after every block, so it trips inside the
    round that crosses it.
    """
    encode, decode, joins = _row_keys(gens)
    limit = min(lattice_cap, _MAX_WEIGHT)

    def canonical(keys: np.ndarray) -> np.ndarray:
        if symmetric:
            keys = encode(np.sort(decode(keys), axis=1)[:, ::-1])
        return _sorted_unique(keys)

    parts, weights = [], []
    total = 0

    def admit(fresh: np.ndarray) -> None:
        # orbit sizes are exact Python ints until the cap bounds them
        nonlocal total
        if symmetric:
            sizes = [_orbit_size(row) for row in decode(fresh).tolist()]
            total += sum(sizes)
        else:
            sizes = np.ones(len(fresh), dtype=np.int64)
            total += len(fresh)
        if total > limit:
            raise CapExceeded("lcm lattice size", limit, total)
        parts.append(fresh)
        weights.append(np.asarray(sizes, dtype=np.int64))

    seen = canonical(encode(gens))
    admit(seen)
    frontier = seen
    block_rows = max(1, 2_000_000 // max(1, gens.size))
    while len(frontier):
        fresh_parts = []
        for lo in range(0, len(frontier), block_rows):
            keys = canonical(joins(frontier[lo : lo + block_rows]))
            fresh = keys[~np.isin(keys, seen, assume_unique=True)]
            if not len(fresh):
                continue
            seen = np.insert(seen, np.searchsorted(seen, fresh), fresh)
            admit(fresh)
            fresh_parts.append(fresh)
        frontier = np.concatenate(fresh_parts) if fresh_parts else seen[:0]
    return decode(np.concatenate(parts)), np.concatenate(weights)


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
    rows, _ = _lattice_matrix(_dense(ideal), lattice_cap, symmetric=False)
    return frozenset(Monomial.from_dense(row, ideal.ambient) for row in rows)


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


@lru_cache(maxsize=1 << 16)
def _strong_core(s: int, facets: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The strong core (k, facets) of a complex given by maximal facets.

    A vertex v is dominated when every facet through v also contains some
    other vertex; deleting it keeps the complex's strong homotopy type
    (Barmak-Minian, "Strong homotopy types, nerves and collapses", 2012),
    so the reduced homology in every characteristic.  Dominated vertices
    are deleted one at a time until none is left, and the vertices still
    in a facet are relabelled onto 0..k-1 in order.  A cone ends as a
    single vertex.
    """
    live = set(facets)
    shrinking = True
    while shrinking:
        shrinking = False
        for v in range(s):
            bit = 1 << v
            through = [f for f in live if f & bit]
            if not through or reduce(operator.and_, through) == bit:
                continue
            # only a facet through v can become a subset of another one
            rest = [g for g in live if not g & bit]
            live = set(rest)
            live.update(f ^ bit for f in through if all((f ^ bit) & ~g for g in rest))
            shrinking = True
    union = reduce(operator.or_, live, 0)
    used = [v for v in range(s) if union >> v & 1]
    relabeled = []
    for f in live:
        mask = 0
        for new, v in enumerate(used):
            mask |= (f >> v & 1) << new
        relabeled.append(mask)
    return len(used), tuple(sorted(relabeled))


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

    Yields (point index, s, facets) for each point whose complex is not a
    cone, with the facets relabelled onto 0..s-1 along the support and
    sorted: the key of `_class_ranks`.  The points must be lcm-lattice
    points, so that the minimal tight masks decide the cones.
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
        order = np.argsort(count, kind="stable")
        lo = 0
        while lo < len(order):
            # group rows of similar count so that rows * width^2 stays bounded
            cost = np.arange(1, len(order) - lo + 1) * (count[order[lo:]] + 1) ** 2
            hi = lo + max(1, int(np.searchsorted(cost, _BLOCK_CELLS, side="right")))
            rows = order[lo:hi]
            lo = hi
            width = min(int(count[rows[-1]]) + 1, t.shape[1])
            tt = t[rows, :width]
            sp = supp[rows]
            # in a sorted row a proper subset sits to the left, and of equal
            # padding only the leftmost copy can be minimal
            left_subset = ((tt[:, None, :] & ~tt[:, :, None]) == 0) & np.tri(
                width, k=-1, dtype=bool
            )
            minimal = ~left_subset.any(axis=2)
            # a vertex in no minimal tight mask lies in every maximal facet: cone
            open_ = np.bitwise_or.reduce(np.where(minimal, tt, 0), axis=1) == sp
            rows, tt, sp, minimal = rows[open_], tt[open_], sp[open_], minimal[open_]
            relabeled = np.zeros_like(tt)
            below = np.zeros(len(rows), dtype=np.int64)  # support vertices below j
            for j in range(n):
                relabeled |= ((tt >> j) & 1) << below[:, None]
                below += (sp >> j) & 1
            full = (np.int64(1) << below) - 1
            facets = np.where(minimal, full[:, None] ^ relabeled, np.iinfo(np.int64).max)
            facets.sort(axis=1)
            sizes = minimal.sum(axis=1)
            for r, s, f, k in zip(rows.tolist(), below.tolist(), facets, sizes.tolist()):
                yield first + r, s, tuple(f[:k].tolist())


# -- Betti tables ----------------------------------------------------------

def _arrangements(row: list[int]) -> list[list[int]]:
    """Each distinct permutation of `row` once.

    The most frequent value fills a template; every other value in turn
    takes a combination of the positions still free.
    """
    counts = Counter(row)
    fill = max(counts, key=counts.get)
    del counts[fill]
    words = [([fill] * len(row), tuple(range(len(row))))]
    for v, m in counts.items():
        grown = []
        for word, free in words:
            for pick in itertools.combinations(free, m):
                w = word.copy()
                for j in pick:
                    w[j] = v
                grown.append((w, tuple(j for j in free if j not in pick)))
        words = grown
    return [w for w, _ in words]


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


class _Walk:
    """The lcm lattice of one validated ideal, classified on demand.

    `pd` and `table` classify lattice points only as far as each needs, and
    every point at most once: the table built after a pd walk classifies
    only the points the walk left.  A generator set closed under permuting
    the variables has an invariant Betti table, beta_{i, sigma a} =
    beta_{i, a}, so the lattice holds one point per orbit.
    """

    def __init__(self, ideal: MonomialIdeal, p: int, lattice_cap: int) -> None:
        self._gens = _dense(ideal)
        self._lattice, self._weights = _lattice_matrix(
            self._gens, lattice_cap, _symmetric(self._gens)
        )
        self._p = p
        self._ambient = ideal.ambient
        # (degree, lattice row, dim) of each Betti number found so far
        self._degrees: list[int] = []
        self._points: list[int] = []
        self._dims: list[int] = []
        self._visited: np.ndarray | None = None  # rows the pd walk classified
        self._pd: int | None = None
        self._table: BettiTable | None = None
        self._lock = threading.Lock()

    def _classify(self, index: np.ndarray | None = None) -> None:
        """Record the Betti numbers at the lattice rows `index`, or at every row."""
        subset = self._lattice if index is None else self._lattice[index]
        row_of = range(len(subset)) if index is None else index.tolist()
        degrees, points, dims, p = self._degrees, self._points, self._dims, self._p
        for r, s, facets in _complex_classes(subset, self._gens):
            for i, h in _class_ranks(*_strong_core(s, facets), p).items():
                degrees.append(i)
                points.append(row_of[r])
                dims.append(h)

    @property
    def pd(self) -> int:
        """The largest homological degree, from the top support bands.

        beta_{i,a} != 0 implies i <= |supp a| - 1, so once the top band
        gives `best`, only the points with best + 2 <= |supp a| can exceed
        it; a second pass classifies those below the top.
        """
        with self._lock:
            if self._table is not None:
                return self._table.pd()
            if self._pd is None:
                supp = np.count_nonzero(self._lattice, axis=1)
                top = int(supp.max())
                visited = supp == top
                self._classify(np.flatnonzero(visited))
                best = max(self._degrees, default=-1)
                if best + 2 < top:
                    lower = (supp >= best + 2) & ~visited
                    self._classify(np.flatnonzero(lower))
                    visited |= lower
                    best = max(self._degrees, default=-1)
                self._visited, self._pd = visited, best
            return self._pd

    @property
    def table(self) -> BettiTable:
        """Every Betti number; then the lattice and the lists are released."""
        with self._lock:
            if self._table is None:
                if self._visited is None:
                    self._classify()
                else:
                    self._classify(np.flatnonzero(~self._visited))
                points = self._points
                self._table = BettiTable(
                    np.array(self._degrees, dtype=np.int64),
                    self._lattice[points],
                    np.array(self._dims, dtype=np.int64),
                    self._weights[points],
                    self._p,
                    self._ambient,
                )
                self._gens = self._lattice = self._weights = self._visited = None
                self._degrees = self._points = self._dims = None
            return self._table


@lru_cache(maxsize=256)
def _walk(ideal: MonomialIdeal, p: int, lattice_cap: int) -> _Walk:
    """The lattice walk of a validated ideal, cached per (ideal, p, lattice_cap)."""
    return _Walk(ideal, p, lattice_cap)


def _checked_walk(
    ideal: MonomialIdeal, field: FieldSpec, gen_cap: int | None, lattice_cap: int
) -> _Walk:
    """The walk of a proper ideal, after the width and generator caps."""
    if ideal.ambient > _MAX_AMBIENT:
        raise CapExceeded("ambient width", _MAX_AMBIENT, ideal.ambient)
    if gen_cap is not None and len(ideal.gens) > gen_cap:
        raise CapExceeded("betti generators", gen_cap, len(ideal.gens))
    return _walk(ideal, field.p, lattice_cap)


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
    return _checked_walk(ideal, field, gen_cap, lattice_cap).table


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
    return _checked_walk(ideal, field, gen_cap, lattice_cap).pd


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
    gen_cap: int = DEFAULT_GEN_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> bool:
    """Check alternating Betti sums against the Taylor complex.

    For every multidegree a, sum_i (-1)^i beta_{i,a} must equal the
    coefficient of x^a in sum over nonempty generator subsets S of
    (-1)^(|S|+1) x^lcm(S); both sides are computed independently.
    """
    if not ideal.is_proper:
        raise ImproperIdeal("euler check needs a nonzero proper ideal")
    g = len(ideal.gens)
    if g > min(gen_cap, 22):
        raise CapExceeded("euler subsets", min(gen_cap, 22), g)
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
