"""Sparse monomials and monomial ideals with exact integer arithmetic.

Monomials live in a polynomial ring K[x_1, ..., x_n] whose width n is
tracked explicitly (the ``ambient``), because the same monomial is
routinely re-embedded into wider rings when walking along a chain of
ideals.  Exponents are kept sparsely as (variable index, exponent) pairs
with indices starting at 1; the coefficient field never enters here.

Ideals are stored by their unique minimal generating set, sorted, so two
equal ideals compare equal structurally.  The zero ideal (no generators)
and the unit ideal (generated by 1) are representable; operations that
only make sense for nonzero proper ideals reject them with
:class:`~incideals.errors.ImproperIdeal`.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Iterable, Iterator, Sequence

from .errors import AmbientMismatch, CapExceeded, ImproperIdeal

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "IdealWeights",
    "lcm",
    "minimalize",
    "colon_stable_exponent",
    "hilbert_count",
    "q_invariant",
    "HILBERT_ENUMERATION_CAP",
]

#: Default ceiling on the number of monomials hilbert_count will enumerate.
HILBERT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class Monomial:
    """A monomial x_{i1}^{e1} * ... * x_{ik}^{ek} in K[x_1..x_ambient].

    ``exps`` holds (index, exponent) pairs with strictly increasing
    indices and positive exponents; the empty tuple is the monomial 1.
    """

    exps: tuple[tuple[int, int], ...]
    ambient: int

    def __post_init__(self) -> None:
        if self.ambient < 0:
            raise ValueError(f"ambient width must be >= 0, got {self.ambient}")
        prev = 0
        for i, e in self.exps:
            if i <= prev:
                raise ValueError(f"variable indices must be strictly increasing, got {self.exps}")
            if e <= 0:
                raise ValueError(f"exponents must be positive, got x{i}^{e}")
            prev = i
        if prev > self.ambient:
            raise ValueError(f"x{prev} does not exist in a ring of width {self.ambient}")

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, ambient: int) -> Monomial:
        return cls((), ambient)

    @classmethod
    def variable(cls, i: int, ambient: int | None = None, power: int = 1) -> Monomial:
        """The monomial x_i^power (power 0 gives 1)."""
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        n = i if ambient is None else ambient
        if power == 0:
            return cls((), n)
        return cls(((i, power),), n)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], ambient: int | None = None) -> Monomial:
        """Build from unsorted (index, exponent) pairs, merging repeats."""
        acc: dict[int, int] = {}
        for i, e in pairs:
            acc[i] = acc.get(i, 0) + e
        exps = tuple(sorted((i, e) for i, e in acc.items() if e != 0))
        n = max((i for i, _ in exps), default=0) if ambient is None else ambient
        return cls(exps, n)

    @classmethod
    def from_dense(cls, vector: Iterable[int], ambient: int | None = None) -> Monomial:
        vec = list(map(int, vector))
        exps = tuple(pair for pair in enumerate(vec, 1) if pair[1])
        return cls(exps, len(vec) if ambient is None else ambient)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.exps)

    @property
    def maxsupp(self) -> int:
        """Largest variable index actually occurring; 0 for the monomial 1."""
        return self.exps[-1][0] if self.exps else 0

    @property
    def is_one(self) -> bool:
        return not self.exps

    def exponent(self, i: int) -> int:
        for j, e in self.exps:
            if j == i:
                return e
            if j > i:
                return 0
        return 0

    @property
    def last_exponent(self) -> int:
        """Exponent of the highest occurring variable (the weight lambda)."""
        if not self.exps:
            raise ValueError("the monomial 1 has no last exponent")
        return self.exps[-1][1]

    @property
    def max_exponent(self) -> int:
        """Largest exponent appearing anywhere (the weight w)."""
        if not self.exps:
            raise ValueError("the monomial 1 has no exponents")
        return max(e for _, e in self.exps)

    def dense(self) -> tuple[int, ...]:
        vec = [0] * self.ambient
        for i, e in self.exps:
            vec[i - 1] = e
        return tuple(vec)

    # -- arithmetic ---------------------------------------------------

    def _require_same_ambient(self, other: Monomial) -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"widths {self.ambient} and {other.ambient} differ")

    def __mul__(self, other: Monomial) -> Monomial:
        self._require_same_ambient(other)
        return Monomial.from_pairs(self.exps + other.exps, self.ambient)

    def __truediv__(self, other: Monomial) -> Monomial:
        """Exact division; raises ValueError when other does not divide self."""
        self._require_same_ambient(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        quo = {i: e for i, e in self.exps}
        for i, e in other.exps:
            quo[i] -= e
        return Monomial(tuple(sorted((i, e) for i, e in quo.items() if e)), self.ambient)

    def divides(self, other: Monomial) -> bool:
        self._require_same_ambient(other)
        it = iter(other.exps)
        cur = next(it, None)
        for i, e in self.exps:
            while cur is not None and cur[0] < i:
                cur = next(it, None)
            if cur is None or cur[0] != i or cur[1] < e:
                return False
        return True

    def gcd(self, other: Monomial) -> Monomial:
        self._require_same_ambient(other)
        out = []
        for i, e in self.exps:
            f = other.exponent(i)
            if f:
                out.append((i, min(e, f)))
        return Monomial(tuple(out), self.ambient)

    def embed(self, ambient: int) -> Monomial:
        """The same monomial viewed in a ring of the given width."""
        if ambient < self.maxsupp:
            raise AmbientMismatch(f"cannot embed {self} into width {ambient}")
        if ambient == self.ambient:
            return self
        return Monomial(self.exps, ambient)

    def sort_key(self) -> tuple:
        return (self.degree, self.exps)

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in self.exps)

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r}, ambient={self.ambient})"


def lcm(u: Monomial, v: Monomial) -> Monomial:
    """Exponentwise maximum of two monomials in the same ring."""
    u._require_same_ambient(v)
    acc = {i: e for i, e in u.exps}
    for i, e in v.exps:
        if acc.get(i, 0) < e:
            acc[i] = e
    return Monomial(tuple(sorted(acc.items())), u.ambient)


def _orbit_size(row: Sequence[int]) -> int:
    """n! / prod(mult!): the number of distinct permutations of a row."""
    return factorial(len(row)) // prod(map(factorial, Counter(row).values()))


def _arrangements(row: list[int]) -> list[list[int]]:
    """Each distinct permutation of `row` once.

    The most frequent value fills a template; every other value in turn
    takes a combination of the positions still free.
    """
    counts = Counter(row)  # an empty row (width 0) has one arrangement, []
    fill = max(counts, key=counts.get, default=0)
    counts.pop(fill, None)
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


def _minimal_monomials(monomials: Iterable[Monomial]) -> list[Monomial]:
    """Minimal elements under divisibility, sorted by (degree, exponents).

    Distinct monomials of equal degree never divide one another, so each
    candidate is only tested against the strictly smaller degrees.
    """
    kept: list[Monomial] = []
    degree = below = 0  # kept[:below] holds the degrees below `degree`
    for u in sorted(set(monomials), key=Monomial.sort_key):
        if u.is_one:
            return [u]
        if u.degree != degree:
            degree, below = u.degree, len(kept)
        if not any(v.divides(u) for v in kept[:below]):
            kept.append(u)
    return kept


@dataclass(frozen=True)
class IdealWeights:
    """The four generator statistics of a nonzero proper monomial ideal.

    lambda_ and w are minima over the minimal generators of the last and
    the largest exponent; maxsupp and delta are the maxima of variable
    reach and of generator degree.
    """

    lambda_: int
    w: int
    maxsupp: int
    delta: int


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal, sorted generating set.

    Construct through :meth:`from_gens` (or :func:`minimalize`) unless the
    generators are already known to be canonical; the constructor verifies
    canonicity and raises otherwise.  Within this module, generator sets
    that are canonical by construction go through `_canonical` instead,
    which skips that check.
    """

    gens: tuple[Monomial, ...]
    ambient: int

    def __post_init__(self) -> None:
        if self.ambient < 0:
            raise ValueError("ambient width must be >= 0")
        for g in self.gens:
            if g.ambient != self.ambient:
                raise AmbientMismatch(f"generator {g!r} not in width {self.ambient}")
        keys = [g.sort_key() for g in self.gens]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("generators must be strictly sorted")
        if len(_minimal_monomials(self.gens)) != len(self.gens):
            raise ValueError("generating set is not minimal")

    @classmethod
    def from_gens(cls, gens: Iterable[Monomial], ambient: int | None = None) -> MonomialIdeal:
        gens = list(gens)
        if ambient is None:
            if not gens:
                raise ValueError("cannot infer ambient width of the zero ideal")
            ambient = max(g.ambient for g in gens)
        if ambient < 0:
            raise ValueError("ambient width must be >= 0")
        gens = [g.embed(ambient) for g in gens]
        return cls._canonical(tuple(_minimal_monomials(gens)), ambient)

    @classmethod
    def _canonical(cls, gens: tuple[Monomial, ...], ambient: int) -> MonomialIdeal:
        """The ideal of generators already minimal, strictly sorted and of
        width `ambient`, built without re-checking them."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "gens", gens)
        object.__setattr__(ideal, "ambient", ambient)
        return ideal

    @classmethod
    def zero(cls, ambient: int) -> MonomialIdeal:
        return cls((), ambient)

    @classmethod
    def unit(cls, ambient: int) -> MonomialIdeal:
        return cls((Monomial.one(ambient),), ambient)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].is_one

    @property
    def is_proper(self) -> bool:
        return bool(self.gens) and not self.gens[0].is_one

    def _require_proper(self) -> None:
        if not self.is_proper:
            kind = "zero" if self.is_zero else "unit"
            raise ImproperIdeal(f"operation undefined for the {kind} ideal")

    # -- membership and arithmetic ------------------------------------

    def contains(self, u: Monomial) -> bool:
        if u.ambient != self.ambient:
            raise AmbientMismatch(f"{u!r} not in width {self.ambient}")
        return any(g.divides(u) for g in self.gens)

    def __contains__(self, u: Monomial) -> bool:
        return self.contains(u)

    def colon(self, u: Monomial) -> MonomialIdeal:
        """The colon ideal (self : u) = { v : v*u in self }."""
        if u.ambient != self.ambient:
            raise AmbientMismatch(f"{u!r} not in width {self.ambient}")
        if self.is_zero:
            return self
        quotients = [g / g.gcd(u) for g in self.gens]
        return MonomialIdeal.from_gens(quotients, self.ambient)

    def restrict(self, k: int) -> MonomialIdeal:
        """Intersection with the subring on x_1..x_k, as an ideal of width k.

        Keeping exactly the generators supported on the first k variables
        computes the intersection because every monomial of the ideal that
        lives in the subring is divisible by such a generator.
        """
        if k < 0:
            raise ValueError("width must be >= 0")
        # a subset of the minimal generators, still minimal and in order
        kept = [Monomial(g.exps, k) for g in self.gens if g.maxsupp <= k]
        return MonomialIdeal._canonical(tuple(kept), k)

    def embed(self, ambient: int) -> MonomialIdeal:
        """The ideal generated by the same monomials in a wider ring."""
        if ambient < self.ambient:
            raise ValueError("embed only widens; use restrict to cut variables")
        if ambient == self.ambient:
            return self
        return MonomialIdeal._canonical(tuple(g.embed(ambient) for g in self.gens), ambient)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        if other.ambient != self.ambient:
            raise AmbientMismatch("intersection needs a common ambient width")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.ambient)
        pairs = [lcm(g, h) for g in self.gens for h in other.gens]
        return MonomialIdeal.from_gens(pairs, self.ambient)

    # -- invariants ---------------------------------------------------

    @property
    def maxsupp(self) -> int:
        """Largest variable index used by any minimal generator."""
        if self.is_zero:
            raise ImproperIdeal("the zero ideal has no support")
        return max(g.maxsupp for g in self.gens)

    @property
    def delta(self) -> int:
        """Largest degree of a minimal generator."""
        if self.is_zero:
            raise ImproperIdeal("the zero ideal has no generator degrees")
        return max(g.degree for g in self.gens)

    def weights(self) -> IdealWeights:
        self._require_proper()
        return IdealWeights(
            lambda_=min(g.last_exponent for g in self.gens),
            w=min(g.max_exponent for g in self.gens),
            maxsupp=self.maxsupp,
            delta=self.delta,
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.gens) + ">"


def minimalize(monomials: Iterable[Monomial], ambient: int | None = None) -> MonomialIdeal:
    """The ideal generated by the given monomials, minimally presented."""
    return MonomialIdeal.from_gens(monomials, ambient)


def colon_stable_exponent(ideal: MonomialIdeal, k: int) -> int:
    """Smallest d with (I : x_k^d) = (I : x_k^(d+1)).

    Bounded by the largest exponent of x_k in the minimal generators,
    since beyond that every generator has shed its x_k part.
    """
    if not 1 <= k <= ideal.ambient:
        raise ValueError(f"variable index {k} outside width {ideal.ambient}")
    if ideal.is_zero:
        return 0
    xk = Monomial.variable(k, ideal.ambient)
    top = max(g.exponent(k) for g in ideal.gens)
    current = ideal
    for d in range(top + 1):
        nxt = current.colon(xk)
        if nxt == current:
            return d
        current = nxt
    raise AssertionError("colon chain must stabilize within the top x_k exponent")


def _degree_vectors(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors of the given total degree with `parts` slots."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        vec = []
        for c in cuts:
            vec.append(c - prev - 1)
            prev = c
        vec.append(total + parts - 2 - prev)
        yield tuple(vec)


def hilbert_count(ideal: MonomialIdeal, p: int, j: int, cap: int = HILBERT_ENUMERATION_CAP) -> int:
    """Number of degree-j standard monomials of R_p modulo ideal /\\ R_p.

    Counts monomials of degree j in x_1..x_p that avoid the restricted
    ideal, by direct enumeration.  Raises CapExceeded when the candidate
    count C(j+p-1, p-1) passes `cap`.
    """
    if p < 0 or j < 0:
        raise ValueError("p and j must be >= 0")
    if p == 0:
        if ideal.is_unit:
            return 0
        return 1 if j == 0 else 0
    candidates = comb(j + p - 1, p - 1)
    if candidates > cap:
        raise CapExceeded("hilbert_count candidates", cap, candidates)
    restricted = ideal.restrict(p)
    if restricted.is_unit:
        return 0
    gens = [g.dense() for g in restricted.gens]
    count = 0
    for vec in _degree_vectors(j, p):
        if not any(all(ge <= ve for ge, ve in zip(g, vec)) for g in gens):
            count += 1
    return count


def q_invariant(ideal: MonomialIdeal, cap: int = HILBERT_ENUMERATION_CAP) -> int:
    """Sum of the Hilbert function of R_p/(I /\\ R_p) up to the top generator degree.

    Here p is the largest variable index used by I.  The unit ideal gets 0;
    the zero ideal is rejected.  The degrees 0..delta hold C(delta + p, p)
    candidate monomials in all; more than `cap` raise CapExceeded before
    any is enumerated.
    """
    if ideal.is_zero:
        raise ImproperIdeal("q is undefined for the zero ideal")
    if ideal.is_unit:
        return 0
    p = ideal.maxsupp
    candidates = comb(ideal.delta + p, p)
    if candidates > cap:
        raise CapExceeded("q_invariant candidates", cap, candidates)
    return sum(hilbert_count(ideal, p, j, cap) for j in range(ideal.delta + 1))
