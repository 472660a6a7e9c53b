"""Chains of monomial ideals closed under index-increasing substitutions.

A chain is determined by a seed ideal at a starting width r: the term at
width n >= r is generated by all images of the seed's generators under
strictly increasing maps [r] -> [n] (or under arbitrary injections for the
symmetric variant).  Terms below r default to zero but can be overridden
with an explicit head.

Derived chains: the saturation replaces each term with the limit ideal cut
back to its width, and the m-saturation rebuilds terms from all earlier
ones shifted by a pure power of the newest variable.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import AmbientMismatch, CapExceeded, ImproperIdeal
from .monomials import (
    Monomial,
    MonomialIdeal,
    _arrangements,
    _orbit_size,
    minimalize,
    q_invariant,
)

__all__ = [
    "Symmetry",
    "OrbitChain",
    "SaturationChain",
    "MSaturationChain",
    "Chain",
    "inc_orbit",
    "inc_orbit_by_shifts",
    "sym_orbit",
    "term",
    "saturation",
    "saturated_truncation",
    "m_saturation",
    "window_saturated",
    "ChainInvariants",
    "chain_invariants",
    "colon_filtration",
    "colon_filtration_term",
    "ORBIT_CAP",
    "HORIZON_CAP",
    "WINDOW_CAP",
]

#: Most placements or distinct images an orbit enumeration may build.
ORBIT_CAP = 10**6
#: Widest window of widths chain_invariants may sample.
HORIZON_CAP = 64
#: Most orbit images the terms of a chain_invariants window may enumerate.
WINDOW_CAP = 200_000


class Symmetry(str, Enum):
    INC = "inc"
    SYM = "sym"


# -- orbits of single monomials --------------------------------------------

def inc_orbit(u: Monomial, m: int, n: int) -> frozenset[Monomial]:
    """Images of u under strictly increasing maps [m] -> [n].

    Such a map moves the support points i_1 < ... < i_k to i_j + d_j with
    0 <= d_1 <= ... <= d_k <= n - m, so the images are the C(n - m + k, k)
    multisets of shifts; more than ORBIT_CAP raise CapExceeded.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if u.ambient > m:
        raise AmbientMismatch(f"{u!r} does not live in width {m}")
    k = len(u.exps)
    placements = _orbit_count(u, m, n, Symmetry.INC)
    if placements > ORBIT_CAP:
        raise CapExceeded("inc orbit placements", ORBIT_CAP, placements)
    return frozenset(
        Monomial(tuple((i + d, e) for (i, e), d in zip(u.exps, shifts)), n)
        for shifts in itertools.combinations_with_replacement(range(n - m + 1), k)
    )


def _shift_above(u: Monomial, j: int) -> Monomial:
    """Move every variable index above j up by one; width grows by one."""
    return Monomial(
        tuple((i if i <= j else i + 1, e) for i, e in u.exps), u.ambient + 1
    )


def inc_orbit_by_shifts(u: Monomial, m: int, n: int) -> frozenset[Monomial]:
    """Same orbit, built one width at a time from elementary shifts.

    Going from width t to t+1 applies every map fixing 1..j and shifting
    the rest up, j = 0..t; iterating from m to n matches inc_orbit and
    serves as its independent oracle.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if u.ambient > m:
        raise AmbientMismatch(f"{u!r} does not live in width {m}")
    level = {Monomial(u.exps, m)}
    for width in range(m, n):
        level = {_shift_above(v, j) for v in level for j in range(width + 1)}
    return frozenset(level)


def sym_orbit(u: Monomial, n: int) -> frozenset[Monomial]:
    """Images of u under all injections of its support into [n].

    These are the n!/prod(mult!) distinct arrangements of u's exponents
    padded with zeros to length n (u may live in a wider ring); more than
    ORBIT_CAP raise CapExceeded before any is built.
    """
    if len(u.exps) > n:
        raise ValueError(f"{u!r} has support wider than {n}")
    images = _orbit_count(u, n, n, Symmetry.SYM)
    if images > ORBIT_CAP:
        raise CapExceeded("sym orbit images", ORBIT_CAP, images)
    row = [e for _, e in u.exps] + [0] * (n - len(u.exps))
    return frozenset(Monomial.from_dense(a) for a in _arrangements(row))


def _orbit(u: Monomial, m: int, n: int, symmetry: Symmetry) -> frozenset[Monomial]:
    """Images of u, viewed at width m, under the chain's maps into [n].

    Empty when no map fits: m > n for Inc, a support wider than n for Sym.
    """
    if symmetry is Symmetry.SYM:
        return sym_orbit(u, n) if len(u.exps) <= n else frozenset()
    return inc_orbit(u.embed(m), m, n) if m <= n else frozenset()


def _orbit_count(u: Monomial, m: int, n: int, symmetry: Symmetry) -> int:
    """The size of _orbit(u, m, n, symmetry), with no image built."""
    k = len(u.exps)
    if symmetry is Symmetry.SYM:
        return _orbit_size([e for _, e in u.exps] + [0] * (n - k)) if k <= n else 0
    return math.comb(n - m + k, k) if m <= n else 0


# -- chain families --------------------------------------------------------

@dataclass(frozen=True)
class OrbitChain:
    """Chain generated in each width by the orbit of a fixed seed ideal.

    The seed lives at width `index`; terms below the index are zero unless
    an explicit head (terms at widths 1..index-1) is supplied.  Head terms
    must map into their successors, seed included.
    """

    seed: MonomialIdeal
    index: int
    symmetry: Symmetry = Symmetry.INC
    head: tuple[MonomialIdeal, ...] = ()

    @property
    def saturated_by_construction(self) -> bool:
        # from the index on, a Sym term holds every injective image of the
        # seed inside [n]: the limit ideal cut back to width n
        return self.symmetry is Symmetry.SYM

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("chain index must be at least 1")
        if self.seed.ambient != self.index:
            raise AmbientMismatch(
                f"seed width {self.seed.ambient} != chain index {self.index}"
            )
        if self.seed.is_zero:
            raise ImproperIdeal("a chain seed must be nonzero")
        if self.head:
            if len(self.head) != self.index - 1:
                raise ValueError(
                    f"head must cover widths 1..{self.index - 1}"
                )
            for w, t in enumerate(self.head, start=1):
                if t.ambient != w:
                    raise AmbientMismatch(f"head term {w} has width {t.ambient}")
            for w, t in enumerate(self.head, start=1):
                for target in range(w + 1, self.index + 1):
                    tgt = (
                        self.seed
                        if target == self.index
                        else self.head[target - 1]
                    )
                    for g in t.gens:
                        for img in _orbit(g, w, target, self.symmetry):
                            if img not in tgt:
                                raise ValueError(
                                    f"head term {w} does not map into term {target}"
                                )

    def _images(self, n: int) -> int:
        """Orbit images that building term n enumerates."""
        if n < self.index:
            return 0
        return sum(_orbit_count(g, self.index, n, self.symmetry) for g in self.seed.gens)

    def _compute_term(self, n: int) -> MonomialIdeal:
        if n < self.index:
            if self.head:
                return self.head[n - 1]
            return MonomialIdeal.zero(n)
        gens: list[Monomial] = []
        for g in self.seed.gens:
            gens.extend(_orbit(g, self.index, n, self.symmetry))
        return minimalize(gens, n)


@dataclass(frozen=True)
class SaturationChain:
    """The chain of limit-ideal truncations of a base orbit chain.

    Term n is the full orbit of the seed cut to width n: all images that
    fit inside [n], with no room reserved above, which equals restricting
    a far-enough term of the base chain.
    """

    base: OrbitChain

    saturated_by_construction = True

    def __post_init__(self) -> None:
        if not isinstance(self.base, OrbitChain):
            raise TypeError("saturation applies to orbit chains")

    @property
    def index(self) -> int:
        return self.base.index

    @property
    def symmetry(self) -> Symmetry:
        return self.base.symmetry

    def _images(self, n: int) -> int:
        return sum(
            _orbit_count(g, max(1, g.maxsupp), n, self.symmetry) for g in self.base.seed.gens
        )

    def _compute_term(self, n: int) -> MonomialIdeal:
        gens: list[Monomial] = []
        for g in self.base.seed.gens:
            # at the width of its own support, g has no room reserved above it
            gens.extend(_orbit(g, max(1, g.maxsupp), n, self.symmetry))
        if not gens:
            return MonomialIdeal.zero(n)
        return minimalize(gens, n)


@dataclass(frozen=True)
class MSaturationChain:
    """Terms rebuilt from all earlier base terms times a fresh-variable power.

    Term n is generated by x_k^m * G(base term k-1) for k = 2..n; term 1 is
    zero.  Declared index is base.index + 2: by then every later term is
    the orbit of this one.
    """

    base: "Chain"
    m: int

    saturated_by_construction = True

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("the saturation exponent must be positive")

    @property
    def index(self) -> int:
        return self.base.index + 2

    @property
    def symmetry(self) -> Symmetry:
        return self.base.symmetry

    def _images(self, n: int) -> int:
        # term n multiplies out the base terms at widths 1..n-1
        return sum(self.base._images(k) for k in range(1, n))

    def _compute_term(self, n: int) -> MonomialIdeal:
        gens: list[Monomial] = []
        for k in range(2, n + 1):
            prev = term(self.base, k - 1)
            power = Monomial.variable(k, n, self.m)
            for g in prev.gens:
                gens.append(g.embed(n) * power)
        if not gens:
            return MonomialIdeal.zero(n)
        return minimalize(gens, n)


Chain = OrbitChain | SaturationChain | MSaturationChain


@lru_cache(maxsize=4096)
def term(chain: Chain, n: int) -> MonomialIdeal:
    """The chain's ideal at width n (n >= 1)."""
    if n < 1:  # a raise is not cached
        raise ValueError("width must be at least 1")
    return chain._compute_term(n)


def saturation(chain: OrbitChain) -> SaturationChain:
    return SaturationChain(chain)


def saturated_truncation(chain: Chain, n: int) -> MonomialIdeal:
    """The limit ideal of the chain cut back to width n.

    Realized as restrict(term(n + index), n): by width n + index every
    generator of the limit with support in [n] has appeared.  Only
    meaningful for chains of the increasing family.
    """
    if chain.symmetry is not Symmetry.INC:
        raise ValueError("saturated truncation is defined for increasing chains")
    if n < 1:
        raise ValueError("width must be at least 1")
    return term(chain, n + chain.index).restrict(n)


def m_saturation(chain: Chain, m: int) -> MSaturationChain:
    return MSaturationChain(chain, m)


# -- numeric invariants of a chain -----------------------------------------

def window_saturated(chain: Chain, horizon: int) -> bool:
    """Whether every term over widths [index, index + horizon] is saturated.

    A term is saturated when it equals its saturated truncation; chains
    saturated by construction pass without building a term.
    """
    if chain.saturated_by_construction:
        return True
    r = chain.index
    return all(
        saturated_truncation(chain, n) == term(chain, n)
        for n in range(r, r + horizon + 1)
    )


@dataclass(frozen=True)
class ChainInvariants:
    """Limit weights of a chain plus the certificates behind them.

    lambda_ is the largest last-variable weight seen over the sampled
    window; it is the true limit exactly when the certificate says so
    (it reached the upper bound w, or the chain is saturated).
    """

    lambda_: int
    w: int
    q: int
    quasi_saturated: bool
    lambda_maximal: bool
    saturated_window: bool
    horizon: int
    lambda_certificate: str

    @property
    def lambda_exact(self) -> bool:
        return self.lambda_certificate in ("reached_w", "saturated")


@lru_cache(maxsize=4096)
def chain_invariants(chain: Chain, horizon: int | None = None) -> ChainInvariants:
    """Sample terms over a window and report the chain's limit weights.

    The window is [index, index + horizon], horizon defaulting to
    2 * delta(seed) + 4.  Once the seed term has sized it, and before any
    other term is built, CapExceeded is raised for a horizon above
    HORIZON_CAP, or when the terms the window builds would enumerate more
    than WINDOW_CAP orbit images in all.  Those terms are the window's,
    and for a chain not saturated by construction those at widths
    [2 index, 2 index + horizon], whose restrictions are the saturated
    truncations.  Certificates, in order of strength: reached_w,
    saturated, stable_tail, inconclusive.

    The quasi-saturation flag compares widths index and index + 1, so it
    trusts the declared index to be the width where the chain actually
    starts; a chain declared at a larger index than necessary can be
    flagged quasi-saturated without the property holding further down.

    Results are cached per (chain, horizon) argument, like terms.
    """
    r = chain.index
    seed = term(chain, r)
    if not seed.is_proper:
        raise ImproperIdeal("chain invariants need a proper seed term")
    wts = seed.weights()
    h = horizon if horizon is not None else 2 * wts.delta + 4
    if h < 1:
        raise ValueError("horizon must be at least 1")
    if h > HORIZON_CAP:
        raise CapExceeded("invariants horizon", HORIZON_CAP, h)
    widths = set(range(r, r + h + 1))
    if not chain.saturated_by_construction:
        widths |= set(range(2 * r, 2 * r + h + 1))
    images = sum(chain._images(n) for n in widths)
    if images > WINDOW_CAP:
        raise CapExceeded("invariants window images", WINDOW_CAP, images)

    lam_vals = [term(chain, n).weights().lambda_ for n in range(r, r + h + 1)]
    sat_ok = window_saturated(chain, h)
    lam = max(lam_vals)

    if lam == wts.w:
        cert = "reached_w"
    elif sat_ok:
        cert = "saturated"
    elif len(set(lam_vals[len(lam_vals) // 2 :])) == 1:
        cert = "stable_tail"
    else:
        cert = "inconclusive"

    p = wts.maxsupp
    succ = term(chain, r + 1)
    quasi = succ.restrict(p).embed(r + 1) == seed.embed(r + 1)

    return ChainInvariants(
        lambda_=lam,
        w=wts.w,
        q=q_invariant(seed),
        quasi_saturated=quasi,
        lambda_maximal=lam == wts.w,
        saturated_window=sat_ok,
        horizon=h,
        lambda_certificate=cert,
    )


# -- the colon filtration ---------------------------------------------------

def colon_filtration(chain: Chain, e: int) -> OrbitChain:
    """The orbit chain seeded by colons against the first new variable.

    With p the top support index of the seed, the new seed at width
    index+1 is (term(index+1) : x_{p+1}^e) cut back to width p.  e = 0
    just restricts.  The seed may come out as the unit ideal (e at least
    the generator exponents); such chains are allowed and have q = 0.
    """
    if chain.symmetry is not Symmetry.INC:
        raise ValueError("the colon filtration is defined for increasing chains")
    if e < 0:
        raise ValueError("the colon exponent must be nonnegative")
    r = chain.index
    seed = term(chain, r)
    if not seed.is_proper:
        raise ImproperIdeal("the colon filtration needs a proper seed term")
    p = seed.maxsupp
    nxt = term(chain, r + 1)
    x = Monomial.one(r + 1) if e == 0 else Monomial.variable(p + 1, r + 1, e)
    derived = nxt.colon(x).restrict(p).embed(r + 1)
    if derived.is_zero:
        raise ImproperIdeal("colon filtration produced a zero seed")
    return OrbitChain(seed=derived, index=r + 1, symmetry=Symmetry.INC)


def colon_filtration_term(chain: Chain, e: int, n: int) -> MonomialIdeal:
    """Definitional term of the colon filtration at width n.

    (term(n) : x_{n-r+p}^e) intersected with the polynomial ring one
    variable below that colon variable, then viewed at width n.  Used as
    the independent cross-check of colon_filtration's orbit terms.
    """
    r = chain.index
    seed = term(chain, r)
    if not seed.is_proper:
        raise ImproperIdeal("the colon filtration needs a proper seed term")
    p = seed.maxsupp
    if n <= r:
        return MonomialIdeal.zero(n)
    k = n - r + p
    x = Monomial.one(n) if e == 0 else Monomial.variable(k, n, e)
    return term(chain, n).colon(x).restrict(k - 1).embed(n)
