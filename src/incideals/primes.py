"""Associated primes of monomial ideals.

Monomial ideals only have monomial primes, i.e. primes generated by a set
of variables.  `associated_primes` finds them through the irredundant
irreducible decomposition, which it builds by repeatedly splitting a
generator into coprime parts:

    J = (J + <x_i^a>) /\\ (J + <m>)   whenever  x_i^a * m in G(J), gcd = 1.

Once every generator is a pure variable power the ideal is irreducible,
and the associated primes are exactly the supports of the components that
survive the redundancy filter.  For irreducible components redundancy is
pairwise: a component is dropped iff it contains another one.

`associated_primes_brute` is an independent cross-check that scans every
divisor u of lcm(G(J)) for colon ideals (J : u) that are prime.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, ImproperIdeal
from .monomials import Monomial, MonomialIdeal, lcm

__all__ = ["MonomialPrime", "associated_primes", "associated_primes_brute", "irreducible_components"]


@dataclass(frozen=True)
class MonomialPrime:
    """A prime ideal generated by variables, identified by their indices."""

    vars: frozenset[int]

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("a monomial prime needs at least one variable")
        if any(i < 1 for i in self.vars):
            raise ValueError("variable indices start at 1")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vars))

    def __str__(self) -> str:
        return "<" + ", ".join(f"x{i}" for i in self.indices) + ">"


def _is_irreducible(ideal: MonomialIdeal) -> bool:
    return all(len(g.exps) == 1 for g in ideal.gens)


def _split_components(ideal: MonomialIdeal, memo: dict) -> frozenset[MonomialIdeal]:
    found = memo.get(ideal)
    if found is not None:
        return found
    if _is_irreducible(ideal):
        result = frozenset([ideal])
    else:
        u = next(g for g in ideal.gens if len(g.exps) > 1)
        i, a = u.exps[0]
        head = Monomial.variable(i, ideal.ambient, a)
        tail = u / head
        left = MonomialIdeal.from_gens(ideal.gens + (head,), ideal.ambient)
        right = MonomialIdeal.from_gens(ideal.gens + (tail,), ideal.ambient)
        result = _split_components(left, memo) | _split_components(right, memo)
    memo[ideal] = result
    return result


def irreducible_components(ideal: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """The irredundant irreducible decomposition, sorted canonically."""
    if not ideal.is_proper:
        raise ImproperIdeal("decomposition needs a nonzero proper ideal")
    components = sorted(_split_components(ideal, {}), key=lambda c: [g.sort_key() for g in c.gens])
    kept = [
        c
        for c in components
        if not any(d is not c and _contains_ideal(c, d) for d in components)
    ]
    return tuple(kept)


def _contains_ideal(big: MonomialIdeal, small: MonomialIdeal) -> bool:
    return all(big.contains(g) for g in small.gens)


def associated_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """All associated primes of R/I for a nonzero proper monomial ideal."""
    comps = irreducible_components(ideal)
    return frozenset(MonomialPrime(frozenset(g.exps[0][0] for g in c.gens)) for c in comps)


def associated_primes_brute(ideal: MonomialIdeal, cap: int = 200_000) -> frozenset[MonomialPrime]:
    """Oracle: P is associated iff (I : u) = P for some u dividing lcm(G(I)).

    Enumerates every divisor of the lcm of the generators, so it is only
    meant for small inputs; raises CapExceeded past `cap` divisors.
    """
    if not ideal.is_proper:
        raise ImproperIdeal("associated primes need a nonzero proper ideal")
    top = ideal.gens[0]
    for g in ideal.gens[1:]:
        top = lcm(top, g)
    ranges = [range(e + 1) for _, e in top.exps]
    total = 1
    for r in ranges:
        total *= len(r)
    if total > cap:
        raise CapExceeded("divisor enumeration", cap, total)
    support = [i for i, _ in top.exps]
    primes = set()
    for combo in itertools.product(*ranges):
        u = Monomial.from_pairs(
            [(i, e) for i, e in zip(support, combo) if e], ideal.ambient
        )
        q = ideal.colon(u)
        if q.is_proper and _is_irreducible(q) and all(g.exps[0][1] == 1 for g in q.gens):
            primes.add(MonomialPrime(frozenset(g.exps[0][0] for g in q.gens)))
    return frozenset(primes)
