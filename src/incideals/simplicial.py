"""Abstract simplicial complexes and reduced simplicial homology over GF(p).

Complexes are stored over an explicit vertex universe (a sorted tuple of
variable indices); faces are bitmasks over positions in that tuple.  The
empty face is a member of every nonvoid complex, which makes the reduced
chain complex start at C_{-1} = K and gives dim H~_{-1} = 1 for the
complex {0} alone.

This is the reference homology path: explicit face lists, explicit
boundary matrices, ranks by Gaussian elimination over GF(p).  The Betti
table machinery keeps a faster route internally but is tested against
this one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gflinalg import DEFAULT_FIELD, FieldSpec, gf_rank

__all__ = ["SimplicialComplex", "face_closure", "homology_ranks", "alexander_dual"]


def face_closure(masks: Iterable[int]) -> set[int]:
    """All subsets of the given faces (bitmasks), the faces included."""
    closed: set[int] = set()
    add = closed.add
    for f in set(masks):
        sub = f
        while sub:  # every nonempty submask of f, in decreasing order
            add(sub)
            sub = (sub - 1) & f
        add(0)
    return closed


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces (as position bitmasks) over a sorted vertex universe.

    The universe may list vertices that no face uses.  `faces` is closed
    under subsets and contains 0 (the empty face) iff it is nonempty.
    """

    vertices: tuple[int, ...]
    faces: frozenset[int]

    def __post_init__(self) -> None:
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertex universe must be strictly sorted")
        if len(self.vertices) > 62:
            raise ValueError("vertex universe too wide for bitmask faces")
        full = (1 << len(self.vertices)) - 1
        for f in self.faces:
            if f & ~full:
                raise ValueError(f"face {f:b} uses vertices outside the universe")
        if self.faces and 0 not in self.faces:
            raise ValueError("a nonvoid complex contains the empty face")
        for f in self.faces:
            for b in range(len(self.vertices)):
                if f >> b & 1 and (f ^ (1 << b)) not in self.faces:
                    raise ValueError("faces are not closed under subsets")

    @classmethod
    def from_facets_masks(cls, masks: Iterable[int], vertices: tuple[int, ...]) -> SimplicialComplex:
        return cls(vertices, frozenset(face_closure(masks)))

    @classmethod
    def void(cls, vertices: Iterable[int] = ()) -> SimplicialComplex:
        return cls(tuple(sorted(set(vertices))), frozenset())

    # -- queries ------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def dim(self) -> int:
        """Geometric dimension; -1 for {0}, undefined (ValueError) if void."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.faces) - 1

    def facet_masks(self) -> tuple[int, ...]:
        maximal = [f for f in self.faces if not any(g != f and f & g == f for g in self.faces)]
        return tuple(sorted(maximal))

    def faces_of_size(self, k: int) -> list[int]:
        return sorted(f for f in self.faces if f.bit_count() == k)

    @property
    def is_cone(self) -> bool:
        """True when some vertex belongs to every facet (homology vanishes)."""
        if self.is_void:
            return False
        acc = (1 << len(self.vertices)) - 1
        for f in self.facet_masks():
            acc &= f
            if not acc:
                return False
        return bool(acc)


def boundary_matrix(complex_: SimplicialComplex, k: int) -> np.ndarray:
    """Matrix of the boundary map from k-element faces to (k-1)-element faces."""
    cur = complex_.faces_of_size(k)
    prev = complex_.faces_of_size(k - 1)
    index = {f: i for i, f in enumerate(prev)}
    mat = np.zeros((len(prev), len(cur)), dtype=np.int64)
    for col, f in enumerate(cur):
        sign = 1
        b = f
        while b:
            low = b & -b
            child = f ^ low
            mat[index[child], col] = sign
            sign = -sign
            b ^= low
    return mat


def homology_ranks(complex_: SimplicialComplex, field: FieldSpec = DEFAULT_FIELD) -> dict[int, int]:
    """dim H~_i over GF(p) for i = -1 .. dim; the void complex gives {}.

    Uses the reduced chain complex: rank H~_i equals
    f_{i+1} - rank d_{i+1} - rank d_{i+2} with faces counted by size.
    """
    if complex_.is_void:
        return {}
    top = complex_.dim + 1
    sizes = [len(complex_.faces_of_size(k)) for k in range(top + 1)]
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        ranks[k] = gf_rank(boundary_matrix(complex_, k), field.p)
    out = {}
    for i in range(-1, complex_.dim + 1):
        k = i + 1
        out[i] = sizes[k] - ranks[k] - ranks[k + 1]
    return out


def alexander_dual(complex_: SimplicialComplex) -> SimplicialComplex:
    """The combinatorial Alexander dual on the same vertex universe.

    F is a dual face exactly when the complement of F is not a face.
    Over a field, dim H~_i(D) = dim H~_(s-i-3)(dual D) with s vertices.
    """
    s = len(complex_.vertices)
    full = (1 << s) - 1
    dual = frozenset(f for f in range(full + 1) if (full ^ f) not in complex_.faces)
    return SimplicialComplex(complex_.vertices, dual)
