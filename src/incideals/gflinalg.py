"""Exact linear algebra over prime fields GF(p)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FieldSpec", "DEFAULT_FIELD", "gf_rank"]


def _is_prime(n: int) -> bool:
    # trial division: FieldSpec bounds n below 2^31, so at most 46,341 steps
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p) with p small enough for int64 arithmetic."""

    p: int = 32003

    def __post_init__(self) -> None:
        if not 2 <= self.p < 2**31:
            raise ValueError(f"characteristic out of range: {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime: {self.p}")


DEFAULT_FIELD = FieldSpec(32003)


def gf_rank(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over GF(p) by Gaussian elimination.

    Row-reduces a working copy in int64; p < 2^31 keeps every product of
    residues inside int64.
    """
    if matrix.size == 0:
        return 0
    a = np.mod(np.asarray(matrix, dtype=np.int64), p)
    rows, cols = a.shape
    if rows < cols:
        a = a.T.copy()
        rows, cols = cols, rows
    rank = 0
    for c in range(cols):
        sub = a[rank:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), -1, p)
        a[rank, c:] = a[rank, c:] * inv % p
        col = a[rank + 1 :, c]
        hot = np.nonzero(col)[0]
        if hot.size:
            block = a[rank + 1 :, c:]
            block[hot] = (block[hot] - np.outer(col[hot], a[rank, c:])) % p
        rank += 1
        if rank == rows:
            break
    return rank
