import math
from fractions import Fraction

import numpy as np
import pytest

from incideals import FieldSpec, gf_rank
from incideals.gflinalg import _is_prime


def rational_rank(mat):
    """Row reduce over Q; independent oracle for gf_rank away from bad primes."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_field_spec_validation():
    assert FieldSpec(2).p == 2
    assert FieldSpec(32003).p == 32003
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(32004)  # composite
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)
    assert FieldSpec(2**31 - 1).p == 2**31 - 1  # the largest prime allowed
    with pytest.raises(ValueError):
        FieldSpec(561)  # a Carmichael number


def test_is_prime_matches_a_sieve():
    n = 1 << 16
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [_is_prime(k) for k in range(n)] == sieve.tolist()


def test_rank_golden():
    assert gf_rank(np.eye(3, dtype=np.int64), 5) == 3
    assert gf_rank(np.zeros((2, 4), dtype=np.int64), 7) == 0
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert gf_rank(m, 32003) == 1
    # rank can drop in small characteristic
    m2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    assert gf_rank(m2, 2) == 1
    assert gf_rank(m2, 3) == 2


def test_rank_of_empty_shapes():
    assert gf_rank(np.zeros((0, 5), dtype=np.int64), 3) == 0
    assert gf_rank(np.zeros((5, 0), dtype=np.int64), 3) == 0


def test_rank_matches_rational_oracle():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = rng.integers(-4, 5, size=(rng.integers(1, 7), rng.integers(1, 7)))
        # large prime avoids characteristic collisions with entries this small
        assert gf_rank(m.astype(np.int64), 32003) == rational_rank(m)


def test_negative_entries_reduced_mod_p():
    m = np.array([[-1, 1], [1, -1]], dtype=np.int64)
    assert gf_rank(m, 32003) == 1
