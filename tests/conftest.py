import pytest
from hypothesis import settings

from incideals import Monomial, MonomialIdeal, OrbitChain


# One fixed profile, so that every run draws the same examples.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("tier1")


def mono(pairs, ambient):
    return Monomial.from_pairs(pairs, ambient)


def ideal(gen_pairs, ambient):
    return MonomialIdeal.from_gens(
        tuple(Monomial.from_pairs(p, ambient) for p in gen_pairs), ambient
    )


@pytest.fixture
def mixed_squares_chain():
    # seed <x1^2, x2^2 x3, x3^2> at width 3
    return OrbitChain(
        seed=ideal([[(1, 2)], [(2, 2), (3, 1)], [(3, 2)]], 3), index=3
    )


@pytest.fixture
def squares_chain():
    return OrbitChain(seed=ideal([[(1, 2)]], 1), index=1)


@pytest.fixture
def two_block_chain():
    # six generators at width 6; the quadratics spread into two cliques
    gens = [
        [(1, 2), (3, 1), (4, 1), (5, 1)],
        [(1, 1), (3, 2), (4, 1), (5, 1)],
        [(1, 1), (3, 1), (4, 2), (5, 1)],
        [(1, 1), (3, 1), (4, 1), (5, 2)],
        [(2, 1), (3, 1)],
        [(5, 1), (6, 1)],
    ]
    return OrbitChain(seed=ideal(gens, 6), index=6)
