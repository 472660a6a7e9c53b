import numpy as np
import pytest

import incideals.asymptotics as asymptotics
import incideals.betti as betti_module
from incideals import (
    BettiTable,
    CapExceeded,
    LinearFit,
    Monomial,
    OrbitChain,
    RandomChainParams,
    SeriesReport,
    betti_table,
    check_betti_propagation,
    check_colon_filtration,
    check_msat_identities,
    check_pd_linearity,
    check_reg_slope,
    detect_linear,
    m_saturation,
    random_chain,
    saturation,
    series,
    term,
)
from incideals.betti import _walk
from conftest import ideal


def test_detect_linear_golden():
    fit = detect_linear([(6, 5), (7, 3), (8, 5), (9, 6), (10, 7), (11, 8)])
    assert fit == LinearFit(slope=1, intercept=-3, onset=8)


def test_detect_linear_short_suffix_is_none():
    # only the last three points are collinear
    assert detect_linear([(1, 0), (2, 5), (3, 1), (4, 2), (5, 3)]) is None


def test_detect_linear_constant():
    fit = detect_linear([(2, 4), (3, 4), (4, 4), (5, 4)])
    assert fit.slope == 0 and fit.intercept == 4 and fit.onset == 2


def test_detect_linear_errors():
    with pytest.raises(ValueError):
        detect_linear([(3, 1)])
    with pytest.raises(ValueError):
        detect_linear([(3, 1), (3, 2)])


def test_series_pd_squares(squares_chain):
    rep = series(squares_chain, "pd", 1, 6)
    assert rep.values == ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5))
    assert rep.fit is not None and rep.fit.slope == 1 and rep.fit.intercept == -1
    assert rep.status == "linear"
    assert rep.truncated is None


def test_series_gens_metric(mixed_squares_chain):
    # mixed-exponent images all get absorbed by pure squares from width 4 on
    rep = series(mixed_squares_chain, "gens", 3, 6)
    assert rep.values == ((3, 3), (4, 4), (5, 5), (6, 6))


def test_series_ass_primes_metric(squares_chain):
    rep = series(squares_chain, "ass_primes", 1, 4)
    assert [v for _, v in rep.values] == [1, 1, 1, 1]


def test_series_truncates_on_cap(mixed_squares_chain):
    rep = series(mixed_squares_chain, "pd", 3, 9, gen_cap=5)
    assert rep.truncated is not None
    assert rep.values == ((3, 2), (4, 3), (5, 4))  # term 6 has 6 generators
    assert rep.status in ("linear", "undetermined")


def test_series_budget_truncates(squares_chain):
    # every width takes longer than a zero budget, so only the first is kept
    rep = series(squares_chain, "pd", 1, 4, budget=0.0)
    assert rep.values == ((1, 0),)
    assert rep.truncated.startswith("budget: width 1")


def test_series_window_validation(squares_chain):
    with pytest.raises(ValueError):
        series(squares_chain, "pd", 0, 3)
    with pytest.raises(ValueError):
        series(squares_chain, "nope", 1, 3)


def test_series_reads_the_previous_width_from_its_walk(monkeypatch):
    # the rows of I_n with a_n = 0 are the lcm lattice of I_{n-1}: the
    # widths run in order in one process, so they are read from the walk
    # of I_{n-1} and never classified again
    seed = ideal([[(1, 1), (2, 1), (3, 1)], [(2, 2)]], 3)  # corpus chain 1014
    chain = saturation(OrbitChain(seed=seed, index=3))
    classified = {}
    complex_classes = betti_module._complex_classes

    def counted(points, gens):
        classified.setdefault(points.shape[1], []).append(points)
        return complex_classes(points, gens)

    _walk.cache_clear()
    monkeypatch.setattr(betti_module, "_complex_classes", counted)
    rep = series(chain, "reg", 5, 9)
    assert [n for n, _ in rep.values] == [5, 6, 7, 8, 9]
    assert sorted(classified) == [5, 6, 7, 8, 9]  # each term uses all its variables
    for n in range(6, 10):
        points = np.concatenate(classified[n])
        assert (points[:, -1] != 0).all(), n


def test_random_chain_determinism():
    p = RandomChainParams(index=3, num_gens=3, max_exponent=2, max_degree=4, seed=7)
    a = random_chain(p)
    b = random_chain(p)
    assert a == b
    c = random_chain(
        RandomChainParams(index=3, num_gens=3, max_exponent=2, max_degree=4, seed=8)
    )
    assert a != c


def test_random_chain_respects_bounds():
    for s in range(20):
        p = RandomChainParams(
            index=3, num_gens=3, max_exponent=2, max_degree=4, seed=100 + s
        )
        chain = random_chain(p)
        seed_ideal = term(chain, 3)
        assert seed_ideal.is_proper
        for g in seed_ideal.gens:
            assert g.degree <= 4
            assert all(e <= 2 for _, e in g.exps)


def test_check_pd_linearity_na_on_unsaturated(mixed_squares_chain):
    res = check_pd_linearity(mixed_squares_chain, horizon=4)
    assert not res.applicable and res.holds


@pytest.mark.parametrize("saturate", [False, True], ids=["plain", "saturation"])
def test_check_pd_linearity_na_on_the_unit_chain(saturate):
    # every term is the unit ideal, of pd 0, so pd cannot grow
    chain = OrbitChain(seed=ideal([[]], 1), index=1)
    res = check_pd_linearity(saturation(chain) if saturate else chain, horizon=4)
    assert not res.applicable and res.holds
    assert res.details == {"reason": "improper seed"}


@pytest.mark.parametrize("saturate", [False, True], ids=["plain", "saturation"])
@pytest.mark.parametrize(
    "check",
    [lambda chain: check_reg_slope(chain, horizon=4),
     lambda chain: check_betti_propagation(chain, chain.index + 1),
     lambda chain: check_msat_identities(chain, 2, horizon=2)],
    ids=["reg_slope", "betti_propagation", "msat_identities"],
)
def test_chain_invariant_checks_na_on_the_unit_chain(saturate, check):
    # the chain invariants need a proper seed term; the unit chain has none
    chain = OrbitChain(seed=ideal([[]], 1), index=1)
    res = check(saturation(chain) if saturate else chain)
    assert not res.applicable and res.holds
    assert res.details == {"reason": "improper seed"}


def test_check_pd_linearity_holds(squares_chain):
    res = check_pd_linearity(squares_chain, horizon=6)
    assert res.applicable and res.holds
    assert res.details["d"] == 1 and res.details["depth"] == 0


def test_check_reg_slope(squares_chain, mixed_squares_chain):
    res = check_reg_slope(squares_chain, horizon=6)
    assert res.applicable and res.holds
    assert res.details["slope_lower"] == 1 and res.details["slope_upper"] == 1
    # mixed chain is not quasi-saturated: evidence only
    res2 = check_reg_slope(mixed_squares_chain, horizon=4)
    assert not res2.applicable and res2.holds
    assert "increments" in res2.details


def test_check_reg_slope_rejects_an_empty_window(squares_chain, monkeypatch):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        check_reg_slope(squares_chain, horizon=0)

    def no_terms(*args):
        raise AssertionError("a term was built before the horizon was checked")

    monkeypatch.setattr(asymptotics, "term", no_terms)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        check_msat_identities(squares_chain, 2, horizon=0)


def test_check_betti_propagation(squares_chain, mixed_squares_chain):
    res = check_betti_propagation(squares_chain, 3)
    assert res.applicable and res.holds and res.details["checked"] == 7
    sat = saturation(mixed_squares_chain)
    res2 = check_betti_propagation(sat, 4)
    assert res2.applicable and res2.holds
    res3 = check_betti_propagation(mixed_squares_chain, 4)
    assert not res3.applicable


def test_check_msat_identities(squares_chain, mixed_squares_chain):
    for chain, m in [(squares_chain, 1), (squares_chain, 2), (mixed_squares_chain, 2)]:
        res = check_msat_identities(chain, m, horizon=2)
        assert res.applicable and res.holds, (m, res.details["failures"][:3])


def test_check_colon_filtration(squares_chain, mixed_squares_chain):
    for chain, e in [
        (squares_chain, 0),
        (squares_chain, 1),
        (squares_chain, 2),
        (mixed_squares_chain, 1),
    ]:
        res = check_colon_filtration(chain, e, horizon=2)
        assert res.applicable and res.holds, (e, res.details["failures"])


def corrupt_table(monkeypatch, target, edit):
    """Make the checks see `edit(entries)` as the Betti table of `target`.

    The edited entries become a table of weight-1 rows, one per entry.
    """

    def fake(ideal, *args, **kwargs):
        table = betti_table(ideal, *args, **kwargs)
        if ideal != target:
            return table
        entries = edit(table.entries)
        n = table.ambient
        return BettiTable(
            np.array([i for i, _, _ in entries], dtype=np.int64),
            np.array([a.dense() for _, a, _ in entries], dtype=np.int16).reshape(-1, n),
            np.array([v for _, _, v in entries], dtype=np.int64),
            np.ones(len(entries), dtype=np.int64),
            table.char,
            n,
        )

    monkeypatch.setattr(asymptotics, "betti_table", fake)


def test_check_betti_propagation_fails_on_a_dropped_successor(squares_chain, monkeypatch):
    # x1^2 (degree 0) at width 3 has the single successor x1^2*x2^2 (degree 1)
    successor = (1, "x1^2*x2^2")
    corrupt_table(
        monkeypatch,
        term(squares_chain, 4),
        lambda entries: tuple(e for e in entries if (e[0], str(e[1])) != successor),
    )
    res = check_betti_propagation(squares_chain, 3)
    assert res.applicable and res.holds is False
    assert res.details["failures"] == [(0, "x1^2", "no successor degree")]


@pytest.mark.parametrize("edit", ["drop", "add_one"])
def test_check_msat_identities_fails_on_a_corrupted_table(squares_chain, monkeypatch, edit):
    # J_5 is the last width of the window, so it enters only as the left side
    m, n = 2, 5
    target = term(m_saturation(squares_chain, m), n)
    entries = betti_table(target).entries
    k = next(k for k, (_, a, _) in enumerate(entries) if a.exponent(n) == m)
    i, a, v = entries[k]
    if edit == "drop":
        changed, lhs = entries[:k] + entries[k + 1 :], 0
    else:
        changed, lhs = entries[:k] + ((i, a, v + 1),) + entries[k + 1 :], v + 1
    corrupt_table(monkeypatch, target, lambda _: changed)
    res = check_msat_identities(squares_chain, m, horizon=2)
    assert res.applicable and res.holds is False
    stripped = str(a / Monomial.variable(n, n, m))
    assert res.details["failures"][0] == (n, i, stripped, lhs, v)
