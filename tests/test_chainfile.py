import pytest

from incideals import (
    ChainFileError,
    Symmetry,
    load_chain,
    loads_chain,
    parse_monomial,
    term,
)
from conftest import ideal, mono


def test_parse_monomial_basic():
    assert parse_monomial("x1^2*x3", 3) == mono([(1, 2), (3, 1)], 3)
    assert parse_monomial("x2", 4) == mono([(2, 1)], 4)
    assert parse_monomial("1", 2).is_one
    # repeats multiply
    assert parse_monomial("x1*x1*x2^2", 2) == mono([(1, 2), (2, 2)], 2)


def test_parse_monomial_default_width():
    u = parse_monomial("x3*x5")
    assert u.ambient == 5


def test_parse_monomial_errors():
    with pytest.raises(ChainFileError) as e:
        parse_monomial("x0", 2)
    assert e.value.col == 2
    with pytest.raises(ChainFileError) as e:
        parse_monomial("x1^", 2)
    assert e.value.col == 4
    with pytest.raises(ChainFileError) as e:
        parse_monomial("x1x2", 2)
    assert e.value.col == 3  # missing '*'
    with pytest.raises(ChainFileError):
        parse_monomial("y1", 2)
    with pytest.raises(ChainFileError):
        parse_monomial("", 2)
    with pytest.raises(ChainFileError):
        parse_monomial("x1^0", 2)
    with pytest.raises(ChainFileError):
        parse_monomial("x4", 2)  # beyond the width


def test_loads_chain_minimal():
    c = loads_chain("index 2\ngen x1*x2^2\ngen x2^3\n")
    assert c.index == 2
    assert c.symmetry is Symmetry.INC
    assert c.seed == ideal([[(1, 1), (2, 2)], [(2, 3)]], 2)


def test_loads_chain_comments_and_blanks():
    text = """
# a power chain
index 2    # width of the seed

gen x1*x2^2
gen x2^3
"""
    c = loads_chain(text)
    assert len(c.seed.gens) == 2


def test_loads_chain_symmetry():
    c = loads_chain("index 2\nsymmetry sym\ngen x1^2\n")
    assert c.symmetry is Symmetry.SYM
    with pytest.raises(ChainFileError):
        loads_chain("index 2\nsymmetry cyclic\ngen x1\n")


def test_loads_chain_head():
    text = "index 3\ngen x1^2\ngen x2^2\ngen x3^2\nhead 2 x1^2\nhead 2 x2^2\n"
    c = loads_chain(text)
    assert term(c, 2) == ideal([[(1, 2)], [(2, 2)]], 2)
    assert term(c, 1).is_zero


def test_loads_chain_errors_carry_positions():
    with pytest.raises(ChainFileError) as e:
        loads_chain("index 2\ngen x1^^2\n")
    assert e.value.line == 2 and e.value.col == 8
    with pytest.raises(ChainFileError) as e:
        loads_chain("gen x1\n")
    assert "index" in str(e.value)
    with pytest.raises(ChainFileError) as e:
        loads_chain("index 2\n")
    assert "gen" in str(e.value)
    with pytest.raises(ChainFileError) as e:
        loads_chain("index 2\nindex 3\ngen x1\n")
    assert e.value.line == 2
    with pytest.raises(ChainFileError) as e:
        loads_chain("index two\ngen x1\n")
    assert e.value.line == 1
    with pytest.raises(ChainFileError) as e:
        loads_chain("index 2\nfoo bar\n")
    assert e.value.line == 2
    with pytest.raises(ChainFileError):
        loads_chain("index 3\ngen x1\nhead 5 x1\n")  # head width out of range


def test_load_chain_roundtrip(tmp_path):
    path = tmp_path / "c.chain"
    path.write_text("index 2\ngen x1*x2^2\ngen x2^3\n")
    c = load_chain(str(path))
    assert c.index == 2
    assert str(c.seed) == "<x1*x2^2, x2^3>"


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ("index 0\ngen x1\n", "index must be at least 1", 1, 7),
        ("index 2\ngen\n", "gen line needs a monomial", 2, None),
        ("index 2\ngen x1\nhead x x1\n", "head needs a width", 3, 6),
        ("index 2\ngen x1\nhead 1\n", "head line needs a monomial", 3, None),
        # the chain itself rejects a head whose images miss the seed: line of the index
        ("index 2\ngen x1*x2\nhead 1 x1\n", "head term 1 does not map into term 2", 1, None),
    ],
    ids=["index_below_one", "empty_gen", "head_width", "empty_head", "head_not_in_seed"],
)
def test_loads_chain_line_errors(text, message, line, col):
    with pytest.raises(ChainFileError) as e:
        loads_chain(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)
