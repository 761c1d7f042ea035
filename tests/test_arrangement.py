"""Arrangement parsing, canonicalization, and combinatorial operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosschecks import defining_polynomial
from stlog.arrangement import (Arrangement, Hyperplane, Multiplicity,
                               decompose_product, essentialize, is_essential,
                               is_irreducible, parse, render)
from stlog.exceptions import ParseError, StructuralError
from stlog.fixtures import load


def test_hyperplane_canonical_form():
    assert Hyperplane([-2, 4, -6]).coeffs == (1, -2, 3)
    assert Hyperplane([0, -3, 0]).coeffs == (0, 1, 0)
    with pytest.raises(StructuralError):
        Hyperplane([0, 0, 0])


def test_parse_render_roundtrip():
    text = "ell 3\nH 1 0 0\nH 0 1 0 m=2\nH 1 1 1\n"
    arr, mult = parse(text)
    assert arr.ell == 3 and arr.n == 3
    assert mult.total == 4
    arr2, mult2 = parse(render(arr, mult))
    assert arr2 == arr and mult2 == mult


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse("ell 2\nH 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("ell 2\nH 1 0\nH 2 0\n")      # duplicate after normalization
    with pytest.raises(ParseError, match="line 1"):
        parse("H 1 0\nell 2\n")
    with pytest.raises(ParseError, match="zero row"):
        parse("ell 2\nH 0 0\n")
    with pytest.raises(ParseError):
        parse("")


@pytest.mark.parametrize("text, message", [
    ("ell \u00b3\nH 1\n", "malformed ell"),           # a digit, not ASCII
    ("ell --3\nH 1\n", "malformed ell"),
    ("ell " + "9" * 5000 + "\n", "malformed ell"),    # beyond int() limit
    ("ell 2\nH 1 0 m=\u00b3\n", "malformed multiplicity"),
    ("ell 2\nH 1 0 m=" + "9" * 5000 + "\n", "malformed multiplicity"),
    ("ell 2\nH 1_0 \u0663\n", "line 2: non-integer coefficient"),
    ("ell 2\nH +1 0\n", "line 2: non-integer coefficient"),
    ("ell 2\nH 1 " + "9" * 5000 + "\n", "line 2: non-integer coefficient")],
    ids=["ell-superscript", "ell-double-minus", "ell-5000-digits",
         "m-superscript", "m-5000-digits", "H-underscore-arabic-indic",
         "H-plus-sign", "H-5000-digits"])
def test_parse_refuses_numbers_int_cannot_read(text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_parse_comments_and_multiplicity():
    arr, mult = parse("# header\nell 2\nH 1 0 m=3   # inline\nH 0 1\n")
    assert mult.values in ((3, 1), (1, 3))
    assert mult.total == 4


def test_hyperplane_order_is_canonical():
    a, _ = parse("ell 2\nH 0 1\nH 1 0\n")
    b, _ = parse("ell 2\nH 1 0\nH 0 1\n")
    assert a == b
    assert render(a, Multiplicity.simple(2)) == render(b, Multiplicity.simple(2))


def test_essentialize_drops_rank_deficiency():
    # two parallel-axis hyperplanes in 3 variables: rank 2
    arr, mult = parse("ell 3\nH 1 0 0\nH 0 1 0\n")
    assert not is_essential(arr)
    ess, essm = essentialize(arr, mult)
    assert ess.ell == 2
    assert is_essential(ess)
    assert essm.total == mult.total


def test_essentialize_identity_on_essential():
    arr, mult = load("ex1")
    ess, essm = essentialize(arr, mult)
    assert ess is arr and essm is mult


def test_decompose_product_boolean_splits_completely():
    arr, mult = load("bool3")
    parts = decompose_product(arr, mult)
    assert len(parts) == 3
    assert all(a.n == 1 for a, _ in parts)


def test_decompose_product_irreducible_fixtures():
    for name in ("ex1", "ex2_A", "ex2_Aprime", "ex2_B", "generic_3_4"):
        arr, mult = load(name)
        assert is_irreducible(arr, mult), name
        assert len(decompose_product(arr, mult)) == 1


def test_decompose_product_mixed():
    arr, mult = parse(
        "ell 4\nH 1 0 0 0\nH 0 1 0 0\nH 0 0 1 0\nH 1 1 1 0\nH 0 0 0 1\n")
    parts = decompose_product(arr, mult)
    assert sorted(a.n for a, _ in parts) == [1, 4]


def test_defining_polynomial_degree():
    arr, mult = load("ex1")
    q = defining_polynomial(arr, mult)
    assert q.degree() == 4
    q2 = defining_polynomial(arr, Multiplicity([2, 1, 1, 1]))
    assert q2.degree() == 5


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_parse_is_deterministic_under_input_order(rows):
    hps = set()
    for row in rows:
        if any(row):
            hps.add(Hyperplane(row))
    if not hps:
        return
    ordered = sorted(hps)
    text_a = "ell 3\n" + "\n".join(
        "H " + " ".join(map(str, h.coeffs)) for h in ordered) + "\n"
    text_b = "ell 3\n" + "\n".join(
        "H " + " ".join(map(str, h.coeffs)) for h in reversed(ordered)) + "\n"
    assert parse(text_a)[0] == parse(text_b)[0]
