"""Polynomial and series arithmetic: ring axioms, exact division,
substitution homomorphisms."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlog import ratpoly
from stlog.exceptions import NonDivisibleError, StructuralError
from stlog.ratpoly import (ONE_MINUS_X, BiPolynomial, LaurentPolynomial,
                           Polynomial, RationalSeries, exact_divide)

# -- strategies -------------------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6)
fractions = st.builds(Fraction, coeffs, st.integers(1, 6))


@st.composite
def polynomials(draw, nvars=2, max_deg=3, max_terms=4, coeffs=coeffs):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        c = draw(coeffs)
        if c:
            terms[mono] = Fraction(c)
    return Polynomial(nvars, terms)


@st.composite
def scaled_powers(draw, nvars=3):
    """Non-primitive divisors c * alpha^m of a linear form alpha."""
    alpha = Polynomial.from_linear_form(
        draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)
             .filter(any)))
    c = draw(st.sampled_from([Fraction(6, 5), Fraction(-4), Fraction(1, 3)]))
    return (alpha ** draw(st.integers(1, 3))).scale(c)


def grevlex_lead(p):
    """Reference grevlex lead: highest degree, then smallest last exponent."""
    return max(p.terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))


@st.composite
def laurents(draw, lo=-3, hi=5, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = draw(st.integers(lo, hi))
        c = draw(coeffs)
        if c:
            terms[e] = Fraction(c)
    return LaurentPolynomial(terms)


@st.composite
def bipolys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        k = (draw(st.integers(-2, 3)), draw(st.integers(0, 3)))
        c = draw(coeffs)
        if c:
            terms[k] = Fraction(c)
    return BiPolynomial(terms)


# -- ring axioms ------------------------------------------------------------

@settings(max_examples=80)
@given(polynomials(), polynomials(), polynomials())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(2) == a
    assert a * Polynomial.one(2) == a
    assert (a - a).is_zero()


@settings(max_examples=80)
@given(laurents(), laurents(), laurents())
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@settings(max_examples=80)
@given(bipolys(), bipolys(), bipolys())
def test_bipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + BiPolynomial.zero() == a
    assert a * BiPolynomial.one() == a
    assert (a - a).is_zero()
    assert a ** 2 == a * a
    assert 3 * a == a.scale(3) == a + a + a


@pytest.mark.parametrize("value, one", [
    (Polynomial.variable(0, 2), Polynomial.one(2)),
    (LaurentPolynomial({-1: 1}), LaurentPolynomial.one()),
    (BiPolynomial({(1, 1): 1}), BiPolynomial.one())])
def test_negative_power_is_refused(value, one):
    assert value ** 0 == one
    with pytest.raises(StructuralError):
        value ** -1


def test_polynomials_in_different_rings_do_not_mix():
    x2, x3 = Polynomial.variable(0, 2), Polynomial.variable(0, 3)
    with pytest.raises(StructuralError):
        x2 + x3
    with pytest.raises(StructuralError):
        x2 * x3
    assert x2 != x3
    assert Polynomial.zero(2) != Polynomial.zero(3)
    assert Polynomial.one(1) != LaurentPolynomial.one()


@settings(max_examples=60)
@given(polynomials(), polynomials())
def test_poly_division_identity(a, b):
    if b.is_zero():
        with pytest.raises(StructuralError):
            a.divide(b)
        return
    q, r = a.divide(b)
    assert q * b + r == a
    lead = grevlex_lead(b)
    assert not any(all(x <= y for x, y in zip(lead, m)) for m in r.terms)


@settings(max_examples=80)
@given(polynomials(coeffs=fractions), polynomials(coeffs=fractions))
def test_divisibility_matches_division_remainder(a, b):
    with pytest.raises(StructuralError):
        a.is_divisible_by(Polynomial.zero(2))
    if b.is_zero():
        return
    assert a.is_divisible_by(b) == a.divide(b)[1].is_zero()
    assert (a * b).is_divisible_by(b)


@settings(max_examples=80)
@given(polynomials(nvars=3, coeffs=fractions), scaled_powers(),
       polynomials(nvars=3, max_deg=2, max_terms=2, coeffs=fractions))
def test_divisibility_by_non_primitive_powers(a, b, noise):
    # Fraction(6, 5) * alpha^m is not primitive over Z: the integer test
    # must make it primitive before it may reject a non-integral quotient
    assert (a * b).is_divisible_by(b)
    c = a * b + noise
    assert c.is_divisible_by(b) == c.divide(b)[1].is_zero()


def test_ratpoly_is_independent_of_groebner():
    # the membership audit divides with ratpoly alone, so that it checks
    # the Groebner engine rather than reusing it
    tree = ast.parse(Path(ratpoly.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("groebner" in name for name in imported)


@settings(max_examples=60)
@given(laurents(), laurents())
def test_laurent_exact_divide_roundtrip(a, b):
    if b.is_zero():
        return
    prod = a * b
    assert exact_divide(prod, b) == a


def test_exact_divide_failure_carries_remainder():
    with pytest.raises(NonDivisibleError) as exc:
        exact_divide(LaurentPolynomial({1: 1, 0: 1}), ONE_MINUS_X)
    # long division leaves (1 + x) + (1 - x) = 2
    assert exc.value.remainder == LaurentPolynomial({0: 2})


def test_degree_of_zero_is_none():
    assert Polynomial.zero(3).degree() is None
    assert LaurentPolynomial.zero().degree() is None


def test_partial_derivative_product_rule():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    f = x * x * y + y
    g = x + y
    lhs = (f * g).partial(0)
    rhs = f.partial(0) * g + f * g.partial(0)
    assert lhs == rhs


# -- rational series --------------------------------------------------------

def test_rational_series_cancels_common_factors():
    # (1-x) * (1+x) / (1-x)^2 == (1+x)/(1-x)
    num = ONE_MINUS_X * LaurentPolynomial({0: 1, 1: 1})
    s = RationalSeries(num, 2)
    assert s.denom_power == 1
    assert s.numerator == LaurentPolynomial({0: 1, 1: 1})


def test_rational_series_taylor_full_ring():
    # 1/(1-x)^3 counts monomials in 3 variables
    s = RationalSeries(LaurentPolynomial.one(), 3)
    assert s.taylor_coefficients(4) == [1, 3, 6, 10, 15]


@settings(max_examples=40)
@given(laurents(lo=0), laurents(lo=0))
def test_rational_series_addition_matches_taylor(a, b):
    s = RationalSeries(a, 2) + RationalSeries(b, 2)
    direct = RationalSeries(a + b, 2)
    assert s.taylor_coefficients(6) == direct.taylor_coefficients(6)


# -- bi-polynomials ---------------------------------------------------------

@settings(max_examples=60)
@given(laurents(lo=0, hi=3), laurents(lo=0, hi=3), laurents(lo=0, hi=2))
def test_substitute_t_is_ring_homomorphism(a, b, s):
    pa = BiPolynomial.from_laurent(a, t_power=1)
    pb = BiPolynomial.from_laurent(b, t_power=2)
    together = (pa + pb).substitute_t(s)
    separate = pa.substitute_t(s) + pb.substitute_t(s)
    assert together == separate
    prod = (pa * pb).substitute_t(s)
    assert prod == pa.substitute_t(s) * pb.substitute_t(s)


def test_bipoly_evaluate_x_matches_substitution():
    p = BiPolynomial({(2, 1): 3, (0, 0): -1, (1, 2): 2})
    at1 = p.evaluate_x(1)
    assert at1 == LaurentPolynomial({1: 3, 0: -1, 2: 2})


def test_poly_json_roundtrip():
    p = Polynomial(2, {(1, 2): Fraction(3, 2), (0, 0): Fraction(-1)})
    assert Polynomial.from_json(p.to_json(), 2) == p
