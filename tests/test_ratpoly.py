"""Polynomial and series arithmetic: ring axioms, exact division,
substitution homomorphisms."""

import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosschecks import NonDivisibleError, divide, exact_divide
from stlog import ratpoly
from stlog.exceptions import ResourceBudgetError, StructuralError
from stlog.ratpoly import (BiPolynomial, LaurentPolynomial, Polynomial,
                           RationalSeries)

ONE_MINUS_X = LaurentPolynomial({0: 1, 1: -1})

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
def linear_forms(draw, nvars=3, scales=(1,)):
    """(coeffs, m): a nonzero integer linear form, times one of scales,
    and a power m in 1..3."""
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=nvars,
                           max_size=nvars).filter(any))
    scale = draw(st.sampled_from(scales))
    return tuple(c * scale for c in coeffs), draw(st.integers(1, 3))


@st.composite
def non_unit_lead_forms(draw, nvars=3):
    """Primitive integer linear forms whose lead coefficient a_k, at the
    first nonzero position k, is not +-1."""
    k = draw(st.integers(0, nvars - 2))
    lead = draw(st.sampled_from([-6, -3, -2, 2, 3, 4]))
    tail = draw(st.lists(st.integers(-3, 3), min_size=nvars - k - 1,
                         max_size=nvars - k - 1)
                .filter(lambda t: gcd(lead, *t) == 1))
    return (0,) * k + (lead, *tail)


@st.composite
def integer_forms(draw, degree, nvars=3, max_terms=5):
    """Homogeneous integer polynomials of the given degree."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        cuts = sorted(draw(st.lists(st.integers(0, degree),
                                    min_size=nvars - 1, max_size=nvars - 1)))
        mono = tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))
        terms[mono] = Fraction(draw(coeffs))
    return Polynomial(nvars, terms)


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


@pytest.mark.parametrize("value, one", [
    (Polynomial.from_linear_form([1, -2, 3]), Polynomial.one(3)),
    (LaurentPolynomial({-1: 2, 3: Fraction(1, 3)}), LaurentPolynomial.one()),
    (BiPolynomial({(1, 1): 1, (-2, 0): -3}), BiPolynomial.one())])
def test_powers_start_from_the_base(value, one):
    # p ** 1 is p itself, with no multiply by one; every power agrees
    # with repeated multiplication
    assert value ** 1 == value
    assert value ** 0 == one
    product = one
    for k in range(9):
        assert value ** k == product
        product = product * value


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
            divide(a, b)
        return
    q, r = divide(a, b)
    assert q * b + r == a
    lead = grevlex_lead(b)
    assert not any(all(x <= y for x, y in zip(lead, m)) for m in r.terms)


def divisible(a, coeffs, m):
    """alpha^m divides a, for the linear form alpha with these
    coefficients, tested as the membership audit tests it: a made
    integral, in packed keys."""
    keys = ratpoly.PackedKeys(a.nvars)
    scale = lcm(*(c.denominator for c in a.terms.values()))
    return ratpoly.LinearDivisor(keys, coeffs, m).divides(
        {keys.key(sum(e), 0, e): int(c * scale) for e, c in a.terms.items()})


@settings(max_examples=80)
@given(polynomials(coeffs=fractions), linear_forms(nvars=2))
def test_divisibility_matches_division_remainder(a, form):
    coeffs, m = form
    with pytest.raises(StructuralError):
        divisible(a, (0, 0), 1)
    power = Polynomial.from_linear_form(coeffs) ** m
    assert divisible(a, coeffs, m) == divide(a, power)[1].is_zero()
    assert divisible(a * power, coeffs, m)


@settings(max_examples=80)
@given(polynomials(nvars=3, coeffs=fractions),
       linear_forms(scales=(6, -4, 3)),
       polynomials(nvars=3, max_deg=2, max_terms=2, coeffs=fractions))
def test_divisibility_by_non_primitive_powers(a, form, noise):
    # 6 * alpha is not primitive over Z: the integer test must make it
    # primitive before it may reject a non-integral quotient
    coeffs, m = form
    power = Polynomial.from_linear_form(coeffs) ** m
    assert divisible(a * power, coeffs, m)
    c = a * power + noise
    assert divisible(c, coeffs, m) == divide(c, power)[1].is_zero()


@settings(max_examples=150, deadline=None)
@given(non_unit_lead_forms(), st.integers(1, 3), st.data())
def test_linear_divisor_agrees_with_polynomial_divide(coeffs, m, data):
    # integer forms of degree <= 6: multiples of alpha^m; multiples of
    # alpha^(m-1), which are multiples of alpha^m only if their cofactor
    # is; and noise of the same degree, which mostly is not a multiple
    alpha = Polynomial.from_linear_form(coeffs)
    power = alpha ** m
    d = data.draw(st.integers(m, 6), label="degree")
    member = data.draw(integer_forms(d - m), label="cofactor") * power
    near = data.draw(integer_forms(d - m + 1), label="near") * alpha ** (m - 1)
    noise = data.draw(integer_forms(d, max_terms=2), label="noise")
    assert divisible(member, coeffs, m)
    for s in (member + noise, noise, near, member + near):
        assert divisible(s, coeffs, m) == divide(s, power)[1].is_zero()


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


def cancel_by_long_division(numerator, denom_power):
    """The canonical form by long division: divide by (1-x) with
    `exact_divide` while it is exact and a power of (1-x) is left."""
    while denom_power > 0:
        try:
            numerator = exact_divide(numerator, ONE_MINUS_X)
        except NonDivisibleError:
            break
        denom_power -= 1
    return numerator, denom_power


@st.composite
def fraction_laurents(draw, lo=-3, hi=5, max_terms=4):
    return LaurentPolynomial({draw(st.integers(lo, hi)): draw(fractions)
                              for _ in range(draw(st.integers(0, max_terms)))})


@settings(max_examples=150)
@given(fraction_laurents(), st.integers(0, 4), st.integers(0, 5))
def test_rational_series_cancels_like_long_division(h, j, k):
    # numerators h * (1-x)^j over (1-x)^k: j < k, j = k and j > k each
    # occur, and h itself may or may not vanish at 1
    numerator = h * ONE_MINUS_X ** j
    s = RationalSeries(numerator, k)
    assert (s.numerator, s.denom_power) == cancel_by_long_division(numerator, k)


@settings(max_examples=80)
@given(fraction_laurents(), st.integers(0, 4), st.integers(0, 4))
def test_divide_one_minus_x_matches_exact_divide(h, j, r):
    f = h * ONE_MINUS_X ** j
    q = ratpoly.divide_one_minus_x(f.terms, r)
    try:
        expected = exact_divide(f, ONE_MINUS_X ** r)
    except NonDivisibleError:
        assert q is None
    else:
        assert q is not None and LaurentPolynomial(q) == expected
        assert all(q.values())


def test_divide_one_minus_x_reads_integers_and_zeros():
    # 1 - 3x + 3x^2 - x^3 = (1-x)^3; a zero entry is no term
    assert ratpoly.divide_one_minus_x({0: 1, 1: -3, 2: 3, 3: -1, 7: 0}, 3) == {0: 1}
    assert ratpoly.divide_one_minus_x({0: 1, 1: -3, 2: 3, 3: -1}, 4) is None
    assert ratpoly.divide_one_minus_x({2: 0}, 5) == {}
    assert ratpoly.divide_one_minus_x({-2: 1, -1: -1}, 1) == {-2: 1}


# -- bi-polynomials ---------------------------------------------------------

@settings(max_examples=60)
@given(laurents(lo=0, hi=3), laurents(lo=0, hi=3), laurents(lo=0, hi=2))
def test_substitute_t_is_ring_homomorphism(a, b, s):
    pa = BiPolynomial({(e, 1): c for e, c in a.terms.items()})
    pb = BiPolynomial({(e, 2): c for e, c in b.terms.items()})
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
    terms = {tuple(t["e"]): Fraction(t["c"]) for t in p.to_json()}
    assert Polynomial(2, terms) == p


def test_integer_divisor_refuses_degrees_beyond_a_packed_field():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    top = ratpoly.MAX_EXPONENT
    with pytest.raises(ResourceBudgetError, match=f"degree {top + 1}"):
        ratpoly.LinearDivisor(ratpoly.PackedKeys(2), (1, 0), top + 1)
    with pytest.raises(ResourceBudgetError, match=f"degree {top + 1}"):
        divisible(x ** top * y, (1, -1), 1)
    assert divisible(x ** top, (1, 0), 2)
    assert not divisible(x ** (top - 1) * y, (1, 0), top)
    assert not divisible(x ** top, (1, -1), 1)
