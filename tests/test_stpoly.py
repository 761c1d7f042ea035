"""Solomon-Terao polynomials, ideals, algebras, and complexes."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosschecks
from crosschecks import NonDivisibleError, exact_divide
from stlog import lattice, logmod, session, stpoly
from stlog.arrangement import Multiplicity, parse
from stlog.exceptions import (CertificateError, GenericityNotFoundError,
                              NonGenericEtaError, StructuralError)
from stlog.fixtures import load
from stlog.groebner import BettiTable
from stlog.ratpoly import BiPolynomial, LaurentPolynomial, Polynomial

ONE_MINUS_X = LaurentPolynomial({0: 1, 1: -1})


def test_ex1_bipolynomial_exact():
    arr, mult = load("ex1")
    st = stpoly.st_bipoly(arr, mult)
    expected = BiPolynomial({
        (4, 3): -1, (3, 2): 4, (2, 1): -5, (1, 1): -1, (1, 0): 2, (0, 0): 1,
    })
    assert st.psi == expected


def test_ex1_st_polynomial_exact():
    arr, mult = load("ex1")
    st = stpoly.st_polynomial(arr, mult)
    assert st == LaurentPolynomial({4: 1, 3: 4, 2: 5, 1: 3, 0: 1})


def test_ex2_st_polynomials_exact():
    arr, mult = load("ex2_Aprime")
    st = stpoly.st_polynomial(arr, mult)
    assert st == LaurentPolynomial(
        {0: 1, 1: 4, 2: 9, 3: 16, 4: 21, 5: 21, 6: 17, 7: 10, 8: 4, 9: 1})
    arr, mult = load("ex2_B")
    st = stpoly.st_polynomial(arr, mult)
    assert st == LaurentPolynomial(
        {0: 1, 1: 4, 2: 9, 3: 16, 4: 21, 5: 21, 6: 17, 7: 9, 8: 3, 9: 1})


def test_free_case_product_formula():
    arr, mult = load("ex2_A")
    st = stpoly.st_polynomial(arr, mult)
    factor = lambda d: LaurentPolynomial({e: 1 for e in range(d + 1)})
    assert st == factor(1) * factor(3) * factor(3) * factor(3)


def test_generic_arrangement_st_shape():
    # generic l=3, n=4: ST = 1 + l x + ... + n x^{n-1} + x^n
    arr, mult = load("generic_3_4")
    st = stpoly.st_polynomial(arr, mult)
    assert st.coefficient(0) == 1
    assert st.coefficient(1) == 3
    assert st.coefficient(3) == 4
    assert st.coefficient(4) == 1
    assert st.degree() == 4


def test_boolean_one_dim_bipoly():
    # free formula with a single exponent d = 1: Psi = 1 - t x,
    # consistent with ST = 1 + x and chi = t - 1
    arr, mult = load("bool1")
    st = stpoly.st_bipoly(arr, mult)
    assert st.psi == BiPolynomial({(0, 0): 1, (1, 1): -1})
    assert stpoly.st_polynomial(arr, mult) == LaurentPolynomial({0: 1, 1: 1})
    assert stpoly.char_polynomial_multi(arr, mult) == \
        LaurentPolynomial({1: 1, 0: -1})


def test_st_order_two_equals_st():
    arr, mult = load("ex1")
    assert stpoly.st_polynomial_order(arr, mult, 1) == \
        stpoly.st_polynomial(arr, mult)
    with pytest.raises(StructuralError):
        stpoly.st_polynomial_order(arr, mult, 0)


def test_chi_matches_lattice_on_simple_fixtures():
    for name in ("ex1", "bool2", "bool3", "generic_3_4", "ex2_A",
                 "ex2_Aprime", "ex2_B"):
        arr, mult = load(name)
        assert stpoly.char_polynomial_multi(arr, mult) == \
            lattice.characteristic_polynomial(arr), name


def test_chi_free_multiarrangement_product():
    arr, mult = parse("ell 2\nH 1 0 m=2\nH 0 1\n")
    chi = stpoly.char_polynomial_multi(arr, mult)
    # exponents (1, 2): (t-1)(t-2)
    assert chi == LaurentPolynomial({2: 1, 1: -3, 0: 2})


def test_reduced_st():
    # ST(A;x) = (1+x) ST+(A;x) for a simple arrangement
    for name, reduced in (("ex1", {3: 1, 2: 3, 1: 2, 0: 1}),
                          ("bool1", {0: 1})):
        st = stpoly.st_polynomial(*load(name))
        assert exact_divide(st, LaurentPolynomial({0: 1, 1: 1})) == \
            LaurentPolynomial(reduced)


def test_st_at_minus_one_vanishes():
    for name in ("ex1", "bool2", "bool3", "generic_3_4", "ex2_Aprime",
                 "ex2_B"):
        arr, mult = load(name)
        st = stpoly.st_polynomial(arr, mult)
        assert st.evaluate(-1) == 0, name


def test_sample_generic_eta_ex1():
    arr, mult = load("ex1")
    result = stpoly.sample_generic_eta(arr, mult, 1, seed=0)
    assert result.generic_certified
    assert result.colength == 14        # = ST(A;1)
    assert result.attempts == 1         # the deterministic sum of squares works
    assert result.hilbert_function == {0: 1, 1: 3, 2: 5, 3: 4, 4: 1}


def test_sample_generic_eta_budget_exhaustion():
    arr, mult = load("ex1")
    with pytest.raises(GenericityNotFoundError):
        stpoly.sample_generic_eta(arr, mult, 1, seed=0, max_attempts=0)


def test_st_algebra_one_dim():
    arr, mult = load("bool1")
    eta = Polynomial(1, {(2,): Fraction(1)})
    result = stpoly.st_algebra_hilbert(arr, mult, eta)
    assert result.colength == 2
    assert result.hilbert_function == {0: 1, 1: 1}


def test_st_algebra_boolean_squares():
    arr, mult = load("bool2")
    eta = Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    result = stpoly.st_algebra_hilbert(arr, mult, eta)
    assert result.colength == 4
    assert result.hilbert_function == {0: 1, 1: 2, 2: 1}


def test_st_algebra_rejects_non_generic_eta():
    arr, mult = load("bool2")
    eta = Polynomial(2, {(2, 0): Fraction(1)})     # x1^2 only: a = (x1^2)
    with pytest.raises(NonGenericEtaError):
        stpoly.st_algebra_hilbert(arr, mult, eta)


def test_st_complex_euler_contraction():
    # d_1(theta_E) = (deg eta) * eta for the Euler derivation
    arr, mult = load("bool3")
    eta = Polynomial(3, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1),
                         (0, 0, 2): Fraction(1)})
    grads = [eta.partial(i) for i in range(3)]
    euler = [Polynomial.variable(i, 3) for i in range(3)]
    assert crosschecks.contract(euler, 1, grads) == [eta.scale(2)]
    images = crosschecks.st_complex(arr, mult, eta)
    assert [len(images[p]) for p in (1, 2, 3)] == [3, 3, 1]


def test_st_complex_boundary_squares_to_zero():
    arr, mult = load("ex1")
    result = stpoly.sample_generic_eta(arr, mult, 1, seed=0)
    images = crosschecks.st_complex(arr, mult, result.eta)  # raises if not
    # d_1 of the D^1 generators are exactly the Solomon-Terao ideal's
    gens = stpoly.st_ideal_generators(arr, mult, result.eta)
    assert [img[0] for img in images[1]] == gens


def test_leading_t_coefficients_ex1():
    arr, mult = load("ex1")
    st = stpoly.st_bipoly(arr, mult)
    crosschecks.check_second_t_coefficient(st)
    # f_2 = 4x^3 - x^4 gives a_2 = -1, b_2 = 4
    assert st.a[2] == -1 and st.b[2] == 4
    # the t^2 coefficient is (4x^4 - 4x^3)/(x - 1) = 4x^3
    assert st.psi.t_coefficient(2) == LaurentPolynomial({3: 4})


def test_leading_t_coefficients_all_fixtures():
    for name in ("ex1", "bool1", "bool2", "bool3", "generic_3_4",
                 "ex2_A", "ex2_Aprime", "ex2_B"):
        arr, mult = load(name)
        crosschecks.check_second_t_coefficient(stpoly.st_bipoly(arr, mult))


def test_st_bipoly_requires_essential():
    arr, mult = parse("ell 3\nH 1 0 0\nH 0 1 0\n")
    with pytest.raises(StructuralError):
        stpoly.st_bipoly(arr, mult)


# -- Psi from the integer numerators ----------------------------------------

def psi_by_expansion(ell, numerators):
    """Psi the long way: sum_p f_p (t(x-1)-1)^p as bi-polynomials, then
    each t-coefficient divided by (1-x)^l by long division over Q."""
    t_factor = BiPolynomial({(1, 1): 1, (0, 1): -1, (0, 0): -1})
    acc, power = BiPolynomial.zero(), BiPolynomial.one()
    for f in numerators:
        acc = acc + BiPolynomial({(e, 0): c for e, c in f.items()}) * power
        power = power * t_factor
    terms = {}
    for k in range(ell + 1):
        ck = acc.t_coefficient(k)
        if ck.is_zero():
            continue
        try:
            q = exact_divide(ck, ONE_MINUS_X ** ell)
        except NonDivisibleError:
            raise CertificateError(
                f"t^{k} coefficient of the Psi numerator is not divisible "
                f"by (1-x)^{ell}")
        terms.update(((e, k), c) for e, c in q.terms.items())
    return BiPolynomial(terms)


@st.composite
def integer_numerators(draw):
    """(l, [f_0..f_l]) with integer {degree: c}.  Either each f_p is
    (1-x)^j h, or f_p = sum_{k>=p} C(k,p) g_k with each g_k = (1-x)^j h
    (g_k = sum_{p>=k} (-1)^(p-k) C(p,k) f_p inverted), so that the
    division can fail at any t^k; j < l or j < l-k makes it fail."""
    ell = draw(st.integers(1, 4))

    def divisible(j):
        h = LaurentPolynomial({draw(st.integers(0, 6)): draw(st.integers(-5, 5))
                               for _ in range(draw(st.integers(0, 3)))})
        return h * ONE_MINUS_X ** max(j, 0)

    if draw(st.booleans()):
        fs = [divisible(draw(st.sampled_from([ell, ell, 0, 1, ell + 1])))
              for _ in range(ell + 1)]
    else:
        gs = [divisible(ell - k - draw(st.sampled_from([0, 0, 0, 1, 2, -1])))
              for k in range(ell + 1)]
        fs = [sum((gs[k].scale(comb(k, p)) for k in range(p, ell + 1)),
                  LaurentPolynomial.zero()) for p in range(ell + 1)]
    return ell, [{e: int(c) for e, c in f.terms.items()} for f in fs]


def outcome(fn, *args):
    try:
        return fn(*args)
    except CertificateError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(integer_numerators())
def test_closed_form_psi_matches_the_expansion(case):
    ell, numerators = case
    got = outcome(stpoly.psi_from_numerators, ell, numerators)
    assert got == outcome(psi_by_expansion, ell, numerators)


def test_closed_form_psi_of_the_fixtures_is_integral():
    for name in ("ex1", "ex2_A", "bool3", "generic_3_4"):
        arr, mult = load(name)
        numerators = [logmod.derivation_module(arr, mult, p).betti
                      .hilbert_numerator() for p in range(arr.ell + 1)]
        psi = stpoly.psi_from_numerators(arr.ell, numerators)
        assert psi == psi_by_expansion(arr.ell, numerators), name
        assert all(c.denominator == 1 for c in psi.terms.values()), name


def test_st_bipoly_rejects_a_betti_table_off_by_one():
    # one more generator of D^1 in its lowest degree: f_1(1) grows by 1,
    # so g_0 = sum_p (-1)^p f_p no longer vanishes at 1 and the t^0
    # coefficient is no polynomial
    arr, mult = load("ex1")
    with session.request() as req:
        d1 = logmod.derivation_module(arr, mult, 1)
        counts = dict(d1.betti.counts)
        low = min(d for i, d in counts if i == 0)
        counts[(0, low)] += 1
        betti = BettiTable(counts)
        req.modules[logmod.cache_key(arr, mult, 1)] = dataclasses.replace(
            d1, betti=betti, hilb=betti.hilbert_series(arr.ell))
        with pytest.raises(CertificateError, match=(
                r"^t\^0 coefficient of the Psi numerator is not divisible "
                r"by \(1-x\)\^3$")):
            stpoly.st_bipoly(arr, mult)
    # the session's own D^1 is unchanged outside that request
    assert stpoly.st_bipoly(arr, mult).psi == psi_by_expansion(
        arr.ell, [logmod.derivation_module(arr, mult, p).betti
                  .hilbert_numerator() for p in range(arr.ell + 1)])
