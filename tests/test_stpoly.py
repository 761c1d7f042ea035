"""Solomon-Terao polynomials, ideals, algebras, and complexes."""

from fractions import Fraction

import pytest

from stlog import lattice, stpoly
from stlog.arrangement import Multiplicity, parse
from stlog.exceptions import (GenericityNotFoundError, NonGenericEtaError,
                              StructuralError)
from stlog.fixtures import load
from stlog.ratpoly import BiPolynomial, LaurentPolynomial, Polynomial


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
    arr, _ = load("ex1")
    assert stpoly.reduced_st(arr) == LaurentPolynomial(
        {3: 1, 2: 3, 1: 2, 0: 1})
    arr, _ = load("bool1")
    assert stpoly.reduced_st(arr) == LaurentPolynomial.one()


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
    cx = stpoly.st_complex(arr, mult, eta)
    assert set(cx.matrices) == {1, 2, 3}
    # boundary images generate the expected ideal in degree 2
    d1 = cx.matrices[1]
    assert all(len(row) == 1 for row in d1)


def test_st_complex_boundary_squares_to_zero():
    arr, mult = load("ex1")
    result = stpoly.sample_generic_eta(arr, mult, 1, seed=0)
    cx = stpoly.st_complex(arr, mult, result.eta)   # raises on any violation
    assert set(cx.matrices) == {1, 2, 3}
    # d_1 rows are exactly the Solomon-Terao ideal generators
    gens = stpoly.st_ideal_generators(arr, mult, result.eta)
    assert [row[0] for row in cx.matrices[1]] == gens


def test_leading_t_coefficients_ex1():
    arr, mult = load("ex1")
    st = stpoly.st_bipoly(arr, mult)
    report = stpoly.leading_t_coefficients_check(st)
    assert report["passed"]
    # f_2 = 4x^3 - x^4 gives a_2 = -1, b_2 = 4
    assert st.a[2] == -1 and st.b[2] == 4
    # the t^2 coefficient is (4x^4 - 4x^3)/(x - 1) = 4x^3
    assert st.psi.t_coefficient(2) == LaurentPolynomial({3: 4})


def test_leading_t_coefficients_all_fixtures():
    for name in ("ex1", "bool1", "bool2", "bool3", "generic_3_4",
                 "ex2_A", "ex2_Aprime", "ex2_B"):
        arr, mult = load(name)
        st = stpoly.st_bipoly(arr, mult)
        assert stpoly.leading_t_coefficients_check(st)["passed"], name


def test_st_bipoly_requires_essential():
    arr, mult = parse("ell 3\nH 1 0 0\nH 0 1 0\n")
    with pytest.raises(StructuralError):
        stpoly.st_bipoly(arr, mult)
