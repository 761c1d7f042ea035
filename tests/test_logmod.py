"""Logarithmic modules: minimal generators, resolutions, freeness,
tameness, and the derivation/form duality."""

import dataclasses
from fractions import Fraction

import pytest

from stlog import logmod, session
from stlog.arrangement import Multiplicity, parse
from stlog.exceptions import CertificateError, StructuralError
from stlog.fixtures import load
from stlog.groebner import free_module_hilbert
from stlog.ratpoly import LaurentPolynomial, Polynomial, RationalSeries


def test_ex1_d1_generators_and_betti():
    arr, mult = load("ex1")
    d1 = logmod.derivation_module(arr, mult, 1)
    assert d1.generator_degrees() == [1, 2, 2, 2]
    assert d1.betti.beta(0, 1) == 1
    assert d1.betti.beta(0, 2) == 3
    assert d1.betti.beta(1, 3) == 1
    assert d1.pd == 1


def test_ex1_d2_resolution_is_one_step():
    # 0 -> S[-4] -> S[-3]^4 -> D^2 -> 0
    arr, mult = load("ex1")
    d2 = logmod.derivation_module(arr, mult, 2)
    assert d2.betti.beta(0, 3) == 4
    assert d2.betti.beta(1, 4) == 1
    assert d2.pd == 1
    assert d2.reg == 3
    assert d2.hilb == RationalSeries(LaurentPolynomial({3: 4, 4: -1}), 3)


def test_ex1_top_module_is_principal():
    # D^l is free of rank 1 generated in degree |m| - number of... no:
    # it is S * (Q d_{1..l}-dual): a single generator of degree |m|
    arr, mult = load("ex1")
    d3 = logmod.derivation_module(arr, mult, 3)
    assert d3.pd == 0
    assert d3.generator_degrees() == [4]


def test_omega_is_shifted_dual():
    arr, mult = load("ex1")
    w1 = logmod.omega_module(arr, mult, 1)
    assert w1.betti.beta(0, -1) == 4
    assert w1.betti.beta(1, 0) == 1
    assert w1.reg == -1
    assert w1.generator_degrees() == [-1, -1, -1, -1]
    d2 = logmod.derivation_module(arr, mult, 2)
    assert w1.hilb == d2.hilb.shift(-mult.total)


def test_euler_derivation_always_logarithmic():
    for name in ("ex1", "ex2_A", "bool3", "generic_3_4"):
        arr, mult = load(name)
        d1 = logmod.derivation_module(arr, mult, 1)
        from stlog.groebner import lift
        theta_e = logmod.euler_derivation(arr)
        assert lift(theta_e, d1.generators) is not None, name


def test_boolean_freeness_certificate():
    arr, mult = load("bool3")
    cert = logmod.is_free(arr, mult)
    assert cert is not None
    assert cert.exponents == (1, 1, 1)
    assert abs(cert.scalar) == 1


def test_ex2_A_exponents():
    arr, mult = load("ex2_A")
    cert = logmod.is_free(arr, mult)
    assert cert is not None
    assert cert.exponents == (1, 3, 3, 3)


def test_ex1_not_free_but_tame():
    arr, mult = load("ex1")
    assert logmod.is_free(arr, mult) is None
    tame, table = logmod.is_tame(arr, mult)
    assert tame
    assert table == {0: 0, 1: 1, 2: 1, 3: 0}


def test_ex2_B_is_not_tame():
    arr, mult = load("ex2_B")
    tame, table = logmod.is_tame(arr, mult)
    assert not tame
    assert table[1] == 2        # pd Omega^1 exceeds the bound 1


def test_ex2_Aprime_is_tame():
    arr, mult = load("ex2_Aprime")
    tame, _ = logmod.is_tame(arr, mult)
    assert tame


def test_rank2_multiarrangement_is_free():
    # x^2 * y: exponents (1, 2); rank 2 is always free
    arr, mult = parse("ell 2\nH 1 0 m=2\nH 0 1\n")
    cert = logmod.is_free(arr, mult)
    assert cert is not None
    assert cert.exponents == (1, 2)
    arr2, mult2 = parse("ell 2\nH 1 0 m=2\nH 0 1 m=2\nH 1 1 m=2\n")
    cert2 = logmod.is_free(arr2, mult2)
    assert cert2 is not None
    assert cert2.exponents == (3, 3)


def test_wedge_power_matches_direct_computation():
    arr, mult = load("ex2_A")
    direct = logmod.derivation_module(arr, mult, 2)
    wedged = logmod.wedge_power_free(arr, mult, 2)
    assert sorted(g.degree() for g in wedged.generators) == [4, 4, 4, 6, 6, 6]
    assert direct.generator_degrees() == wedged.generator_degrees()
    assert direct.hilb == wedged.hilb


def test_wedge_power_refuses_non_free():
    arr, mult = load("ex1")
    with pytest.raises(StructuralError):
        logmod.wedge_power_free(arr, mult, 2)


def test_d0_is_the_full_ring():
    arr, mult = load("ex1")
    d0 = logmod.derivation_module(arr, mult, 0)
    assert d0.pd == 0
    assert d0.hilb == free_module_hilbert(3, [0])


def test_order_out_of_range():
    arr, mult = load("ex1")
    with pytest.raises(StructuralError):
        logmod.derivation_module(arr, mult, 4)
    with pytest.raises(StructuralError):
        logmod.derivation_module(arr, mult, -1)


def test_multiplicity_raises_generator_degrees():
    # doubling one line of ex1 must push |m| and the top module degree up
    arr, _ = load("ex1")
    mult = Multiplicity([2, 1, 1, 1])
    d3 = logmod.derivation_module(arr, mult, 3)
    assert d3.generator_degrees() == [5]


def test_hilbert_series_low_degrees_by_direct_count():
    # degree-1 part of D(ex1) is 1-dimensional (Euler only)
    arr, mult = load("ex1")
    d1 = logmod.derivation_module(arr, mult, 1)
    coeffs = d1.hilb.taylor_coefficients(2)
    assert coeffs[0] == 0
    assert coeffs[1] == 1
    # degree 2: 3 new generators + 3 multiples x_i * theta_E... count = 1*3 + 3
    assert coeffs[2] == 6


@pytest.mark.parametrize("p", [1, 2])
def test_audit_rejects_generator_outside_dp(p):
    # A multiple of x1^deg in the d_I component with I = (0..p-1) enters s
    # at every hyperplane with a nonzero coefficient on x1..xp; no
    # hyperplane of ex2_B is x1 (and m = 1), so the first of them fails.
    arr, mult = load("ex2_B")
    gens = logmod.derivation_module(arr, mult, p).generators
    logmod._audit_membership(arr, mult, p, gens)
    g = gens[-1]
    comps = g.components()
    x1_pow = Polynomial.variable(0, arr.ell) ** g.degree()
    comps[0] = comps[0] + x1_pow.scale(Fraction(3, 2))
    bad = g.module.element(comps)
    first = next(list(h.coeffs) for h in arr.hyperplanes if any(h.coeffs[:p]))
    with pytest.raises(CertificateError) as exc:
        logmod._audit_membership(arr, mult, p, [*gens[:-1], bad])
    assert str(exc.value) == (f"membership audit failed for D^{p} generator "
                              f"at hyperplane {first}")


def test_repeated_module_is_reused_at_no_cost():
    # D^2 of ex2_B takes 71 S-pairs; a budget of 71 admits it exactly once
    arr, mult = load("ex2_B")
    with session.request(max_pairs=71) as current:
        first = logmod.derivation_module(arr, mult, 2)
        assert current.pairs == 71
        assert logmod.derivation_module(arr, mult, 2) is first
        assert current.pairs == 71
    assert session.current() is not current     # the request has ended


def test_cached_module_is_read_only():
    # every caller in a request gets the same record, so none may change it
    arr, mult = load("ex1")
    with session.request():
        d1 = logmod.derivation_module(arr, mult, 1)
        assert logmod.derivation_module(arr, mult, 1) is d1
        with pytest.raises(dataclasses.FrozenInstanceError):
            d1.generators = ()
        assert isinstance(d1.generators, tuple)
        with pytest.raises(TypeError):
            d1.betti.counts[(0, 1)] = 2
