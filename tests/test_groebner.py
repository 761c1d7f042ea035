"""Groebner engine: normal forms, syzygies, resolutions, Hilbert data.

The independent oracle for ideal membership is plain linear algebra on
graded pieces: a homogeneous h of degree d lies in (f_1..f_k) iff it is
a rational linear combination of the {monomial * f_i} of degree d.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlog import groebner, linalg
from stlog.exceptions import CertificateError, StructuralError
from stlog.groebner import (FreeModule, groebner_basis, hilbert_series,
                            kernel_of_map, lift, minimal_free_resolution,
                            minimalize_generators, normal_form, poly_dimension,
                            quotient_colength, syzygy_module)
from stlog.ratpoly import Polynomial, mono_deg


def ring_element(module, poly):
    return module.element([poly])


def variables(nvars):
    return [Polynomial.variable(i, nvars) for i in range(nvars)]


# -- membership oracle ------------------------------------------------------

def monomials_of_degree(nvars, d):
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def graded_piece(gens, nvars, d):
    """The monomial index of S_d and the rows {monomial * g} of degree d,
    which span I_d for I = (gens)."""
    basis = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        gd = g.degree()
        if gd is None or gd > d:
            continue
        for m in monomials_of_degree(nvars, d - gd):
            prod = g * Polynomial(nvars, {m: Fraction(1)})
            row = [Fraction(0)] * len(basis)
            for mono, c in prod.terms.items():
                row[index[mono]] = c
            rows.append(row)
    return index, rows


def membership_by_linear_algebra(h, gens):
    """Homogeneous membership test on the graded piece of deg(h)."""
    index, rows = graded_piece(gens, h.nvars, h.degree())
    target = [Fraction(0)] * len(index)
    for mono, c in h.terms.items():
        target[index[mono]] = c
    ech, _ = linalg.rref(rows)
    return linalg.in_row_span(target, ech)


def membership_by_groebner(h, gens, module):
    gb = groebner_basis([ring_element(module, g) for g in gens], module)
    return normal_form(ring_element(module, h), gb).is_zero()


@st.composite
def homogeneous_polys(draw, nvars=3, degree=None, max_terms=4):
    d = degree if degree is not None else draw(st.integers(1, 4))
    terms = {}
    monos = monomials_of_degree(nvars, d)
    for _ in range(draw(st.integers(1, max_terms))):
        m = draw(st.sampled_from(monos))
        c = draw(st.integers(-4, 4))
        if c:
            terms[m] = Fraction(c)
    return Polynomial(nvars, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_membership_agrees_with_linear_algebra(data):
    nvars = 3
    module = FreeModule(nvars, [0])
    gens = [data.draw(homogeneous_polys(nvars))
            for _ in range(data.draw(st.integers(1, 3)))]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    d = data.draw(st.integers(1, 6))
    h = data.draw(homogeneous_polys(nvars, degree=d))
    if h.is_zero():
        return
    assert (membership_by_groebner(h, gens, module)
            == membership_by_linear_algebra(h, gens))


def test_membership_product_of_generators():
    nvars = 3
    module = FreeModule(nvars, [0])
    x, y, z = variables(3)
    gens = [x * x - y * z, y * y - x * z]
    h = (x * x - y * z) * (x + y) + (y * y - x * z) * z
    assert membership_by_groebner(h, gens, module)
    assert not membership_by_groebner(x * y, gens, module)


# -- syzygies ---------------------------------------------------------------

def test_koszul_syzygy_of_two_variables():
    module = FreeModule(2, [0])
    x, y = variables(2)
    syz, F = syzygy_module([ring_element(module, x), ring_element(module, y)])
    assert len(syz) == 1
    s = syz[0]
    assert s.component(0) == y and s.component(1) == -x \
        or s.component(0) == -y and s.component(1) == x


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_syzygies_annihilate_generators(data):
    nvars = 2
    module = FreeModule(nvars, [0])
    gens = [ring_element(module, data.draw(homogeneous_polys(nvars)))
            for _ in range(data.draw(st.integers(2, 3)))]
    gens = [g for g in gens if not g.is_zero()]
    if len(gens) < 2:
        return
    syz, F = syzygy_module(gens)
    for s in syz:
        total = Polynomial.zero(nvars)
        for i, g in enumerate(gens):
            total = total + s.component(i) * g.component(0)
        assert total.is_zero()


# -- resolutions ------------------------------------------------------------

def test_koszul_resolution_of_maximal_ideal():
    nvars = 3
    module = FreeModule(nvars, [0])
    gens = [ring_element(module, v) for v in variables(nvars)]
    res = minimal_free_resolution(gens, module)
    res.audit()
    betti = res.betti()
    assert [res.modules[i].rank for i in range(len(res.modules))] == [3, 3, 1]
    assert betti.beta(0, 1) == 3
    assert betti.beta(1, 2) == 3
    assert betti.beta(2, 3) == 1
    assert res.pd == 2
    assert res.reg == 1


def test_resolution_hilbert_series_counts_quotient():
    # S/(x^2, xy, y^2): colength 3, Hilbert function 1, 2
    nvars = 2
    module = FreeModule(nvars, [0])
    x, y = variables(2)
    ideal = [x * x, x * y, y * y]
    colength, hf = quotient_colength(ideal, nvars)
    assert colength == 3
    assert hf == {0: 1, 1: 2}
    gens = [ring_element(module, g) for g in ideal]
    res = minimal_free_resolution(gens, module)
    ideal_hilb = hilbert_series(res)
    # Hilb(S) - Hilb(I) must match the finite quotient
    from stlog.groebner import free_module_hilbert
    diff = free_module_hilbert(nvars, [0]) - ideal_hilb
    assert diff.denom_power == 0
    assert diff.numerator.coefficient(0) == 1
    assert diff.numerator.coefficient(1) == 2
    assert diff.numerator.degree() == 1


def test_minimalize_generators_drops_redundant():
    nvars = 2
    module = FreeModule(nvars, [0])
    x, y = variables(2)
    gens = [ring_element(module, x),
            ring_element(module, x * x),       # redundant
            ring_element(module, y)]
    minimal = minimalize_generators(gens, module)
    degs = sorted(g.degree() for g in minimal)
    assert degs == [1, 1]


def greedy_minimal_generators(gens, module):
    """Graded Nakayama by untruncated Buchberger: keep each candidate, by
    (degree, canonical key), whose normal form modulo a Groebner basis
    of the generators kept so far is nonzero."""
    kept = []
    for g in sorted((g for g in gens if not g.is_zero()),
                    key=lambda g: (g.degree(), g.canonical_key())):
        if not kept or not normal_form(g, groebner_basis(kept, module)).is_zero():
            kept.append(g)
    return kept


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_truncated_minimalization_matches_greedy_oracle(data):
    nvars = 3
    module = FreeModule(nvars, [0])
    polys = [data.draw(homogeneous_polys(nvars, degree=data.draw(st.integers(1, 3))))
             for _ in range(data.draw(st.integers(1, 3)))]
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return
    # redundant candidates: combinations a*f + b*g of earlier generators
    # (a combination may be zero; it stays a candidate but is no factor)
    for _ in range(data.draw(st.integers(1, 3))):
        factors = [p for p in polys if not p.is_zero()]
        f = data.draw(st.sampled_from(factors))
        g = data.draw(st.sampled_from(factors))
        d = max(f.degree(), g.degree()) + data.draw(st.integers(0, 1))
        a = data.draw(homogeneous_polys(nvars, degree=d - f.degree()))
        b = data.draw(homogeneous_polys(nvars, degree=d - g.degree()))
        polys.append(a * f + b * g)
    gens = [ring_element(module, p) for p in data.draw(st.permutations(polys))]
    expected = greedy_minimal_generators(gens, module)
    assert minimalize_generators(gens, module) == expected
    res = minimal_free_resolution(gens, module)
    assert res.generators == expected
    res.audit()
    kept, F, syz = groebner._minimal_level(gens, module, groebner.DEFAULT_MAX_PAIRS)
    assert kept == expected
    assert F.shifts == tuple(g.degree() for g in kept)
    for s in syz:
        total = Polynomial.zero(nvars)
        for i, g in enumerate(kept):
            total = total + s.component(i) * g.component(0)
        assert total.is_zero()


# -- exactness with rational coefficients -----------------------------------
# The engine reduces fraction-free over integer rows; these checks feed it
# generators with denominators 1..6, so every scale it divides out on the
# way back to Q is exercised.

@st.composite
def fraction_polys(draw, nvars, degrees):
    """A polynomial with coefficients n/d, |n| <= 4, d in 1..6, whose
    terms have degrees drawn from `degrees`."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from(degrees))
        m = draw(st.sampled_from(monomials_of_degree(nvars, d)))
        terms[m] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
    return Polynomial(nvars, terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_normal_form_matches_single_divisor_division(data):
    # one divisor is a Groebner basis of its ideal, and Polynomial.divide is
    # an independent grevlex division with Fraction arithmetic; the inputs
    # need not be homogeneous
    nvars = 3
    module = FreeModule(nvars, [0])
    g = data.draw(fraction_polys(nvars, [0, 1, 2]))
    h = data.draw(fraction_polys(nvars, [0, 1, 2, 3, 4]))
    if g.is_zero():
        return
    nf = normal_form(ring_element(module, h), [ring_element(module, g)])
    assert nf.component(0) == h.divide(g)[1]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lift_reconstructs_fraction_target(data):
    nvars = 3
    module = FreeModule(nvars, [0])
    gens = [data.draw(fraction_polys(nvars, [data.draw(st.integers(1, 2))]))
            for _ in range(data.draw(st.integers(1, 3)))]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    d = max(g.degree() for g in gens) + data.draw(st.integers(0, 1))
    target = Polynomial.zero(nvars)
    for g in gens:
        target = target + data.draw(fraction_polys(nvars, [d - g.degree()])) * g
    coeffs = lift(ring_element(module, target), [ring_element(module, g) for g in gens])
    assert coeffs is not None
    recon = Polynomial.zero(nvars)
    for c, g in zip(coeffs, gens):
        recon = recon + c * g
    assert recon == target


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_syzygies_of_fraction_generators_annihilate(data):
    nvars = 2
    module = FreeModule(nvars, [0, 1])
    gens = []
    for _ in range(data.draw(st.integers(2, 4))):
        d = data.draw(st.integers(1, 3))
        gens.append(module.element([data.draw(fraction_polys(nvars, [d])),
                                    data.draw(fraction_polys(nvars, [d - 1]))]))
    gens = [g for g in gens if not g.is_zero()]
    if len(gens) < 2:
        return
    syz, F = syzygy_module(gens, module)
    assert F.shifts == tuple(g.degree() for g in gens)
    for s in syz:
        for j in range(module.rank):
            total = Polynomial.zero(nvars)
            for i, g in enumerate(gens):
                total = total + s.component(i) * g.component(j)
            assert total.is_zero()


def test_resolution_past_hilbert_bound_is_a_certificate_error(monkeypatch):
    nvars = 2
    module = FreeModule(nvars, [0])
    x, y = variables(2)

    def endless(gens, ambient, max_pairs):
        # every level claims one generator with one nonzero syzygy
        F = FreeModule(nvars, [gens[0].degree()])
        return gens[:1], F, [F.element([x])]

    monkeypatch.setattr(groebner, "_minimal_level", endless)
    with pytest.raises(CertificateError, match="Hilbert syzygy bound"):
        minimal_free_resolution([ring_element(module, x)], module)


def test_lift_expresses_member_and_rejects_nonmember():
    nvars = 2
    module = FreeModule(nvars, [0])
    x, y = variables(2)
    gens = [ring_element(module, x * x), ring_element(module, y)]
    target = ring_element(module, x * x * y + y * y)
    coeffs = lift(target, gens)
    assert coeffs is not None
    recon = Polynomial.zero(nvars)
    for c, g in zip(coeffs, gens):
        recon = recon + c * g.component(0)
    assert recon == target.component(0)
    assert lift(ring_element(module, x), gens) is None


def test_kernel_of_map_with_relations():
    # kernel of S -> S/(x^2), 1 |-> 1  is the ideal (x^2)
    nvars = 1
    source = FreeModule(nvars, [0])
    target = FreeModule(nvars, [0])
    x = Polynomial.variable(0, 1)
    columns = [target.element([Polynomial.one(1)])]
    kernel = kernel_of_map(columns, source, target, relations=[(0, x * x)])
    minimal = minimalize_generators(kernel, source)
    assert len(minimal) == 1
    assert minimal[0].component(0) == x * x


def test_quotient_colength_infinite_returns_none():
    nvars = 2
    x = Polynomial.variable(0, 2)
    assert quotient_colength([x], nvars) is None


def hilbert_function_by_linear_algebra(gens, nvars, top):
    """dim (S/I)_k = C(n+k-1, k) - rank{x^u * g : deg u = k - deg g}, for
    k = 0..top, with no Groebner basis involved."""
    hf = {}
    for k in range(top + 1):
        index, rows = graded_piece(gens, nvars, k)
        hf[k] = len(index) - linalg.rank(rows)
    return hf


@st.composite
def colength_ideals(draw, artinian):
    """Random homogeneous generators of degree 1..3 in 2 or 3 variables.
    Artinian ideals also get pure powers x_i^{a_i}; the others lie in
    (x1..x_{n-1}), so S/I is infinite dimensional.  Returns (gens, nvars,
    top) with (S/I)_k = 0 for k >= top when artinian."""
    nvars = draw(st.integers(2, 3))
    gens = [draw(homogeneous_polys(nvars, degree=draw(st.integers(1, 3)),
                                   max_terms=8))
            for _ in range(draw(st.integers(1, 3)))]
    if artinian:
        powers = [draw(st.integers(1, 3)) for _ in range(nvars)]
        gens += [Polynomial.variable(i, nvars) ** a for i, a in enumerate(powers)]
        return gens, nvars, sum(a - 1 for a in powers) + 1
    last = nvars - 1
    gens = [Polynomial(nvars, {m: c for m, c in g.terms.items()
                               if any(m[:last])}) for g in gens]
    return gens, nvars, None


@settings(max_examples=100, deadline=None)
@given(colength_ideals(artinian=True))
def test_quotient_colength_matches_linear_algebra(ideal):
    gens, nvars, top = ideal
    hf = {k: v for k, v in
          hilbert_function_by_linear_algebra(gens, nvars, top).items() if v}
    assert quotient_colength(gens, nvars) == (sum(hf.values()), hf)


@settings(max_examples=30, deadline=None)
@given(colength_ideals(artinian=False))
def test_quotient_colength_of_non_artinian_ideal_is_none(ideal):
    gens, nvars, _ = ideal
    assert quotient_colength(gens, nvars) is None


def test_quotient_colength_counts_leads_from_s_pairs():
    # the leads x^2, xy of the generators leave y^3 standard; only the
    # degree-3 S-pair y(x^2 - y^2) - x(xy) = -y^3 removes it
    x, y = variables(2)
    gens = [x * y, x * x - y * y]
    assert hilbert_function_by_linear_algebra(gens, 2, 4) == {
        0: 1, 1: 2, 2: 1, 3: 0, 4: 0}
    assert quotient_colength(gens, 2) == (4, {0: 1, 1: 2, 2: 1})


def test_quotient_colength_rejects_inhomogeneous_generator():
    x, y = variables(2)
    with pytest.raises(StructuralError):
        quotient_colength([x + y * y, y * y], 2)


def test_quotient_colength_of_unit_ideal_is_zero():
    # S/S = 0 is finite dimensional, of colength 0
    assert quotient_colength([Polynomial.one(2)], 2) == (0, {})


def test_poly_dimension_matches_enumeration():
    for nvars in (1, 2, 3, 4):
        for d in range(5):
            assert poly_dimension(nvars, d) == len(monomials_of_degree(nvars, d))


def test_graded_module_with_shifts_resolution():
    # kernel of [x, y]: S(-1)^2 -> S is generated by (y, -x)
    nvars = 2
    source = FreeModule(nvars, [1, 1])
    target = FreeModule(nvars, [0])
    x, y = variables(2)
    columns = [target.element([x]), target.element([y])]
    kernel = kernel_of_map(columns, source, target)
    minimal = minimalize_generators(kernel, source)
    assert len(minimal) == 1
    assert minimal[0].degree() == 2
