"""Groebner engine: normal forms, syzygies, resolutions, Hilbert data.

The independent oracle for ideal membership is plain linear algebra on
graded pieces: a homogeneous h of degree d lies in (f_1..f_k) iff it is
a rational linear combination of the {monomial * f_i} of degree d.
"""

import collections
import copy
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crosschecks
from stlog import groebner, linalg, logmod, session, stpoly
from stlog.exceptions import (CertificateError, ResourceBudgetError,
                              StructuralError)
from stlog.fixtures import load
from stlog.groebner import (FreeModule, GroebnerEngine, ModuleElement,
                            groebner_basis, kernel_of_map,
                            minimal_free_resolution, minimalize_generators,
                            normal_form, poly_dimension, quotient_colength,
                            syzygy_module)
from stlog.ratpoly import (COMP_BITS, MAX_EXPONENT, LaurentPolynomial,
                           PackedKeys, Polynomial, RationalSeries, mono_deg,
                           mono_mul, mono_zero)
from stlog.verify import PAPER_CORPUS


def ring_element(module, poly):
    return module.element([poly])


def canonical(g):
    """The order `_minimal_level` takes candidates in: degree, then the
    sorted (component, monomial, coefficient) terms."""
    return g.degree(), sorted(g.vec.items())


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


# -- the pair criteria on modules -------------------------------------------
# Untracked engines skip S-pairs by the Gebauer-Moeller criteria; the
# coprime-lead criterion is sound for ideals only.  The oracle is the same
# linear algebra, on the graded pieces of a free module with shifts.

def test_coprime_leads_in_a_module_still_make_a_pair():
    # the leads x*e1 of (x, y) and y*e1 of (y, x) are coprime, yet their
    # S-pair y*(x, y) - x*(y, x) = (0, y^2 - x^2) does not reduce to zero
    module = FreeModule(2, [0, 0])
    x, y = variables(2)
    gb = groebner_basis([module.element([x, y]), module.element([y, x])], module)
    target = module.element([Polynomial.zero(2), x * x - y * y])
    assert normal_form(target, gb).is_zero()


def test_pending_pair_with_the_lcm_of_a_new_pair_stays():
    # generators a = (x^2, y^2), b = (xy, 0), h = (y, 0), in this order:
    # h's lead y*e1 divides lcm(a, b) = x^2*y*e1, but lcm(a, h) equals it,
    # so the pending pair (a, b) must stay; the new pair (a, h) goes for
    # (b, h), whose lcm xy divides its own, and only S(a, b) is left to
    # give y*a - x^2*h = (0, y^3)
    module = FreeModule(2, [0, 0])
    x, y = variables(2)
    zero = Polynomial.zero(2)
    gens = [module.element([x * x, y * y]), module.element([x * y, zero]),
            module.element([y, zero])]
    gb = groebner_basis(gens, module)
    assert normal_form(module.element([zero, y * y * y]), gb).is_zero()


def piece_row(vec, index, mono):
    """The coordinates of x^mono * vec (a flat dict) in a module piece."""
    row = [Fraction(0)] * len(index)
    for (j, m), c in vec.items():
        row[index[(j, mono_mul(m, mono))]] = c
    return row


def module_graded_piece(gens, module, d):
    """The term index {(component, monomial): column} of the degree-d part
    of module, and the rows {monomial * g} of degree d, which span the
    degree-d part of the submodule the gens generate."""
    index = {}
    for j, s in enumerate(module.shifts):
        for m in monomials_of_degree(module.nvars, d - s) if d >= s else ():
            index[(j, m)] = len(index)
    rows = [piece_row(g.vec, index, u) for g in gens if g.degree() <= d
            for u in monomials_of_degree(module.nvars, d - g.degree())]
    return index, rows


@st.composite
def submodules(draw, min_rank=2):
    """Random homogeneous generators of degree 1..2 of a submodule of a
    free module of rank min_rank..3 with shifts 0..1, in 2 or 3
    variables."""
    nvars = draw(st.integers(2, 3))
    module = FreeModule(nvars, draw(st.lists(st.integers(0, 1),
                                             min_size=min_rank, max_size=3)))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 2))
        gens.append(module.element(
            [draw(homogeneous_polys(nvars, degree=d - s, max_terms=3))
             for s in module.shifts]))
    return module, [g for g in gens if not g.is_zero()]


@settings(max_examples=60, deadline=None)
@given(submodules(), st.data())
def test_module_membership_agrees_with_linear_algebra(sub, data):
    module, gens = sub
    if not gens:
        return
    gb = groebner_basis(gens, module)
    degrees = [g.degree() for g in gens]
    for d in range(min(degrees), max(degrees) + 3):
        index, rows = module_graded_piece(gens, module, d)
        echelon, _ = linalg.rref(rows)
        terms = list(index)
        # a random member, and the same plus one random term
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                     max_size=len(rows)))
        member = [sum(w * row[k] for w, row in zip(weights, rows))
                  for k in range(len(index))]
        other = list(member)
        other[data.draw(st.integers(0, len(index) - 1))] += 1
        for vector in (member, other):
            h = ModuleElement(module, {t: c for t, c in zip(terms, vector)})
            assert (normal_form(h, gb).is_zero()
                    == linalg.in_row_span(vector, echelon))


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
    assert betti.pd == 2
    assert betti.reg == 1


def scaled_columns(cols, factors):
    """Fraction-built copies of the columns, column j times factors[j]."""
    return [col.module.element([p.scale(f) for p in col.components()])
            for col, f in zip(cols, factors)]


def test_resolution_audit_composes_each_column_at_its_own_scale():
    # the audit composes integer vectors, each column ivec_j / b_j rescaled
    # to a common multiple: scaling all of d_1 (and d_2) by one factor keeps
    # d o d = 0, scaling one column of d_1 alone does not
    module = FreeModule(3, [0])
    res = minimal_free_resolution(
        [ring_element(module, v) for v in variables(3)], module)
    d1, d2 = res.diffs
    res.diffs = [scaled_columns(d1, [Fraction(3, 2)] * 3),
                 scaled_columns(d2, [Fraction(5, 7)])]
    res.audit()
    res.diffs = [scaled_columns(d1, [2, 1, 1]), d2]
    with pytest.raises(CertificateError) as exc:
        res.audit()
    assert str(exc.value) == "resolution differentials do not compose to zero"


def test_resolution_audit_rejects_a_constant_entry():
    module = FreeModule(3, [0])
    res = minimal_free_resolution(
        [ring_element(module, v) for v in variables(3)], module)
    res.diffs[1] = [ModuleElement(res.modules[1], {(0, mono_zero(3)): 1})]
    with pytest.raises(CertificateError) as exc:
        res.audit()
    assert str(exc.value) == "non-minimal resolution: constant entry"


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
    # Hilb(S) - Hilb(I) must match the finite quotient; both are numerators
    # over (1-x)^2, that of S being 1
    ideal = LaurentPolynomial(res.betti().hilbert_numerator())
    diff = RationalSeries(LaurentPolynomial.one() - ideal, nvars)
    assert diff == RationalSeries(LaurentPolynomial({0: 1, 1: 2}), 0)


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
                    key=canonical):
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
    kept, F, syz, _ = groebner._minimal_level(gens, module)
    assert kept == expected
    assert F.shifts == tuple(g.degree() for g in kept)
    for s in syz:
        total = Polynomial.zero(nvars)
        for i, g in enumerate(kept):
            total = total + s.component(i) * g.component(0)
        assert total.is_zero()


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_minimal_level_orders_by_exact_coefficients_at_distinct_scales():
    # 40 constant vectors in Q^40, the i-th with denominator a prime p_i
    # of 50 to 62 bits, so its scale is p_i; -1/p < -1/q iff p < q, so
    # an order on c * p or on c alone would differ from the exact one.
    # A diagonally dominant numerator matrix keeps every candidate.
    rng = random.Random(20)
    rank = 40
    module = FreeModule(1, [0] * rank)
    primes = set()
    while len(primes) < rank:
        n = rng.getrandbits(rng.randint(50, 62)) | 1
        while not is_prime(n):
            n += 2
        primes.add(n)
    gens = []
    for i, p in enumerate(sorted(primes, key=lambda _: rng.random())):
        nums = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(rank)]
        nums[(7 * i + 3) % rank] = 1000
        gens.append(ModuleElement(module, {(j, (0,)): Fraction(c, p)
                                           for j, c in enumerate(nums)}))
        assert gens[-1].packed()[1] == p
    expected = sorted(gens, key=canonical)
    assert expected != gens
    kept, *_ = groebner._minimal_level(gens, module)
    assert kept == expected


def test_lazy_candidate_order_equals_the_eager_one_on_fixtures(monkeypatch):
    # the candidates of every resolution level of every D^p on the
    # fixtures: term lists built only for degrees shared by two or more
    # candidates give the order of sorting all of them by canonical key
    levels = []
    original = groebner._minimal_level

    def recording(gens, module):
        levels.append((list(gens), module))
        return original(gens, module)

    monkeypatch.setattr(groebner, "_minimal_level", recording)
    for name in PAPER_CORPUS:
        arr, mult = load(name)
        with session.request():
            for p in range(1, arr.ell):
                logmod.derivation_module(arr, mult, p)
    shared = alone = 0
    for gens, module in levels:
        lazy = [g for _, g in groebner._canonical_order(
            gens, PackedKeys(module.nvars))]
        eager = sorted((g for g in gens if not g.is_zero()), key=canonical)
        assert list(map(id, lazy)) == list(map(id, eager))
        sizes = collections.Counter(g.degree() for g in eager)
        shared += sum(c for c in sizes.values() if c > 1)
        alone += sum(c == 1 for c in sizes.values())
    assert shared and alone


def interreduce_every_row(eng):
    """The full pass: every row tail-reduced against all rows, in order."""
    for i, r in enumerate(eng.rows):
        tail = dict(itertools.islice(r.vec.items(), 1, None))
        out, scale = groebner._reduce(tail, eng.rows, eng._lead_index, eng.keys)
        out[r.lead] = r.lc * scale
        eng.rows[i] = groebner._Row(out, None, eng.keys)


def interreduce_against_full_passes(gens, nvars):
    """Drive a colength engine as quotient_colength does, and after each
    completion that added rows check interreduce(start) against a full
    pass on a copy.  Returns how many rows it re-reduced, of those before
    start and of all, and how many it left as they were."""
    _, hf = quotient_colength(gens, nvars)
    eng = GroebnerEngine(FreeModule(nvars, [0]))
    for g in gens:
        eng.add_generator({(0, m): c for m, c in g.terms.items()}, g.degree())
    old = redone = kept = reduced = 0
    for k in range(max(hf) + 2):
        eng.complete(max_degree=k)
        if len(eng.rows) == reduced:
            continue
        full = copy.copy(eng)
        full.rows = list(eng.rows)
        interreduce_every_row(full)
        before = list(eng.rows)
        eng.interreduce(reduced)
        assert [(r.lead, r.lc, r.vec) for r in eng.rows] == \
            [(r.lead, r.lc, r.vec) for r in full.rows]
        same = [a is b for a, b in zip(before, eng.rows)]
        old += same[:reduced].count(False)
        redone, kept = redone + same.count(False), kept + same.count(True)
        reduced = len(eng.rows)
    return old, redone, kept


@pytest.mark.parametrize("name, order", [("ex2_B", 2), ("ex1", 3)])
def test_incremental_interreduce_matches_a_full_pass(name, order):
    arr, mult = load(name)
    eta = stpoly.sample_generic_eta(arr, mult, order - 1).eta
    gens = stpoly.st_ideal_generators(arr, mult, eta)
    _, redone, kept = interreduce_against_full_passes(gens, arr.ell)
    assert redone and kept


def test_incremental_interreduce_reduces_an_earlier_row():
    # an S-pair in degree 4 adds the lead x1^3 x3, the tail of the row
    # 2 x1^2 x2^2 - 3 x1^3 x3 interreduced in degree 0
    x1, x2, x3 = variables(3)
    gens = [3 * x1 ** 2 * x3 ** 2, 3 * x1 ** 3 * x3 - 2 * x1 ** 2 * x2 ** 2,
            x1 ** 4, x2 ** 2, x3 ** 3]
    old, _, _ = interreduce_against_full_passes(gens, 3)
    assert old


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
    # one divisor is a Groebner basis of its ideal, and crosschecks.divide
    # is an independent grevlex division with Fraction arithmetic; the inputs
    # need not be homogeneous
    nvars = 3
    module = FreeModule(nvars, [0])
    g = data.draw(fraction_polys(nvars, [0, 1, 2]))
    h = data.draw(fraction_polys(nvars, [0, 1, 2, 3, 4]))
    if g.is_zero():
        return
    nf = normal_form(ring_element(module, h), [ring_element(module, g)])
    assert nf.component(0) == crosschecks.divide(h, g)[1]


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


def equal_lcm_ideal():
    """(x2^2 x3, x1^2 x3, x1^2 x2), which a level engine takes in this
    order (by canonical key) as a, b, h: h's lead divides lcm(a, b) =
    lcm(a, h), so the pending pair (a, b) must stay when the new pair
    (a, h) goes for (b, h), or a syzygy is lost."""
    module = FreeModule(3, [0])
    x1, x2, x3 = variables(3)
    return module, [ring_element(module, p)
                    for p in (x2 * x2 * x3, x1 * x1 * x3, x1 * x1 * x2)]


@settings(max_examples=40, deadline=None)
@given(submodules(min_rank=1))
@example(equal_lcm_ideal())
def test_resolution_hilbert_function_matches_linear_algebra(sub):
    # exactness oracle: the Hilbert function read off the Betti table of the
    # minimal resolution is dim M_d, a rank of the graded piece in each
    # degree d; a syzygy lost at any level changes the alternating sum
    module, gens = sub
    if not gens:
        return
    res = minimal_free_resolution(gens, module)
    res.audit()
    top = max(g.degree() for g in gens) + 3
    hf = res.betti().hilbert_series(module.nvars).taylor_coefficients(top)
    for d in range(top + 1):
        _, rows = module_graded_piece(gens, module, d)
        assert hf[d] == linalg.rank(rows)


@st.composite
def monomial_ideals(draw):
    """Exponent tuples, entries 0..2, of 0..4 monomials in 1..3 variables."""
    nvars = draw(st.integers(1, 3))
    monos = draw(st.lists(st.lists(st.integers(0, 2), min_size=nvars,
                                   max_size=nvars).map(tuple), max_size=4))
    return nvars, monos


@settings(max_examples=60, deadline=None)
@given(monomial_ideals())
def test_monomial_quotient_numerator_matches_linear_algebra(ideal):
    # Hilb(S/J) = N(J) / (1-t)^n, expanded, against dim (S/J)_k by rank
    nvars, monos = ideal
    gens = [Polynomial(nvars, {m: Fraction(1)}) for m in monos]
    num = groebner._quotient_numerator(groebner._minimal_monomials(monos))
    series = RationalSeries(LaurentPolynomial(num), nvars)
    top = 6
    expected = hilbert_function_by_linear_algebra(gens, nvars, top)
    assert series.taylor_coefficients(top) == [expected[k] for k in range(top + 1)]


def test_lead_module_certificate_catches_a_dropped_basis_row(dropped_row):
    # the level-0 basis of (x, y, z) is its three generators; without one
    # of them the lead ideal has two, and a Hilbert series the resolution's
    # is not
    module = FreeModule(3, [0])
    gens = [ring_element(module, v) for v in variables(3)]
    with pytest.raises(CertificateError, match="level-0 lead module"):
        minimal_free_resolution(gens, module)
    assert len(dropped_row) == 3         # the resolution itself was complete


def test_resolution_past_hilbert_bound_is_a_certificate_error(monkeypatch):
    nvars = 2
    module = FreeModule(nvars, [0])
    x, y = variables(2)

    def endless(gens, ambient):
        # every level claims one generator with one nonzero syzygy
        F = FreeModule(nvars, [gens[0].degree()])
        return gens[:1], F, [F.element([x])], None

    monkeypatch.setattr(groebner, "_minimal_level", endless)
    with pytest.raises(CertificateError, match="Hilbert syzygy bound"):
        minimal_free_resolution([ring_element(module, x)], module)


def test_kernel_of_map_with_relations():
    # kernel of S -> S/(x^2), 1 |-> 1  is the ideal (x^2)
    nvars = 1
    source = FreeModule(nvars, [0])
    target = FreeModule(nvars, [0])
    x = Polynomial.variable(0, 1)
    columns = [target.element([Polynomial.one(1)])]
    kernel = kernel_of_map(columns, source, target,
                           relations=[target.element([x * x])])
    minimal = minimalize_generators(kernel, source)
    assert len(minimal) == 1
    assert minimal[0].component(0) == x * x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_of_map_with_relations_is_complete(data):
    # constant columns S^n -> S^r and relations q*e_r of degree 1..2, as in
    # the constraint matrix of D^p; in each low degree d,
    #   dim ker_d = dim source_d - rank(map_d modulo relations_d),
    # and the kernel generators span ker_d
    nvars = data.draw(st.integers(2, 3))
    source = FreeModule(nvars, [0] * data.draw(st.integers(1, 4)))
    target = FreeModule(nvars, [0] * data.draw(st.integers(1, 3)))
    columns = [target.element([Polynomial.constant(data.draw(st.integers(-2, 2)), nvars)
                               for _ in target.shifts]) for _ in source.shifts]
    relations = []
    for r in range(target.rank):
        q = data.draw(homogeneous_polys(nvars, degree=data.draw(st.integers(1, 2)),
                                        max_terms=3))
        if data.draw(st.booleans()) and not q.is_zero():
            relations.append((r, q))
    rel_gens = [target.element([q if j == r else Polynomial.zero(nvars)
                                for j in range(target.rank)])
                for r, q in relations]
    kernel = kernel_of_map(columns, source, target, rel_gens)
    for d in range(4):
        source_index, _ = module_graded_piece([], source, d)
        target_index, rel_rows = module_graded_piece(rel_gens, target, d)
        images = [piece_row(col.vec, target_index, u) for col in columns
                  for u in monomials_of_degree(nvars, d)]
        rel_rank = linalg.rank(rel_rows)
        map_rank = linalg.rank(rel_rows + images) - rel_rank
        _, kernel_rows = module_graded_piece(kernel, source, d)
        assert linalg.rank(kernel_rows) == len(source_index) - map_rank
        for k in kernel:
            if k.degree() == d:
                image = target.element(
                    [sum((k.component(j) * col.component(t)
                          for j, col in enumerate(columns)), Polynomial.zero(nvars))
                     for t in range(target.rank)])
                row = piece_row(image.vec, target_index, mono_zero(nvars))
                assert linalg.rank(rel_rows + [row]) == rel_rank


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


def test_interreduce_keeps_leads_and_leaves_tails_irreducible():
    x, y, z = variables(3)
    eng = GroebnerEngine(FreeModule(3, [0]))
    for g in (x * x + 3 * y * z, x * y - 2 * z * z, y * y + x * z):
        eng.add_generator({(0, m): c for m, c in g.terms.items()}, 2)
    eng.complete(max_degree=3)
    leads = [r.lead for r in eng.rows]
    eng.interreduce()
    assert [r.lead for r in eng.rows] == leads
    for r in eng.rows:
        assert r.lc > 0 and r.vec[r.lead] == r.lc
        for t in list(r.vec)[1:]:
            tail = eng.keys.term(t)[2]
            assert not any(all(map(int.__le__, s.mono, tail)) for s in eng.rows)


# -- packed term keys -------------------------------------------------------

FIELD_MAXIMA = st.one_of(st.just(MAX_EXPONENT), st.integers(0, MAX_EXPONENT))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_keys_agree_with_term_tuples(data):
    """The packed key of (degree, comp, mono) against the tuple order
    (-degree, comp, reversed mono) that the engine's order is defined by."""
    n = data.draw(st.integers(1, 6))
    keys = PackedKeys(n)
    terms = st.tuples(
        st.integers(-2 ** 40, 2 ** 40),
        st.one_of(st.just((1 << COMP_BITS) - 1), st.integers(0, 3),
                  st.integers(0, (1 << COMP_BITS) - 1)),
        st.tuples(*[FIELD_MAXIMA] * n))
    (d1, c1, m1), (d2, c2, m2) = data.draw(terms), data.draw(terms)
    if data.draw(st.booleans()):
        c2 = c1
    k1, k2 = keys.key(d1, c1, m1), keys.key(d2, c2, m2)
    assert keys.term(k1) == (d1, c1, m1)
    assert (k1 < k2) == ((-d1, c1, m1[::-1]) < (-d2, c2, m2[::-1]))
    assert (k1 == k2) == ((d1, c1, m1) == (d2, c2, m2))
    # the lead test on the key of the same component
    lead = keys.key(d2, c1, m2)
    assert (((k1 | keys.guard) - lead) & keys.guard == keys.guard) == \
        all(a <= b for a, b in zip(m2, m1))
    # multiplying by x^s adds one delta, as long as every field holds
    s = tuple(data.draw(st.integers(0, MAX_EXPONENT - e)) for e in m1)
    ds = data.draw(st.integers(-5, 2 ** 20))
    delta = keys.key(ds, 0, s) - keys.key(0, 0, mono_zero(n))
    assert k1 + delta == keys.key(d1 + ds, c1, mono_mul(m1, s))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_term_order_key_sorts_like_component_and_exponents(data):
    # among terms of one degree, the integer `_minimal_level` reads off a
    # key orders like (comp, m_1, ..., m_n), x1 first
    n = data.draw(st.integers(1, 6))
    keys = PackedKeys(n)
    order = groebner._term_order(keys)
    d = data.draw(st.integers(0, MAX_EXPONENT))
    mono = st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1).map(
        lambda cuts: tuple(b - a for a, b in zip([0, *sorted(cuts)],
                                                  [*sorted(cuts), d])))
    terms = data.draw(st.lists(st.tuples(st.integers(0, 5), mono),
                               min_size=2, max_size=12, unique=True))
    ranked = sorted(terms, key=lambda cm: order(keys.key(d, *cm)))
    assert ranked == sorted(terms)


# -- the reduction loop against the loop it replaced -------------------------

def reduce_by_min(rem, rows, lead_index, keys, rep=None):
    """Reference reduction: the lead found by min() after every step, and
    the representation rep updated alongside the remainder."""
    out, scale, guard = {}, 1, keys.guard
    while rem:
        t = min(rem)
        c = rem.pop(t)
        for lead, i in lead_index.get(keys.comp(t), ()):
            if ((t | guard) - lead) & guard == guard:
                break
        else:
            out[t] = c
            continue
        row = rows[i]
        g = gcd(row.lc, c)
        f = row.lc // g
        if f != 1:
            scale *= f
            for d in (rem, out) if rep is None else (rem, out, rep):
                for k in d:
                    d[k] *= f
        delta = t - lead
        groebner._isub_scaled(rem, list(row.vec.items())[1:], c // g, delta)
        if rep is not None:
            groebner._isub_scaled(rep, row.rep, c // g, delta)
    return out, scale


@st.composite
def integer_vectors(draw, keys, nvars, shifts, degrees, coeffs):
    """An integer vector {key: c} with terms x^m e_j, deg m in degrees,
    in the keys of a free module with the given shifts."""
    vec = {}
    for _ in range(draw(st.integers(1, 8))):
        j = draw(st.integers(0, len(shifts) - 1))
        d = draw(st.sampled_from(degrees))
        m = draw(st.sampled_from(monomials_of_degree(nvars, d)))
        c = draw(coeffs)
        if c:
            vec[keys.key(d + shifts[j], j, m)] = c
    return vec


@settings(max_examples=80, deadline=None)
@given(submodules(min_rank=1), st.data())
def test_heap_reduce_matches_a_min_based_reference(sub, data):
    # against the rows of a completed tracked engine: the same (out,
    # scale) and, replayed, the same representation, dict order included,
    # on vectors that need not be homogeneous, with small and with wide
    # coefficients
    module, gens = sub
    if not gens:
        return
    eng = GroebnerEngine(module, track=True)
    for g in gens:
        eng.add_generator(g.vec, g.degree())
    eng.complete()
    coeffs = data.draw(st.sampled_from([st.integers(-5, 5),
                                        st.integers(-2 ** 70, 2 ** 70)]))
    n = module.nvars
    vec = data.draw(integer_vectors(eng.keys, n, module.shifts,
                                    [0, 1, 2, 3], coeffs))
    rep = data.draw(integer_vectors(eng.keys, n, eng.gen_degrees,
                                    [0, 1], coeffs))
    steps = []
    out, scale = groebner._reduce(dict(vec), eng.rows, eng._lead_index,
                                  eng.keys, steps)
    replayed = dict(rep)
    groebner._replay(replayed, steps)
    expected = dict(rep)
    want_out, want_scale = reduce_by_min(dict(vec), eng.rows, eng._lead_index,
                                         eng.keys, expected)
    assert list(out.items()) == list(want_out.items())
    assert scale == want_scale
    assert list(replayed.items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(submodules(min_rank=1), st.data())
def test_kept_candidate_row_is_the_same_with_deferred_replay(sub, data):
    # candidates fed as `_minimal_level` feeds them, some of them multiples
    # x_i * g of others: a kept one's row (vector, lead and representation,
    # dict order included) is the one that reducing with its
    # representation alongside gives, and a dropped one reduces to zero
    # and leaves no syzygy
    module, gens = sub
    if not gens:
        return
    x = variables(module.nvars)
    cands = list(gens)
    for _ in range(data.draw(st.integers(0, 3))):
        g = data.draw(st.sampled_from(gens))
        xi = data.draw(st.sampled_from(x))
        cands.append(module.element([c * xi for c in g.components()]))
    cands.sort(key=ModuleElement.degree)
    eng = GroebnerEngine(module, track=True)
    for g in cands:
        d = g.degree()
        eng.complete(max_degree=d)
        ivec, k = g.packed()
        gi = len(eng.gen_degrees)
        rep = {eng.keys.key(d, gi, mono_zero(module.nvars)): 1}
        want, _ = reduce_by_min(dict(ivec), eng.rows, eng._lead_index,
                                eng.keys, rep)
        syzygies = len(eng.syzygies)
        got = eng.add_vector(dict(ivec), d, k, minimal=True)
        if not want:
            assert got is None and len(eng.syzygies) == syzygies
            continue
        assert got == gi
        row, ref = eng.rows[-1], groebner._Row(want, rep, eng.keys)
        assert (row.lead, row.lc, list(row.vec.items()), row.rep) == \
            (ref.lead, ref.lc, list(ref.vec.items()), ref.rep)


def test_degree_beyond_a_packed_field_is_a_budget_error():
    x, y = variables(2)
    module = FreeModule(2, [0])
    too_high = MAX_EXPONENT + 1
    with pytest.raises(ResourceBudgetError, match=f"degree {too_high}"):
        groebner_basis([ring_element(module, x ** too_high)], module)
    # each generator fits, but not the lcm of their leads
    gens = [x ** (MAX_EXPONENT - 1) * y, x * y ** (MAX_EXPONENT - 1)]
    with pytest.raises(ResourceBudgetError,
                       match=f"degree {2 * MAX_EXPONENT - 2}"):
        groebner_basis([ring_element(module, g) for g in gens], module)
    # x^MAX e_1 fits, but in degree MAX a term of e_0, shifted by -1, could not
    shifted = FreeModule(2, [-1, 0])
    with pytest.raises(ResourceBudgetError, match=f"degree {MAX_EXPONENT}"):
        groebner_basis([shifted.element([Polynomial.zero(2), x ** MAX_EXPONENT])],
                       shifted)
    assert groebner_basis([ring_element(module, x ** MAX_EXPONENT)], module)


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
