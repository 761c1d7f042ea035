"""Logarithmic modules: minimal generators, resolutions, freeness,
tameness, and the derivation/form duality."""

import collections
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crosschecks
from stlog import logmod, session
from stlog.arrangement import Arrangement, Hyperplane, Multiplicity, parse
from stlog.exceptions import CertificateError, StructuralError
from stlog.fixtures import load
from stlog.groebner import BettiTable, minimal_free_resolution
from stlog.ratpoly import (PackedKeys, LaurentPolynomial, Polynomial,
                           RationalSeries)
from stlog.verify import PAPER_CORPUS, random_corpus


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
        theta_e = [Polynomial.variable(i, arr.ell) for i in range(arr.ell)]
        assert crosschecks.in_submodule([theta_e], d1.generators), name


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


def test_integer_saito_scalar_matches_the_fraction_determinant():
    # the determinant of the primitive integer vectors, compared with
    # Q(A,m) term by term, against poly_det in Fractions and a division
    items = [(name, *load(name)) for name in PAPER_CORPUS]
    items += [("rank2", *parse("ell 2\nH 1 0 m=2\nH 0 1 m=3\nH 1 1\n")),
              ("rank3", *parse("ell 3\nH 1 0 0 m=2\nH 0 1 0 m=3\n"
                               "H 0 0 1\nH 1 -1 0 m=2\n"))]
    free = 0
    for name, arr, mult in items + random_corpus(0):
        cert = logmod.is_free(arr, mult)
        if cert is not None:
            free += 1
            assert cert.scalar == crosschecks.saito_scalar(arr, mult), name
    assert free >= 10


def test_repeated_generator_fails_the_saito_certificate(monkeypatch):
    # bool3 with its first generator twice: pd 0, rank 3 and exponent sum
    # 3 all hold, and det = 0 is no scalar multiple of Q
    arr, mult = load("bool3")
    d1 = logmod.derivation_module(arr, mult, 1)
    g = d1.generators
    twice = dataclasses.replace(d1, generators=(g[0], g[0], g[2]))
    monkeypatch.setattr(logmod, "derivation_module", lambda *args: twice)
    with pytest.raises(CertificateError, match="^Saito determinant is not "
                       "a scalar multiple of Q\\(A,m\\)$"):
        logmod.is_free(arr, mult)


def test_saito_determinant_with_the_support_of_q_must_be_proportional(
        monkeypatch):
    # xy(x + y): the two elements (x, 0) and (0, xy + 2y^2) have degrees
    # 1 + 2 = |m| and det x^2 y + 2 x y^2, which has the support of
    # Q = x^2 y + x y^2 but is no scalar multiple of it
    arr, mult = parse("ell 2\nH 1 0\nH 0 1\nH 1 1\n")
    d1 = logmod.derivation_module(arr, mult, 1)
    x, y = (Polynomial.variable(i, 2) for i in range(2))
    module = d1.generators[0].module
    fake = dataclasses.replace(d1, generators=(
        module.element([x, Polynomial.zero(2)]),
        module.element([Polynomial.zero(2), x * y + (y * y).scale(2)])))
    monkeypatch.setattr(logmod, "derivation_module", lambda *args: fake)
    with pytest.raises(CertificateError, match="^Saito determinant is not "
                       "a scalar multiple of Q\\(A,m\\)$"):
        logmod.is_free(arr, mult)


def test_wedge_power_matches_direct_computation():
    # the wedges of a basis of the free D^1 are free generators of a
    # submodule of D^2 with the Hilbert series of D^2: all of D^2
    arr, mult = load("ex2_A")
    direct = logmod.derivation_module(arr, mult, 2)
    wedged = crosschecks.wedge_power(arr, mult, 2)
    ambient = direct.generators[0].module
    degrees = sorted(ambient.element(w).degree() for w in wedged)
    assert degrees == direct.generator_degrees() == [4, 4, 4, 6, 6, 6]
    assert crosschecks.in_submodule(wedged, direct.generators)
    assert direct.hilb == RationalSeries(
        LaurentPolynomial(collections.Counter(degrees)), arr.ell)


def test_d0_is_the_full_ring():
    arr, mult = load("ex1")
    d0 = logmod.derivation_module(arr, mult, 0)
    assert d0.pd == 0
    assert d0.hilb == RationalSeries(LaurentPolynomial.one(), 3)


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


def audit_every_j(arr, mult, p, gens):
    """Oracle for the membership audit: the first hyperplane, in the
    audit's order (generator, then hyperplane), at which some (p-1)-subset
    J gives an s = theta(alpha_H, x_J) that alpha_H^{m(H)} does not divide,
    or None.  Every J is checked, each by long division
    (`crosschecks.divide`)."""
    ell = arr.ell
    cols = list(itertools.combinations(range(ell), p))
    for g in gens:
        comps = g.components()
        for h, m in zip(arr.hyperplanes, mult.values):
            power = crosschecks.linear_form(h.coeffs) ** m
            for J in itertools.combinations(range(ell), p - 1):
                s = Polynomial.zero(ell)
                for i, a in enumerate(h.coeffs):
                    if a and i not in J:
                        I = tuple(sorted(J + (i,)))
                        s = s + comps[cols.index(I)].scale((-1) ** I.index(i) * a)
                if not crosschecks.divide(s, power)[1].is_zero():
                    return list(h.coeffs)
    return None


@st.composite
def multiarrangements(draw):
    """l <= 4 and m(H) in 1..3, at least two hyperplanes, one of them with
    several nonzero coefficients and m >= 2, where alpha^m has a tail.
    Rank 4 gets at most three hyperplanes, which keeps D^p small."""
    ell = draw(st.integers(2, 4))

    def form(nonzero):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=ell, max_size=ell))
        for i in draw(st.sets(st.integers(0, ell - 1), min_size=nonzero,
                              max_size=nonzero)):
            coeffs[i] = draw(st.sampled_from([-2, -1, 1, 2]))
        return Hyperplane(coeffs)

    mults = {form(2): draw(st.integers(2, 3))}
    for _ in range(draw(st.integers(1, 2 if ell == 4 else ell))):
        mults.setdefault(form(1), draw(st.integers(1, 3)))
    arr = Arrangement(ell, mults)
    return arr, Multiplicity([mults[h] for h in arr.hyperplanes])


@settings(max_examples=40, deadline=None)
@given(multiarrangements(), st.data())
def test_audit_agrees_with_an_every_j_oracle(arr_mult, data):
    # x^v * theta + c * x^u * f in one component, for a generator theta of
    # D^p and f the product of alpha_H^{m(H)} over the first k hyperplanes:
    # it passes the check at those H, and everywhere if c = 0.  The audit
    # divides only the J without the pivot, and must fail first where the
    # every-J oracle does.
    arr, mult = arr_mult
    ell = arr.ell
    p = data.draw(st.integers(1, ell), label="p")
    with session.request():
        gens = list(logmod.derivation_module(arr, mult, p).generators)
    i = data.draw(st.integers(0, len(gens) - 1), label="generator")
    f = Polynomial.one(ell)
    for h, m in zip(arr.hyperplanes[:data.draw(st.integers(0, arr.n))],
                    mult.values):
        f = f * crosschecks.linear_form(h.coeffs) ** m
    x = Polynomial.variable(data.draw(st.integers(0, ell - 1)), ell)
    lift = x ** max(0, f.degree() - gens[i].degree())
    comps = [c * lift for c in gens[i].components()]
    d = gens[i].degree() + lift.degree() - f.degree()
    cuts = sorted(data.draw(st.lists(st.integers(0, d), min_size=ell - 1,
                                     max_size=ell - 1)))
    u = tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))
    c = data.draw(st.fractions(-3, 3, max_denominator=3), label="c")
    j = data.draw(st.integers(0, len(comps) - 1), label="component")
    comps[j] = comps[j] + f * Polynomial(ell, {u: c})
    gens[i] = gens[i].module.element(comps)
    expected = audit_every_j(arr, mult, p, gens)
    if expected is None:
        logmod._audit_membership(arr, mult, p, gens)
        return
    with pytest.raises(CertificateError) as exc:
        logmod._audit_membership(arr, mult, p, gens)
    assert str(exc.value) == (f"membership audit failed for D^{p} generator "
                              f"at hyperplane {expected}")


def assert_top_module_matches_the_kernel(arr, mult):
    """D^l in closed form against the kernel of the constraint system and
    its minimal resolution: the same monic generator, the same primitive
    integer vector and scale, the same Betti table."""
    ell = arr.ell
    with session.request() as current:
        top = logmod.derivation_module(arr, mult, ell)
        assert current.pairs == 0
    gens, betti = logmod._resolve_dp(arr, mult, ell)
    assert top.generators == gens
    assert [g.packed() for g in top.generators] == [g.packed() for g in gens]
    assert top.betti == betti == BettiTable({(0, mult.total): 1})


@pytest.mark.parametrize("name", PAPER_CORPUS)
def test_top_module_closed_form_matches_the_kernel_on_fixtures(name):
    assert_top_module_matches_the_kernel(*load(name))


@settings(max_examples=30, deadline=None)
@given(multiarrangements())
@example(parse("ell 3\nH 0 1 0 m=2\nH 1 0 0\nH 1 2 0 m=3\n"))
def test_top_module_closed_form_matches_the_kernel(arr_mult):
    # rank 4 draws at most three hyperplanes, so many draws are not
    # essential; the example is not essential either (no x3)
    assert_top_module_matches_the_kernel(*arr_mult)


@settings(max_examples=40, deadline=None)
@given(multiarrangements())
def test_power_product_matches_fraction_powers(arr_mult):
    # the one integer product behind the kernel's relations alpha_H^{m(H)}
    # and Q(A,m), read back from its packed keys, against Fraction powers
    arr, mult = arr_mult
    keys = PackedKeys(arr.ell)

    def read(vec):
        return Polynomial(arr.ell, {keys.term(t)[2]: Fraction(c)
                                    for t, c in vec.items()})
    for h, m in zip(arr.hyperplanes, mult.values):
        assert read(logmod._power_product([(h.coeffs, m)], keys)) == \
            crosschecks.linear_form(h.coeffs) ** m
    assert read(logmod._defining_vector(arr, mult, keys)) == \
        crosschecks.defining_polynomial(arr, mult)


def test_audit_reads_a_positive_multiple_of_each_generator():
    # the vector the audit reads is the engine's own, a positive multiple
    # of the generator: nonzero scaling leaves membership in D^p unchanged
    for name in PAPER_CORPUS:
        arr, mult = load(name)
        keys = PackedKeys(arr.ell)
        for p in range(1, arr.ell + 1):
            with session.request():
                gens = logmod.derivation_module(arr, mult, p).generators
            for g in gens:
                ivec, k = g.packed()
                got = {keys.term(t)[1:]: c for t, c in ivec.items()}
                scale = math.lcm(*(c.denominator for c in g.vec.values()))
                ints = {t: c * scale for t, c in g.vec.items()}
                assert got.keys() == ints.keys()
                t = next(iter(ints))
                ratio = Fraction(got[t], ints[t])
                assert ratio > 0 and k > 0
                assert all(got[t] == ratio * c for t, c in ints.items())


def test_audit_passes_a_fraction_built_multiple_of_a_generator():
    arr, mult = load("ex2_B")
    for p in (1, 2, 3):
        with session.request():
            gens = logmod.derivation_module(arr, mult, p).generators
        copies = [g.module.element([c.scale(Fraction(3, 2))
                                    for c in g.components()]) for g in gens]
        logmod._audit_membership(arr, mult, p, copies)
        for g, copy in zip(gens, copies):
            # the same primitive vector, as (3/2) * g = ivec / (k * 2/3)
            ivec, k = g.packed()
            assert copy.packed() == (ivec, k / Fraction(3, 2))


def test_dropped_basis_row_fails_the_hilbert_certificate_of_dp(dropped_row):
    # the level-0 engine's first row has a minimal lead; without it the lead
    # module of D^2 is smaller than the module the resolution resolves
    arr, mult = load("ex1")
    with session.request(), pytest.raises(CertificateError) as exc:
        logmod.derivation_module(arr, mult, 2)
    assert str(exc.value).startswith("D^2: Hilbert series of the resolution")
    assert "level-0 lead module" in str(exc.value)


@pytest.mark.parametrize("name, p", [("ex1", 1), ("ex2_B", 2)])
def test_proper_submodule_fails_the_generation_certificate(monkeypatch, name,
                                                           p):
    # the raw kernel generators of D^p without those of the lowest degree
    # generate a proper submodule: its resolution passes the lead-module
    # certificate and its generators the membership audit, but its Hilbert
    # series is not that of D^p
    arr, mult = load(name)
    kernel = logmod.kernel_of_map
    subs = []

    def fewer(*args):
        raw, quotient = kernel(*args)
        low = min(g.degree() for g in raw)
        subs.append([g for g in raw if g.degree() != low])
        return subs[-1], quotient

    monkeypatch.setattr(logmod, "kernel_of_map", fewer)
    with session.request(), pytest.raises(CertificateError) as exc:
        logmod.derivation_module(arr, mult, p)
    assert str(exc.value).startswith(f"D^{p}: the generators span a module")
    sub, = subs
    assert sub
    with session.request():
        res = minimal_free_resolution(sub, sub[0].module)
    logmod._audit_membership(arr, mult, p, res.generators)


def test_repeated_module_is_reused_at_no_cost():
    # D^2 of ex2_B takes 60 S-pairs; a budget of 60 admits it exactly once
    arr, mult = load("ex2_B")
    with session.request(max_pairs=60) as current:
        first = logmod.derivation_module(arr, mult, 2)
        assert current.pairs == 60
        assert logmod.derivation_module(arr, mult, 2) is first
        assert current.pairs == 60
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


# -- f_p without a resolution -----------------------------------------------

CI_MULTIARRANGEMENT = ("ell 3\nH 1 0 0\nH 0 1 0 m=2\nH 0 0 1\nH 1 1 1 m=3\n"
                       "H 1 -1 0 m=2\n")
RANK4_MULTIARRANGEMENT = ("ell 4\nH 1 -1 -1 0\nH 1 0 -1 2 m=2\nH 1 2 1 -1\n"
                          "H 2 -1 -1 0 m=2\nH 2 1 -2 1 m=3\n")


def numerator_inputs():
    items = [(name, *load(name)) for name in PAPER_CORPUS]
    for seed in range(3):
        items += random_corpus(seed)
    items.append(("multi", *parse(CI_MULTIARRANGEMENT)))
    items.append(("rank4", *parse(RANK4_MULTIARRANGEMENT)))
    return items


def test_untracked_kernel_numerator_is_the_betti_numerator():
    # each side in a fresh request, so that f_p comes from the untracked
    # kernel and never from the module.  D^2 of the rank-4
    # multiarrangement has no resolution within minutes (ROADMAP item 4);
    # its f_2 meets Psi's certificates and chi's oracle in test_stpoly
    for name, arr, mult in numerator_inputs():
        for p in range(arr.ell + 1):
            if name == "rank4" and p == 2:
                continue
            with session.request() as current:
                f = logmod.hilbert_numerator(arr, mult, p)
                assert current.modules.keys() <= {(arr, mult, 0),
                                                  (arr, mult, arr.ell)}
            with session.request():
                betti = logmod.derivation_module(arr, mult, p).betti
            assert f == betti.hilbert_numerator(), (name, p)


def test_numerator_of_a_resolved_module_is_read_off_at_no_cost():
    arr, mult = load("ex2_B")
    with session.request() as current:
        d2 = logmod.derivation_module(arr, mult, 2)
        pairs = current.pairs
        f = logmod.hilbert_numerator(arr, mult, 2)
        assert f == d2.betti.hilbert_numerator()
        assert logmod.hilbert_numerator(arr, mult, 2) is f
        assert current.pairs == pairs
    with session.request() as current:
        f = logmod.hilbert_numerator(arr, mult, 2)
        pairs = current.pairs
        assert 0 < pairs < 60           # the tracked kernel and levels: 60
        assert logmod.hilbert_numerator(arr, mult, 2) is f
        assert current.pairs == pairs
        assert (arr, mult, 2) not in current.modules


def test_numerator_order_out_of_range():
    arr, mult = load("ex1")
    for p in (-1, 4):
        with pytest.raises(StructuralError):
            logmod.hilbert_numerator(arr, mult, p)
