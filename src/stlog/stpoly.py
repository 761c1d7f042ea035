"""Solomon-Terao invariants of a multiarrangement (A,m).

The bi-polynomial is

    Psi(A,m;x,t) = sum_{p=0}^{l} Hilb(D^p(A,m); x) * (t(x-1)-1)^p,

a genuine polynomial in Q[x,t].  Specializations: the Solomon-Terao
polynomial ST = Psi(x,-1), its order-(d+1) generalization via
t -> -(1+x+...+x^{d-1}), and the characteristic polynomial
chi(A,m;t) = (-1)^l Psi(1,t).

The algebra side: for a polynomial eta of degree d+1 the Solomon-Terao
ideal is a = (theta(eta) : theta in D(A,m)) and the algebra is S/a,
Artinian for generic eta.  The Solomon-Terao complex contracts each
D^p against eta.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, Multiplicity, is_essential
from .exceptions import (CertificateError, GenericityNotFoundError,
                         NonDivisibleError, NonGenericEtaError,
                         StructuralError)
from .groebner import lift, quotient_colength
from .logmod import derivation_module
from .ratpoly import (ONE_MINUS_X, BiPolynomial, LaurentPolynomial,
                      Polynomial, exact_divide)

# t(x-1) - 1 as a bi-polynomial: the substitution variable of Psi
_T_FACTOR = BiPolynomial({(1, 1): 1, (0, 1): -1, (0, 0): -1})


@dataclass
class STBiPoly:
    """Psi(A,m;x,t) together with the resolution-level data behind it.

    numerators[p] is f_p(x) = Hilb(D^p) * (1-x)^l; a_p and b_p are the
    coefficients of x^{|m|} and x^{|m|-1} in f_p.
    """
    ell: int
    total: int              # |m|
    psi: BiPolynomial
    numerators: dict        # p -> LaurentPolynomial f_p
    a: dict                 # p -> Fraction, coefficient of x^{|m|} in f_p
    b: dict                 # p -> Fraction, coefficient of x^{|m|-1} in f_p

    def to_json(self):
        return {
            "ell": self.ell,
            "total_multiplicity": self.total,
            "psi": self.psi.to_json(),
            "numerators": {str(p): f.to_json()
                           for p, f in sorted(self.numerators.items())},
            "a": {str(p): str(v) for p, v in sorted(self.a.items())},
            "b": {str(p): str(v) for p, v in sorted(self.b.items())},
        }


@dataclass
class STIdealResult:
    eta: Polynomial
    ideal_gens: list            # theta_i(eta) over minimal generators of D(A,m)
    hilbert_function: dict      # degree -> dimension, when finite
    colength: int | None
    generic_certified: bool
    attempts: int

    def to_json(self):
        return {
            "eta": self.eta.to_json(),
            "ideal_generators": [g.to_json() for g in self.ideal_gens],
            "hilbert_function": (
                None if self.hilbert_function is None
                else {str(d): v for d, v in sorted(self.hilbert_function.items())}),
            "colength": self.colength,
            "generic_certified": self.generic_certified,
            "attempts": self.attempts,
        }


def st_bipoly(arr: Arrangement, mult: Multiplicity) -> STBiPoly:
    """Psi(A,m;x,t), assembled from the Hilbert series of all D^p."""
    if not is_essential(arr):
        raise StructuralError("st_bipoly expects an essential arrangement")
    ell = arr.ell
    n = mult.total
    numerators = {}
    acc = BiPolynomial.zero()
    for p in range(ell + 1):
        hilb = derivation_module(arr, mult, p).hilb
        f_p = hilb.numerator_for_power(ell)
        numerators[p] = f_p
        acc = acc + BiPolynomial.from_laurent(f_p) * _T_FACTOR ** p
    # acc = Psi * (1-x)^l; divide each t-coefficient exactly
    terms = {}
    tdeg = acc.t_degree()
    for k in range(0, (tdeg if tdeg is not None else -1) + 1):
        ck = acc.t_coefficient(k)
        if ck.is_zero():
            continue
        try:
            q = exact_divide(ck, ONE_MINUS_X ** ell)
        except NonDivisibleError as exc:
            raise CertificateError(
                f"t^{k} coefficient of the Psi numerator is not divisible "
                f"by (1-x)^{ell}") from exc
        for e, c in q.terms.items():
            terms[(e, k)] = c
    psi = BiPolynomial(terms)
    if psi.t_degree() != ell:
        raise CertificateError(
            f"Psi has t-degree {psi.t_degree()}, expected {ell}")
    top = psi.t_coefficient(ell)
    expected = LaurentPolynomial({n: (-1) ** ell})
    if top != expected:
        raise CertificateError(
            f"t^{ell} coefficient of Psi is {top}, expected {expected}")
    if numerators[ell] != LaurentPolynomial({n: 1}):
        raise CertificateError(
            f"top numerator f_{ell} is {numerators[ell]}, expected x^{n}")
    a = {p: f.coefficient(n) for p, f in numerators.items()}
    b = {p: f.coefficient(n - 1) for p, f in numerators.items()}
    return STBiPoly(ell, n, psi, numerators, a, b)


def st_polynomial(arr: Arrangement, mult: Multiplicity) -> LaurentPolynomial:
    """ST(A,m;x) = Psi(A,m;x,-1)."""
    return st_polynomial_order(arr, mult, 1)


def st_polynomial_order(arr: Arrangement, mult: Multiplicity,
                        d: int) -> LaurentPolynomial:
    """ST_{d+1}(A,m;x): substitute t -> -(1+x+...+x^{d-1}); order 2 is ST."""
    if d < 1:
        raise StructuralError("st_polynomial_order requires d >= 1")
    st = st_bipoly(arr, mult)
    sub = LaurentPolynomial({e: -1 for e in range(d)})
    return st.psi.substitute_t(sub)


def char_polynomial_multi(arr: Arrangement,
                          mult: Multiplicity) -> LaurentPolynomial:
    """chi(A,m;t) = (-1)^l Psi(A,m;1,t), as a polynomial in t."""
    st = st_bipoly(arr, mult)
    return st.psi.evaluate_x(1).scale((-1) ** arr.ell)


def reduced_st(arr: Arrangement) -> LaurentPolynomial:
    """ST+(A;x) with ST(A;x) = (1+x) ST+(A;x); simple arrangements only."""
    mult = Multiplicity.simple(arr.n)
    st = st_polynomial(arr, mult)
    try:
        return exact_divide(st, LaurentPolynomial({0: 1, 1: 1}))
    except NonDivisibleError as exc:
        raise CertificateError(
            "ST(A;x) is not divisible by (1+x) for a simple arrangement") from exc


# ---------------------------------------------------------------------------
# Solomon-Terao ideal and algebra

def st_ideal_generators(arr: Arrangement, mult: Multiplicity, eta: Polynomial):
    """Generators theta_i(eta) of a(A,m,eta), over minimal generators of D."""
    if eta.nvars != arr.ell:
        raise StructuralError("eta has the wrong number of variables")
    grads = [eta.partial(i) for i in range(arr.ell)]
    d1 = derivation_module(arr, mult, 1)
    gens = []
    for theta in d1.generators:
        g = Polynomial.zero(arr.ell)
        for i in range(arr.ell):
            g = g + theta.component(i) * grads[i]
        gens.append(g)
    return gens


def st_algebra_hilbert(arr: Arrangement, mult: Multiplicity,
                       eta: Polynomial) -> STIdealResult:
    """Ideal generators, Hilbert function and colength of S/a(A,m,eta)
    for a given eta (not certified generic, no sampling attempts).

    Raises NonGenericEtaError when the quotient is infinite dimensional.
    """
    gens = st_ideal_generators(arr, mult, eta)
    result = quotient_colength(gens, arr.ell)
    if result is None:
        raise NonGenericEtaError(
            "S/a(A,m,eta) is not Artinian: eta is not generic")
    colength, hf = result
    return STIdealResult(eta, gens, hf, colength, False, 0)


def _random_homogeneous(rng: random.Random, nvars: int, degree: int,
                        bound: int) -> Polynomial:
    terms = {}
    for mono in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in mono:
            e[i] += 1
        c = rng.randint(-bound, bound)
        if c:
            terms[tuple(e)] = Fraction(c)
    return Polynomial(nvars, terms)


def sample_generic_eta(arr: Arrangement, mult: Multiplicity, d: int,
                       seed: int = 0, max_attempts: int = 16) -> STIdealResult:
    """Deterministic search for a generic eta of degree d+1.

    The first attempt is always eta = sum x_i^{d+1}; later attempts draw
    integer coefficients uniformly from [-B, B] with B doubling from 4.
    Acceptance = finite colength of the Solomon-Terao ideal.
    """
    if d < 1:
        raise StructuralError("sample_generic_eta requires d >= 1")
    ell = arr.ell
    rng = random.Random(seed)
    bound = 4
    attempts = 0
    last = None
    while attempts < max_attempts:
        if attempts == 0:
            eta = Polynomial(ell, {tuple(d + 1 if j == i else 0
                                         for j in range(ell)): Fraction(1)
                                   for i in range(ell)})
        else:
            eta = _random_homogeneous(rng, ell, d + 1, bound)
            bound *= 2
        attempts += 1
        if eta.is_zero():
            continue
        gens = st_ideal_generators(arr, mult, eta)
        result = quotient_colength(gens, ell)
        if result is not None:
            colength, hf = result
            return STIdealResult(eta, gens, hf, colength, True, attempts)
        last = STIdealResult(eta, gens, None, None, False, attempts)
    raise GenericityNotFoundError(
        f"no generic eta of degree {d + 1} found in {attempts} attempts"
        + (f"; last tried {last.eta}" if last else ""))


# ---------------------------------------------------------------------------
# Solomon-Terao complex

@dataclass
class STComplex:
    """The chain complex (D^p, contraction against eta) in generator
    coordinates.

    matrices[p] (1 <= p <= l) expresses the boundary of each minimal
    generator of D^p over the minimal generators of D^{p-1}: row i holds
    the lift coefficients of the contracted i-th generator.
    """
    eta: Polynomial
    generator_degrees: dict     # p -> sorted degrees of the D^p generators
    matrices: dict              # p -> list of rows of Polynomial

    def to_json(self):
        return {
            "eta": self.eta.to_json(),
            "generator_degrees": {str(p): v for p, v in
                                  sorted(self.generator_degrees.items())},
            "matrices": {str(p): [[q.to_json() for q in row] for row in rows]
                         for p, rows in sorted(self.matrices.items())},
        }


def _contract(theta, p: int, ell: int, grads, target_module):
    """Contraction of a p-derivation against eta (via its gradient)."""
    cols_p = list(itertools.combinations(range(ell), p))
    cols_q = {I: ci for ci, I in
              enumerate(itertools.combinations(range(ell), p - 1))}
    out = {ci: Polynomial.zero(ell) for ci in range(len(cols_q))}
    for ci, I in enumerate(cols_p):
        f = theta.component(ci)
        if f.is_zero():
            continue
        for k, i in enumerate(I):
            J = tuple(x for x in I if x != i)
            sign = 1 if k % 2 == 0 else -1
            out[cols_q[J]] = out[cols_q[J]] + (f * grads[i]).scale(sign)
    return target_module.element([out[ci] for ci in range(len(cols_q))])


def st_complex(arr: Arrangement, mult: Multiplicity,
               eta: Polynomial) -> STComplex:
    """Boundary matrices of the Solomon-Terao complex of (A,m,eta).

    Each contracted generator is lifted over the target's minimal
    generators; the composite of consecutive boundaries is checked to be
    zero on every generator.
    """
    ell = arr.ell
    if eta.nvars != ell:
        raise StructuralError("eta has the wrong number of variables")
    grads = [eta.partial(i) for i in range(ell)]
    modules = {p: derivation_module(arr, mult, p)
               for p in range(ell + 1)}
    matrices = {}
    images = {}     # p -> contracted generators, as elements of rank C(l,p-1)
    for p in range(1, ell + 1):
        # the ambient free module the D^{p-1} generators live in
        ambient = modules[p - 1].generators[0].module
        rows = []
        imgs = []
        for theta in modules[p].generators:
            img = _contract(theta, p, ell, grads, ambient)
            imgs.append(img)
            coeffs = lift(img, modules[p - 1].generators)
            if coeffs is None:
                raise CertificateError(
                    f"contraction of a D^{p} generator does not lie in D^{p - 1}")
            rows.append(coeffs)
        matrices[p] = rows
        images[p] = imgs
    # d o d = 0 on raw contractions (eta repeats in two slots)
    for p in range(2, ell + 1):
        outm = modules[p - 2].generators[0].module
        for img in images[p]:
            dd = _contract(img, p - 1, ell, grads, outm)
            if not dd.is_zero():
                raise CertificateError(
                    f"boundary composite D^{p} -> D^{p - 2} is nonzero")
    return STComplex(eta,
                     {p: modules[p].generator_degrees()
                      for p in range(ell + 1)},
                     matrices)


# ---------------------------------------------------------------------------
# leading t-coefficients

def leading_t_coefficients_check(st: STBiPoly) -> dict:
    """Closed forms of the two highest t-coefficients of Psi.

    The t^l coefficient must be (-1)^l x^{|m|}.  The t^{l-1} coefficient
    must equal (-1)^{l-1} (l x^{|m|} - f_{l-1}(x)) / (x - 1); the
    division is always exact because f_{l-1}(1) equals the rank l of the
    ambient free module.  When f_{l-1} is concentrated in its top two
    degrees this collapses to the two-term display
    (-1)^{l-1} ((l - a_{l-1}) x^{|m|} - b_{l-1} x^{|m|-1}) / (x - 1);
    whether that collapse applies is reported but not required.
    """
    ell, n = st.ell, st.total
    report = {"checks": [], "passed": True}

    top = st.psi.t_coefficient(ell)
    expected_top = LaurentPolynomial({n: (-1) ** ell})
    ok = top == expected_top
    report["checks"].append({
        "name": "top_t_coefficient",
        "computed": top.to_json(),
        "expected": expected_top.to_json(),
        "pass": ok,
    })
    report["passed"] = report["passed"] and ok

    f1 = st.numerators.get(ell - 1, LaurentPolynomial.zero())
    numerator = (LaurentPolynomial({n: ell}) - f1).scale((-1) ** (ell - 1))
    x_minus_1 = LaurentPolynomial({1: 1, 0: -1})
    try:
        expected_sub = exact_divide(numerator, x_minus_1)
        divisible = True
    except NonDivisibleError:
        expected_sub = None
        divisible = False
    sub = st.psi.t_coefficient(ell - 1)
    ok = divisible and sub == expected_sub
    a1 = st.a.get(ell - 1, Fraction(0))
    b1 = st.b.get(ell - 1, Fraction(0))
    two_term = f1 == LaurentPolynomial({n: a1, n - 1: b1})
    report["checks"].append({
        "name": "second_t_coefficient",
        "computed": sub.to_json(),
        "expected": expected_sub.to_json() if expected_sub is not None else None,
        "exact_division": divisible,
        "a": str(a1),
        "b": str(b1),
        "two_term_form_applies": two_term,
        "pass": ok,
    })
    report["passed"] = report["passed"] and ok
    return report
