"""Solomon-Terao invariants of a multiarrangement (A,m).

The bi-polynomial is

    Psi(A,m;x,t) = sum_{p=0}^{l} Hilb(D^p(A,m); x) * (t(x-1)-1)^p,

a genuine polynomial in Q[x,t].  Specializations: the Solomon-Terao
polynomial ST = Psi(x,-1), its order-(d+1) generalization via
t -> -(1+x+...+x^{d-1}), and the characteristic polynomial
chi(A,m;t) = (-1)^l Psi(1,t).  Psi is assembled in integers from the
Betti numerators f_p = Hilb(D^p) (1-x)^l; at t = -(1+...+x^{d-1}) the
factor t(x-1)-1 is -x^d, so ST_{d+1} = sum_p (-1)^p x^{dp} f_p / (1-x)^l
is read off the f_p directly.

The algebra side: for a polynomial eta of degree d+1 the Solomon-Terao
ideal is a = (theta(eta) : theta in D(A,m)) and the algebra is S/a,
Artinian for generic eta.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arrangement import Arrangement, Multiplicity, is_essential
from .exceptions import (CertificateError, GenericityNotFoundError,
                         NonGenericEtaError, StructuralError)
from .groebner import quotient_colength
from .logmod import derivation_module
from .ratpoly import (BiPolynomial, LaurentPolynomial, Polynomial,
                      divide_one_minus_x)


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


def psi_from_numerators(ell: int, numerators) -> BiPolynomial:
    """Psi from the integer numerators f_0..f_l ({degree: c}), in the
    closed form of `st_bipoly`."""
    terms = {}
    for k in range(ell + 1):
        g = {}
        for p in range(k, ell + 1):
            for e, v in numerators[p].items():
                g[e] = g.get(e, 0) + (-1) ** (p - k) * comb(p, k) * v
        q = divide_one_minus_x(g, ell - k)
        if q is None:
            raise CertificateError(
                f"t^{k} coefficient of the Psi numerator is not divisible "
                f"by (1-x)^{ell}")
        terms.update(((e, k), (-1) ** k * c) for e, c in q.items())
    return BiPolynomial(terms)


def st_bipoly(arr: Arrangement, mult: Multiplicity) -> STBiPoly:
    """Psi(A,m;x,t), assembled in integers from the Betti numerators
    f_p = Hilb(D^p) (1-x)^l.  Expanding (t(x-1)-1)^p by the binomial
    theorem, the t^k coefficient of sum_p f_p (t(x-1)-1)^p is (x-1)^k g_k
    with g_k = sum_{p>=k} (-1)^(p-k) C(p,k) f_p, so that of Psi is
    (-1)^k g_k / (1-x)^(l-k) (`psi_from_numerators`); and (1-x)^l divides
    (x-1)^k g_k exactly when (1-x)^(l-k) divides g_k: the same certificate."""
    if not is_essential(arr):
        raise StructuralError("st_bipoly expects an essential arrangement")
    ell = arr.ell
    n = mult.total
    ints = [derivation_module(arr, mult, p).betti.hilbert_numerator()
            for p in range(ell + 1)]
    numerators = {p: LaurentPolynomial(f) for p, f in enumerate(ints)}
    psi = psi_from_numerators(ell, ints)
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
    """ST_{d+1}(A,m;x) = Psi(x, -(1+x+...+x^{d-1})); order 2 is ST.  At
    that t, t(x-1)-1 = -x^d, so ST_{d+1} = sum_p (-1)^p x^{dp} f_p /
    (1-x)^l: one sum over the Betti numerators of `st_bipoly` and one
    exact division."""
    if d < 1:
        raise StructuralError("st_polynomial_order requires d >= 1")
    st = st_bipoly(arr, mult)
    g = {}
    for p, f in st.numerators.items():
        for e, c in f.terms.items():
            e += d * p
            g[e] = g.get(e, 0) + (-1) ** p * c
    q = divide_one_minus_x(g, st.ell)
    if q is None:
        raise CertificateError(
            f"the order-{d + 1} Solomon-Terao numerator is not divisible "
            f"by (1-x)^{st.ell}")
    return LaurentPolynomial(q)


def char_polynomial_multi(arr: Arrangement,
                          mult: Multiplicity) -> LaurentPolynomial:
    """chi(A,m;t) = (-1)^l Psi(A,m;1,t): its t^k coefficient is (-1)^l
    times the sum of Psi's coefficients of t^k."""
    st = st_bipoly(arr, mult)
    chi = {}
    for (_, k), c in st.psi.terms.items():
        chi[k] = chi.get(k, 0) + c
    return LaurentPolynomial(chi).scale((-1) ** arr.ell)


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
