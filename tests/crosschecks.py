"""Cross-checks of the paper that no command runs, built on stlog's public
API for the tests.  Each raises AssertionError when its identity fails.
Also the Fraction references the tests compare the program against:
long division by one polynomial, exact Laurent division, the Saito
determinant, Q(A,m), the linear form alpha_H and the substitution of
t into Psi."""

from fractions import Fraction
from itertools import combinations
from operator import le

from stlog import logmod
from stlog.arrangement import Arrangement, Hyperplane, Multiplicity
from stlog.exceptions import StructuralError
from stlog.groebner import groebner_basis, normal_form
from stlog.ratpoly import LaurentPolynomial, Polynomial, divide_one_minus_x


class NonDivisibleError(ArithmeticError):
    """An inexact `exact_divide`; carries the remainder."""

    def __init__(self, remainder):
        super().__init__("inexact Laurent division")
        self.remainder = remainder


def grevlex(m):
    """Sort key of a monomial in graded reverse lex: higher degree first,
    then the smaller last exponent."""
    return sum(m), tuple(-e for e in reversed(m))


def divide(f, g):
    """(q, r) with f = q*g + r and no term of r divisible by the grevlex
    lead of g: long division by one polynomial, a term at a time."""
    if g.is_zero():
        raise StructuralError("division by zero polynomial")
    lead = max(g.terms, key=grevlex)
    q, r, rest = Polynomial.zero(f.nvars), {}, f
    while not rest.is_zero():
        m = max(rest.terms, key=grevlex)
        c = rest.terms[m]
        if all(map(le, lead, m)):
            t = Polynomial(f.nvars, {tuple(a - b for a, b in zip(m, lead)):
                                     c / g.terms[lead]})
            q, rest = q + t, rest - t * g
        else:
            r[m] = c
            rest = rest - Polynomial(f.nvars, {m: c})
    return q, Polynomial(f.nvars, r)


def exact_divide(n, d):
    """Exact Laurent division: q with q*d == n, else NonDivisibleError
    with the remainder of long division, in one variable after both sides
    are shifted to valuation 0."""
    if n.is_zero():
        return LaurentPolynomial.zero()
    nv, dv = min(n.terms), min(d.terms)
    q, r = divide(Polynomial(1, {(e - nv,): c for e, c in n.terms.items()}),
                  Polynomial(1, {(e - dv,): c for e, c in d.terms.items()}))
    if r.terms:
        raise NonDivisibleError(
            LaurentPolynomial({e + nv: c for (e,), c in r.terms.items()}))
    return LaurentPolynomial({e + nv - dv: c for (e,), c in q.terms.items()})


def in_submodule(elements, gens) -> bool:
    """Whether the elements, each a list of components, lie in the
    submodule that the ModuleElements gens generate."""
    module = gens[0].module
    gb = groebner_basis(gens, module)
    return all(normal_form(module.element(components), gb).is_zero()
               for components in elements)


def contract(theta, p: int, grads):
    """The contraction against eta, given grad eta, of the p-derivation
    with components theta over the p-subsets I of coordinates: at each
    (p-1)-subset J, the sum over I = J + {i} of (-1)^(position of i in I)
    theta_I d eta/dx_i."""
    ell = len(grads)
    out = {J: Polynomial.zero(ell) for J in combinations(range(ell), p - 1)}
    for I, f in zip(combinations(range(ell), p), theta):
        for k, i in enumerate(I):
            out[I[:k] + I[k + 1:]] += (f * grads[i]).scale((-1) ** k)
    return list(out.values())


def st_complex(arr, mult, eta):
    """The Solomon-Terao complex of (A,m,eta): each minimal generator of
    D^p, contracted against eta, lies in D^{p-1}, and contracting it again
    gives zero (eta sits in two slots).  Returns {p: the contracted D^p
    generators, as component lists}."""
    grads = [eta.partial(i) for i in range(arr.ell)]
    images = {}
    for p in range(1, arr.ell + 1):
        images[p] = [contract(theta.components(), p, grads) for theta
                     in logmod.derivation_module(arr, mult, p).generators]
        target = logmod.derivation_module(arr, mult, p - 1).generators
        assert in_submodule(images[p], target), f"d_{p} leaves D^{p - 1}"
        assert p < 2 or all(c.is_zero() for img in images[p]
                            for c in contract(img, p - 1, grads)), \
            f"d_{p - 1} d_{p} is not zero"
    return images


def wedge_power(arr, mult, p: int):
    """The p-fold wedges of the basis of D^1 of a free (A,m), as component
    lists over the p-subsets of coordinates: p x p minors of its matrix."""
    basis = logmod.derivation_module(arr, mult, 1).generators
    cols = list(combinations(range(arr.ell), p))
    return [[poly_det([[basis[k].component(i) for i in I] for k in K])
             for I in cols] for K in cols]


def poly_det(rows) -> Polynomial:
    """Determinant of a square matrix of polynomials (Laplace expansion)."""
    if len(rows) == 1:
        return rows[0][0]
    result = Polynomial.zero(rows[0][0].nvars)
    for i, row in enumerate(rows):
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        result += (row[0] * poly_det(minor)).scale((-1) ** i)
    return result


def linear_form(coeffs) -> Polynomial:
    """The linear form with these integer coefficients, in Fractions."""
    n = len(coeffs)
    return Polynomial(n, {tuple(int(j == i) for j in range(n)): Fraction(c)
                          for i, c in enumerate(coeffs) if c})


def defining_polynomial(arr, mult) -> Polynomial:
    """Q(A,m), the product of the forms raised to their multiplicities."""
    q = Polynomial.one(arr.ell)
    for h, m in zip(arr.hyperplanes, mult.values):
        q = q * linear_form(h.coeffs) ** m
    return q


def saito_scalar(arr, mult):
    """The Saito scalar of a free (A,m) in Fractions: det(theta_i(x_j)) of
    the basis of D^1 by `poly_det`, over Q(A,m) by long division (`divide`)."""
    gens = logmod.derivation_module(arr, mult, 1).generators
    quo, rem = divide(poly_det([g.components() for g in gens]),
                      defining_polynomial(arr, mult))
    assert rem.is_zero() and list(quo.terms) == [(0,) * arr.ell], \
        "the Saito determinant is not a nonzero scalar multiple of Q(A,m)"
    return quo.terms[(0,) * arr.ell]


def substitute_t(psi, s):
    """psi(x, s(x)), the ring-homomorphic substitution t -> s with x fixed:
    the sum over k of (the t^k coefficient of psi) * s^k."""
    return sum((psi.t_coefficient(k) * s ** k
                for k in range((psi.t_degree() or 0) + 1)),
               LaurentPolynomial.zero())


def check_second_t_coefficient(st):
    """The t^{l-1} coefficient of Psi is (-1)^{l-1} (l x^|m| - f_{l-1}(x))
    / (x - 1), an exact division since f_{l-1}(1) = l, the rank of the
    free module D^{l-1} lives in."""
    ell, n = st.ell, st.total
    g = LaurentPolynomial({n: ell}) - st.numerators[ell - 1]
    q = divide_one_minus_x(g.scale((-1) ** ell).terms, 1)
    assert q is not None, "(1-x) does not divide l x^|m| - f_{l-1}"
    assert st.psi.t_coefficient(ell - 1) == LaurentPolynomial(q)


def check_product_rule(arr1, mult1, arr2, mult2):
    """Hilb(D^p(A1 x A2)) = sum_{i+j=p} Hilb(D^i(A1)) Hilb(D^j(A2)), as an
    identity of the Betti numerators f_p = Hilb(D^p) (1-x)^l: both sides
    are over (1-x)^{l1+l2}."""
    l1, l2 = arr1.ell, arr2.ell
    pairs = sorted([(Hyperplane(h.coeffs + (0,) * l2), m)
                    for h, m in zip(arr1.hyperplanes, mult1.values)]
                   + [(Hyperplane((0,) * l1 + h.coeffs), m)
                      for h, m in zip(arr2.hyperplanes, mult2.values)])
    product = (Arrangement(l1 + l2, [h for h, _ in pairs]),
               Multiplicity([m for _, m in pairs]))
    f1, f2, f = ([LaurentPolynomial(logmod.derivation_module(arr, mult, p)
                                    .betti.hilbert_numerator())
                  for p in range(arr.ell + 1)]
                 for arr, mult in ((arr1, mult1), (arr2, mult2), product))
    for p, lhs in enumerate(f):
        rhs = sum((f1[i] * f2[p - i]
                   for i in range(max(0, p - l2), min(l1, p) + 1)),
                  LaurentPolynomial.zero())
        assert lhs == rhs, f"product rule fails at p = {p}"
