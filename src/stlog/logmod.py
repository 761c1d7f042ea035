"""Logarithmic modules of a multiarrangement: D^p(A,m) and Omega^p(A,m),
with minimal generators, minimal free resolutions, Hilbert series,
regularity and projective dimension, plus freeness (Saito) and tameness.

D^p(A,m) is realized as the kernel of the graded map

    S^C(l,p)  ->  (+)_{H, J}  S / (alpha_H^{m(H)})

with one row per hyperplane H and (p-1)-subset J of coordinates; the
entry of column I = J u {i} is the signed coefficient of alpha_H at x_i.
Evaluation of an alternating p-derivation is S-multilinear in the
differentials of its arguments, so coordinate test slots suffice.

Omega^p(A,m) is never computed independently: it is D^{l-p}(A,m) with
all internal degrees shifted down by |m| (D^p = Q(A,m) * Omega^{l-p}).
The grading follows deg d/dx_i = deg dx_i = 0, so Omega degrees can be
negative.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arrangement import (Arrangement, Multiplicity, defining_polynomial,
                          is_essential, render)
from . import session
from .exceptions import CertificateError, StructuralError
from .groebner import (BettiTable, FreeModule, ModuleElement, kernel_of_map,
                       minimal_free_resolution)
from .ratpoly import (IntegerDivisor, Polynomial, RationalSeries,
                      integer_terms)


@dataclass(frozen=True)
class LogModule:
    """A computed D^p or Omega^p, read-only: one request hands the same
    record to every caller.  reg, pd and the generator degrees are read
    off the Betti table."""

    kind: str               # "D" or "Omega"
    p: int
    generators: tuple       # minimal homogeneous generators in the basis d_I
    betti: BettiTable
    hilb: RationalSeries

    @property
    def reg(self):
        return self.betti.reg

    @property
    def pd(self) -> int:
        return self.betti.pd

    def generator_degrees(self):
        return sorted(d for (i, d), c in self.betti.counts.items()
                      if i == 0 for _ in range(c))

    def to_json(self):
        return {
            "kind": self.kind,
            "p": self.p,
            "generators": [[poly.to_json() for poly in g.components()]
                           for g in self.generators],
            "betti": self.betti.to_json(),
            "hilbert_series": self.hilb.to_json(),
            "reg": self.reg,
            "pd": self.pd,
        }


@dataclass(frozen=True)
class SaitoCertificate:
    exponents: tuple        # sorted generator degrees d_1..d_l
    scalar: Fraction        # det(theta_i(x_j)) = scalar * Q(A,m)


def _subset_index(ell: int, p: int):
    return [tuple(c) for c in itertools.combinations(range(ell), p)]


def _constraint_rows(arr: Arrangement, p: int):
    """Row labels (hyperplane index, (p-1)-subset J) in deterministic order."""
    js = _subset_index(arr.ell, p - 1)
    return [(hi, J) for hi in range(arr.n) for J in js]


def _column_entries(arr: Arrangement, p: int, cols, rows):
    """Constant matrix of the evaluation map, as {(row, col): Fraction}."""
    row_pos = {label: r for r, label in enumerate(rows)}
    entries = {}
    for ci, I in enumerate(cols):
        for k, i in enumerate(I):
            J = tuple(x for x in I if x != i)
            sign = -1 if k % 2 else 1
            for hi, h in enumerate(arr.hyperplanes):
                c = h.coeffs[i]
                if c:
                    r = row_pos[(hi, J)]
                    entries[(r, ci)] = entries.get((r, ci), 0) + sign * c
    return entries


def derivation_module(arr: Arrangement, mult: Multiplicity,
                      p: int) -> LogModule:
    """D^p(A,m) with minimal generators, Betti table, Hilbert series.

    Computed once per request: a repeated call inside one
    `session.request()` returns the same object and costs no S-pairs.
    """
    ell = arr.ell
    if not 0 <= p <= ell:
        raise StructuralError(f"order p={p} out of range 0..{ell}")
    modules = session.current().modules
    key = (render(arr, mult), p)
    if key in modules:
        return modules[key]

    if p == 0:
        gens = (FreeModule(ell, [0]).basis_element(0),)
        betti = BettiTable({(0, 0): 1})
    else:
        gens, betti = _resolve_dp(arr, mult, p)
    mod = LogModule("D", p, gens, betti, betti.hilbert_series(ell))
    modules[key] = mod
    return mod


def _resolve_dp(arr: Arrangement, mult: Multiplicity, p: int):
    """Minimal generators and Betti table of D^p for p >= 1, certified:
    the resolution's own certificates and audit (their errors name D^p),
    the membership audit, pd D^p <= l - 2 for 0 < p < l, and
    reg D^p <= |m| - l + p when A is essential."""
    ell = nvars = arr.ell
    cols = _subset_index(ell, p)
    rows = _constraint_rows(arr, p)
    source = FreeModule(nvars, [0] * len(cols))
    target = FreeModule(nvars, [0] * len(rows))
    entries = _column_entries(arr, p, cols, rows)
    columns = []
    for ci in range(len(cols)):
        vec = {}
        for (r, cj), v in entries.items():
            if cj == ci:
                vec[(r, (0,) * nvars)] = Fraction(v)
        columns.append(ModuleElement(target, vec))
    powers = [h.form() ** mult.values[hi]
              for hi, h in enumerate(arr.hyperplanes)]
    relations = [(r, powers[hi]) for r, (hi, _) in enumerate(rows)]

    raw = kernel_of_map(columns, source, target, relations)
    try:
        res = minimal_free_resolution(raw, source)
        res.audit()
    except CertificateError as exc:
        raise CertificateError(f"D^{p}: {exc}") from exc
    gens = tuple(res.generators)
    betti = res.betti()
    reg, pd = betti.reg, betti.pd

    _audit_membership(arr, mult, p, gens)
    if p <= ell - 1 and pd > ell - 2:
        raise CertificateError(
            f"pd D^{p} = {pd} exceeds reflexivity bound {ell - 2}")
    if is_essential(arr):
        n = mult.total
        if reg is not None and reg > n - ell + p:
            raise CertificateError(
                f"regularity bound violated: reg D^{p} = {reg} > {n - ell + p}")
    return gens, betti


def _audit_membership(arr: Arrangement, mult: Multiplicity, p: int, gens):
    """Direct divisibility check of the defining condition for each generator.

    For every hyperplane H and (p-1)-subset J, the combination s of the
    generator's components given by the coefficients of alpha_H must be
    divisible by alpha_H^{m(H)}.  The check uses only `ratpoly`, never the
    Groebner engine it audits: each alpha_H^{m(H)} becomes one primitive
    `IntegerDivisor`, each generator's components become integer dicts
    with one joint scale, and s is an integer dict.  Scaling by a nonzero
    integer does not change divisibility, and the quotient by a primitive
    divisor is integral (Gauss's lemma), so the heap division may stop at
    the first lead term that the divisor's lead does not divide or that
    leaves an integer remainder: then s has a nonzero remainder, and the
    generator is not in D^p.
    """
    ell = arr.ell
    cols = _subset_index(ell, p)
    divisors = [IntegerDivisor(h.form() ** mult.values[hi])
                for hi, h in enumerate(arr.hyperplanes)]
    for g in gens:
        comps = {I: {} for I in cols}
        for (ci, m), c in integer_terms(g.vec).items():
            comps[cols[ci]][m] = c
        for h, divisor in zip(arr.hyperplanes, divisors):
            for J in itertools.combinations(range(ell), p - 1):
                s = {}
                for i in range(ell):
                    c = h.coeffs[i]
                    if not c or i in J:
                        continue
                    I = tuple(sorted(J + (i,)))
                    if I.index(i) % 2:
                        c = -c
                    for m, v in comps[I].items():
                        s[m] = s.get(m, 0) + c * v
                if not divisor.divides(s):
                    raise CertificateError(
                        f"membership audit failed for D^{p} generator at "
                        f"hyperplane {list(h.coeffs)}")


def omega_module(arr: Arrangement, mult: Multiplicity, p: int) -> LogModule:
    """Omega^p(A,m) as the |m|-shift of D^{l-p}(A,m)."""
    ell = arr.ell
    if not 0 <= p <= ell:
        raise StructuralError(f"order p={p} out of range 0..{ell}")
    dual = derivation_module(arr, mult, ell - p)
    n = mult.total
    mod = LogModule("Omega", p, dual.generators, dual.betti.shifted(-n),
                    dual.hilb.shift(-n))
    if is_essential(arr) and mod.reg is not None and mod.reg > -p:
        raise CertificateError(
            f"regularity bound violated: reg Omega^{p} = {mod.reg} > {-p}")
    return mod


def euler_derivation(arr: Arrangement) -> ModuleElement:
    """theta_E = sum x_i d/dx_i, an element of S^l of degree 1."""
    ell = arr.ell
    F = FreeModule(ell, [0] * ell)
    return F.element([Polynomial.variable(i, ell) for i in range(ell)])


def poly_det(rows) -> Polynomial:
    """Determinant of a square matrix of polynomials (Laplace expansion)."""
    n = len(rows)
    if n == 0:
        raise StructuralError("empty matrix")
    nvars = rows[0][0].nvars
    if n == 1:
        return rows[0][0]
    result = Polynomial.zero(nvars)
    for i in range(n):
        entry = rows[i][0]
        if entry.is_zero():
            continue
        minor = [[rows[r][c] for c in range(1, n)] for r in range(n) if r != i]
        term = entry * poly_det(minor)
        result = result + (term if i % 2 == 0 else -term)
    return result


def is_free(arr: Arrangement,
            mult: Multiplicity) -> Optional[SaitoCertificate]:
    """Freeness via pd D^1 = 0, cross-validated by Saito's determinant.

    Returns the exponents (with the determinant scalar) when free, None
    otherwise.  A failing certificate on a pd-0 module is an internal
    inconsistency and raises.
    """
    d1 = derivation_module(arr, mult, 1)
    if d1.pd != 0:
        return None
    gens = d1.generators
    ell = arr.ell
    if len(gens) != ell:
        raise CertificateError(
            f"free module with {len(gens)} generators in rank {ell}")
    exps = tuple(sorted(g.degree() for g in gens))
    if sum(exps) != mult.total:
        raise CertificateError(
            f"exponent sum {sum(exps)} differs from |m| = {mult.total}")
    matrix = [[g.component(j) for j in range(ell)] for g in gens]
    d = poly_det(matrix)
    q = defining_polynomial(arr, mult)
    quo, rem = d.divide(q)
    if not rem.is_zero() or not quo.is_constant() or quo.is_zero():
        raise CertificateError("Saito determinant is not a scalar multiple of Q(A,m)")
    scalar = quo.coefficient((0,) * ell)
    return SaitoCertificate(exponents=exps, scalar=scalar)


def is_tame(arr: Arrangement, mult: Multiplicity):
    """Tameness: pd Omega^p <= p for all p.  Returns (bool, pd table)."""
    ell = arr.ell
    table = {}
    for p in range(ell + 1):
        table[p] = derivation_module(arr, mult, ell - p).pd
    return all(table[p] <= p for p in table), table


def wedge_power_free(arr: Arrangement, mult: Multiplicity,
                     p: int) -> LogModule:
    """D^p of a certified free (A,m), built as p-fold wedges of the basis."""
    cert = is_free(arr, mult)
    if cert is None:
        raise StructuralError("wedge_power_free requires a free multiarrangement")
    ell = arr.ell
    if not 0 <= p <= ell:
        raise StructuralError(f"order p={p} out of range 0..{ell}")
    basis = derivation_module(arr, mult, 1).generators
    cols = _subset_index(ell, p)
    source = FreeModule(ell, [0] * len(cols))
    gens = []
    for K in itertools.combinations(range(ell), p):
        comps = []
        for I in cols:
            minor = [[basis[k].component(i) for i in I] for k in K]
            comps.append(poly_det(minor) if minor else Polynomial.one(ell))
        gens.append(source.element(comps))
    betti = BettiTable(Counter((0, g.degree()) for g in gens))
    return LogModule("D", p, tuple(gens), betti, betti.hilbert_series(ell))
