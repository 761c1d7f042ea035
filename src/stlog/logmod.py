"""Logarithmic modules of a multiarrangement: D^p(A,m) and Omega^p(A,m),
with minimal generators, minimal free resolutions, Hilbert series,
regularity and projective dimension, plus freeness (Saito) and tameness.

D^p(A,m) is realized as the kernel of the graded map

    S^C(l,p)  ->  (+)_{H, J}  S / (alpha_H^{m(H)})

with one row per hyperplane H and (p-1)-subset J of coordinates; the
entry of column I = J u {i} is the signed coefficient of alpha_H at x_i.
Evaluation of an alternating p-derivation is S-multilinear in the
differentials of its arguments, so coordinate test slots suffice.

The two ends need no Groebner basis: D^0 = S, and D^l = Q(A,m) * Omega^0
= S * Q(A,m) d_1 ^ ... ^ d_l, both free of rank one, generated by 1 and
by Q(A,m) made monic in the engine's order.

The invariants Psi, ST and chi need only f_p = Hilb(D^p) (1-x)^l, and
`hilbert_numerator` gives it without a resolution when D^p has none in
the request yet: dim D^p_d = dim S^C_d - dim(columns + R)_d + dim R_d,
R the free module on the relations alpha_H^{m(H)} e_r, from the leads
of one untracked kernel engine.  A resolved D^p is certified by the
same identity (`_resolve_dp`).

Omega^p(A,m) is never computed independently: it is D^{l-p}(A,m) with
all internal degrees shifted down by |m| (D^p = Q(A,m) * Omega^{l-p}).
The grading follows deg d/dx_i = deg dx_i = 0, so Omega degrees can be
negative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Optional

from .arrangement import Arrangement, Multiplicity, is_essential
from . import session
from .exceptions import CertificateError, StructuralError
from .groebner import (BettiTable, FreeModule, ModuleElement, kernel_of_map,
                       minimal_free_resolution)
from .ratpoly import (MAX_EXPONENT, LinearDivisor, PackedKeys, RationalSeries,
                      degree_overflow)


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
    """Constant matrix of the evaluation map, as {(row, col): int}."""
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
    D^0 and D^l are read off in closed form (`_principal`).
    """
    ell = _check_order(arr, p)
    modules = session.current().modules
    key = (arr, mult, p)
    if key in modules:
        return modules[key]

    if p in (0, ell):
        gens, betti = _principal(arr, mult, p)
    else:
        gens, betti = _resolve_dp(arr, mult, p)
    mod = LogModule("D", p, gens, betti, betti.hilbert_series(ell))
    modules[key] = mod
    return mod


def _check_order(arr: Arrangement, p: int) -> int:
    """arr.ell, once 0 <= p <= arr.ell is checked."""
    if not 0 <= p <= arr.ell:
        raise StructuralError(f"order p={p} out of range 0..{arr.ell}")
    return arr.ell


def hilbert_numerator(arr: Arrangement, mult: Multiplicity, p: int) -> dict:
    """f_p = Hilb(D^p) (1-x)^l as {degree: int}, once per request.

    Read off the Betti table of a D^p the request has already resolved,
    and of D^0 and D^l (`derivation_module`'s closed forms, audited).
    Otherwise one untracked kernel engine gives it (`_kernel`): no
    generators, no resolution and no membership audit, so none of their
    certificates.  The dict is the request's own; do not change it.
    """
    ell = _check_order(arr, p)
    current = session.current()
    key = (arr, mult, p)
    if key not in current.numerators:
        if key in current.modules or p in (0, ell):
            f = derivation_module(arr, mult, p).betti.hilbert_numerator()
        else:
            f = _kernel(arr, mult, p, track=False)[2]
        current.numerators[key] = f
    return current.numerators[key]


def _principal(arr: Arrangement, mult: Multiplicity, p: int):
    """The one generator and Betti table of D^0 = S (p = 0) or of
    D^l = S * Q(A,m) (p = l), as a resolution would give them: 1, or
    Q(A,m) in packed keys (`_defining_vector`), which decodes monic.  The
    membership audit checks D^l's generator."""
    ell = arr.ell
    keys = PackedKeys(ell)
    q = _defining_vector(arr, mult, keys) if p else {0: 1}
    gens = (ModuleElement(FreeModule(ell, [0]), None, (q, q[min(q)], keys)),)
    if p:
        _audit_membership(arr, mult, p, gens)
    return gens, BettiTable({(0, mult.total if p else 0): 1})


def _defining_vector(arr: Arrangement, mult: Multiplicity, keys: PackedKeys):
    """Q(A,m) = prod alpha_H^{m(H)} as an integer vector (`_power_product`)."""
    return _power_product(zip((h.coeffs for h in arr.hyperplanes),
                              mult.values), keys)


def _power_product(factors, keys: PackedKeys):
    """prod alpha^m over the pairs (alpha's coefficients, m) of factors,
    multiplied out in integers in packed keys of component 0, where a
    product of terms is the sum of their keys.  A degree beyond a packed
    field is refused before anything is multiplied.  Each alpha_H is
    primitive with its lead, the first coefficient, positive
    (`Hyperplane`), so the product is primitive (Gauss's lemma) with
    positive lead: the vector an engine hands out
    (`ModuleElement.packed`)."""
    factors = list(factors)
    degree = sum(m for _, m in factors)
    if degree > MAX_EXPONENT:
        raise degree_overflow(degree)
    q = {0: 1}
    for coeffs, m in factors:
        zero = (0,) * len(coeffs)
        form = [(keys.key(1, 0, zero[:i] + (1,) + zero[i + 1:]), c)
                for i, c in enumerate(coeffs) if c]
        for _ in range(m):
            out = {}
            for t, c in q.items():
                for u, a in form:
                    out[t + u] = out.get(t + u, 0) + c * a
            q = {t: c for t, c in out.items() if c}
    return q


def _kernel(arr: Arrangement, mult: Multiplicity, p: int, track: bool):
    """D^p's source S^C, the kernel generators (`kernel_of_map`; none
    when not track) and f_p.  R, the span of the relations
    alpha_H^{m(H)} e_r, is free on them, so Hilb(D^p) = Hilb(S^C) -
    Hilb(columns + R) + Hilb(R), the engine's leads giving the middle
    term."""
    ell = nvars = arr.ell
    cols = _subset_index(ell, p)
    rows = _constraint_rows(arr, p)
    source = FreeModule(nvars, [0] * len(cols))
    target = FreeModule(nvars, [0] * len(rows))
    entries = _column_entries(arr, p, cols, rows)
    # each constant column as the primitive integer vector and scale that
    # the engine would encode it to
    keys = PackedKeys(nvars)
    vecs = [{} for _ in cols]
    for (r, ci), v in entries.items():
        vecs[ci][keys.key(0, r, (0,) * nvars)] = v
    columns = []
    for vec in vecs:
        g = gcd(*vec.values()) or 1
        columns.append(ModuleElement(target, None, (
            {t: c // g for t, c in vec.items()}, Fraction(1, g), keys)))
    # alpha_H^{m(H)} e_r, each power built once and moved to its rows by
    # adding the component field to every key
    powers = [_power_product([(h.coeffs, m)], keys)
              for h, m in zip(arr.hyperplanes, mult.values)]
    cs = keys.comp_shift
    relations = [ModuleElement(target, None, (
        {t + (r << cs): c for t, c in powers[hi].items()}, 1, keys))
        for r, (hi, _) in enumerate(rows)]

    raw, quotient = kernel_of_map(columns, source, target, relations, track)
    quotient[0] += len(cols) - len(rows)
    quotient.update(mult.values[hi] for hi, _ in rows)
    return source, raw, {d: c for d, c in quotient.items() if c}


def _resolve_dp(arr: Arrangement, mult: Multiplicity, p: int):
    """Minimal generators and Betti table of D^p for p >= 1, certified:
    the resolution's own certificates and audit (their errors name D^p),
    generation, the membership audit, pd D^p <= l - 2 for 0 < p < l, and
    reg D^p <= |m| - l + p when A is essential.  Generation: the Betti
    numerator must be f_p of the tracked kernel (`_kernel`), which proves
    that generators inside D^p generate it."""
    ell = arr.ell
    source, raw, kernel = _kernel(arr, mult, p, track=True)
    try:
        res = minimal_free_resolution(raw, source)
        res.audit()
    except CertificateError as exc:
        raise CertificateError(f"D^{p}: {exc}") from exc
    gens = tuple(res.generators)
    betti = res.betti()
    reg, pd = betti.reg, betti.pd
    if kernel != betti.hilbert_numerator():
        raise CertificateError(
            f"D^{p}: the generators span a module with Hilbert numerator "
            f"{betti.hilbert_numerator()}, not that of D^{p}, {kernel}")

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

    For every hyperplane H and (p-1)-subset J, s = theta(alpha_H, x_J),
    the combination of the generator theta's components given by the
    coefficients a_i of alpha_H, must be divisible by alpha_H^{m(H)}.
    Only the J without the pivot k, the first i with a_i != 0, are
    divided: theta is alternating, so theta(alpha_H, alpha_H, ...) = 0,
    and substituting x_k = (alpha_H - sum_{i != k} a_i x_i) / a_k makes
    each s with k in J a Q-combination of those with k not in J.  So the
    check passes exactly when the check of every J does, and fails first
    at the same hyperplane.

    The check uses only `ratpoly`, never the Groebner engine it audits:
    it reads each generator's primitive integer vector
    (`ModuleElement.packed`), whose keys are `PackedKeys` with the
    component in their own field (D^p's source has no shifts), and
    divides s as an integer dict by alpha_H, m(H) times, in x_k-exponent
    buckets (`LinearDivisor`).  Membership in D^p does not change under
    nonzero scaling, and the quotient by a primitive alpha_H is integral
    (Gauss's lemma), so the division may stop at the first coefficient
    that a_k does not divide: then s has a nonzero remainder, and the
    generator is not in D^p.
    """
    ell = arr.ell
    keys = PackedKeys(ell)
    index = {I: ci for ci, I in enumerate(_subset_index(ell, p))}
    checks = []         # (H, divisor, [[(component, signed a_i)] per J])
    for h, m in zip(arr.hyperplanes, mult.values):
        a = h.coeffs
        k = next(i for i, c in enumerate(a) if c)
        combos = [[(index[tuple(sorted(J + (i,)))],
                    -a[i] if sum(j < i for j in J) % 2 else a[i])
                   for i in range(ell) if a[i] and i not in J]
                  for J in itertools.combinations(
                      [i for i in range(ell) if i != k], p - 1)]
        checks.append((h, LinearDivisor(keys, a, m), combos))
    for g in gens:
        comps = _components(g, keys, len(index))
        for h, divisor, combos in checks:
            for combo in combos:
                s = {}
                for ci, c in combo:
                    for t, v in comps[ci].items():
                        s[t] = s.get(t, 0) + c * v
                if not divisor.divides(s):
                    raise CertificateError(
                        f"membership audit failed for D^{p} generator at "
                        f"hyperplane {list(h.coeffs)}")


def _components(g: ModuleElement, keys: PackedKeys, rank: int):
    """g's primitive integer vector (`ModuleElement.packed`) split into one
    integer polynomial {key: int} per component, in component 0 of keys."""
    comps = [{} for _ in range(rank)]
    for t, c in g.packed()[0].items():
        j = keys.comp(t)
        comps[j][t - (j << keys.comp_shift)] = c
    return comps


def omega_module(arr: Arrangement, mult: Multiplicity, p: int) -> LogModule:
    """Omega^p(A,m) as the |m|-shift of D^{l-p}(A,m)."""
    ell = _check_order(arr, p)
    dual = derivation_module(arr, mult, ell - p)
    n = mult.total
    mod = LogModule("Omega", p, dual.generators, dual.betti.shifted(-n),
                    dual.hilb.shift(-n))
    if is_essential(arr) and mod.reg is not None and mod.reg > -p:
        raise CertificateError(
            f"regularity bound violated: reg Omega^{p} = {mod.reg} > {-p}")
    return mod


def is_free(arr: Arrangement,
            mult: Multiplicity) -> Optional[SaitoCertificate]:
    """Freeness via pd D^1 = 0, cross-validated by Saito's criterion:
    l homogeneous elements of D^1 form a basis iff det(theta_i(x_j)) is
    a nonzero scalar multiple of Q(A,m) (K. Saito, Theory of logarithmic
    differential forms and logarithmic vector fields, 1980).

    The determinant is taken in integers over the generators' primitive
    vectors ivec_i = k_i * theta_i (`ModuleElement.packed`), by Laplace
    expansion memoized on column subsets (`_determinant`), and compared
    with Q(A,m) in the same packed keys (`_defining_vector`) term by
    term: the same support and proportional coefficients, det = c * Q, so
    no division is left.  The scalar of theta is c / prod k_i.

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
    keys = PackedKeys(ell)
    q = _defining_vector(arr, mult, keys)
    det = _determinant([_components(g, keys, ell) for g in gens])
    lead = min(q)
    if det.keys() != q.keys() or any(det[t] * q[lead] != c * det[lead]
                                     for t, c in q.items()):
        raise CertificateError("Saito determinant is not a scalar multiple of Q(A,m)")
    scale = prod(g.packed()[1] for g in gens)
    return SaitoCertificate(exponents=exps,
                            scalar=Fraction(det[lead], q[lead]) / scale)


def _determinant(rows):
    """det of a square matrix of integer polynomials {key: int} in packed
    keys, where a product of terms is the sum of their keys.  Laplace
    expansion along the rows, from the last up, memoized on column
    subsets: each minor of the last r rows, keyed by the bitmask of its
    columns, is computed once."""
    minors = {0: {0: 1}}
    for row in reversed(rows):
        expanded = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or not entry:
                    continue
                # the sign of j's position among the columns cols | 1 << j
                sign = -1 if (cols & ((1 << j) - 1)).bit_count() % 2 else 1
                acc = expanded.setdefault(cols | 1 << j, {})
                for t, c in entry.items():
                    c *= sign
                    for u, d in minor.items():
                        acc[t + u] = acc.get(t + u, 0) + c * d
        minors = {cols: {t: c for t, c in acc.items() if c}
                  for cols, acc in expanded.items()}
    return minors.get((1 << len(rows)) - 1, {})


def is_tame(arr: Arrangement, mult: Multiplicity):
    """Tameness: pd Omega^p <= p for all p.  Returns (bool, pd table)."""
    ell = arr.ell
    table = {}
    for p in range(ell + 1):
        table[p] = derivation_module(arr, mult, ell - p).pd
    return all(table[p] <= p for p in table), table
