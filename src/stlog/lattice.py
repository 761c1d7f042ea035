"""Intersection lattice, Moebius function and characteristic polynomial
of a simple central arrangement, in which every subset meets.

A flat X is keyed by the hyperplanes containing it and keeps a primitive
integer basis y_a of its subspace.  With k_a = alpha_H(y_a) and k_b != 0,
the y_a k_b - y_b k_a (a != b) span X ∩ H, in integer arithmetic only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .arrangement import Arrangement
from .ratpoly import LaurentPolynomial


@dataclass(frozen=True)
class Flat:
    basis: tuple            # primitive integer vectors spanning the flat
    codim: int
    members: frozenset      # indices of hyperplanes containing the flat

    def __le__(self, other):
        # reverse-inclusion order: self contains other as a subspace of V
        return self.members <= other.members


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cut(y, ka, yb, kb):
    v = [kb * u - ka * w for u, w in zip(y, yb)]
    g = gcd(*v)
    return tuple(c // g for c in v)


def intersection_lattice(arr: Arrangement):
    """All intersections of subsets of hyperplanes, V (the empty one)
    included, as a list sorted by (codim, members)."""
    forms = [h.coeffs for h in arr.hyperplanes]
    unit = [tuple(int(i == j) for j in range(arr.ell)) for i in range(arr.ell)]
    flats = {frozenset(): Flat(tuple(unit), 0, frozenset())}
    queue = list(flats.values())
    for flat in queue:                  # grows by one codimension at a time
        # X ∩ H_i is a child already found if H_i contains that child
        covered = set(flat.members)
        for i, form in enumerate(forms):
            if i in covered:
                continue
            k = [_dot(form, y) for y in flat.basis]
            b = next(a for a, ka in enumerate(k) if ka)
            basis = tuple(_cut(y, ka, flat.basis[b], k[b]) for a, (y, ka)
                          in enumerate(zip(flat.basis, k)) if a != b)
            members = flat.members.union(
                j for j, f in enumerate(forms) if j not in flat.members
                and all(_dot(f, y) == 0 for y in basis))
            covered |= members
            if members not in flats:
                flats[members] = Flat(basis, flat.codim + 1, members)
                queue.append(flats[members])
    return sorted(flats.values(), key=lambda f: (f.codim, sorted(f.members)))


def moebius(flats):
    """Moebius table mu(X) from the defining top-down recursion."""
    table = {}
    for flat in sorted(flats, key=lambda f: f.codim):
        table[flat.members] = 1 if flat.codim == 0 else -sum(
            table[g.members] for g in flats if g.members < flat.members)
    return table


def lattice_report(arr: Arrangement):
    """Flats grouped by codimension with Moebius values (JSON-friendly)."""
    flats = intersection_lattice(arr)
    mu = moebius(flats)
    return [{"codim": f.codim, "members": sorted(f.members),
             "mu": mu[f.members]} for f in flats]


def characteristic_polynomial(arr: Arrangement,
                              report=None) -> LaurentPolynomial:
    """chi(A;t) = sum mu(X) t^dim(X), as a polynomial in t, from the
    `lattice_report` of arr, built here unless given."""
    terms = Counter()
    for entry in report or lattice_report(arr):
        terms[arr.ell - entry["codim"]] += entry["mu"]
    return LaurentPolynomial(terms)
