"""Intersection lattice, Moebius function, characteristic polynomial."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from stlog import linalg
from stlog.arrangement import Arrangement, Hyperplane, Multiplicity, parse
from stlog.fixtures import load
from stlog.lattice import (characteristic_polynomial, intersection_lattice,
                           lattice_report, moebius)
from stlog.ratpoly import LaurentPolynomial


def test_ex1_lattice_structure():
    arr, _ = load("ex1")
    flats = intersection_lattice(arr)
    by_codim = {}
    for f in flats:
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    # V, 4 hyperplanes, 6 lines (all pairs meet in distinct lines), origin
    assert by_codim == {0: 1, 1: 4, 2: 6, 3: 1}
    assert len(flats) == 12


def test_ex1_moebius_values():
    arr, _ = load("ex1")
    flats = intersection_lattice(arr)
    mu = moebius(flats)
    values = sorted(mu[f.members] for f in flats if f.codim == 3)
    assert values == [-3]       # mu at the origin
    assert all(mu[f.members] == -1 for f in flats if f.codim == 1)
    assert all(mu[f.members] == 1 for f in flats if f.codim == 2)


def test_ex1_characteristic_polynomial():
    arr, _ = load("ex1")
    chi = characteristic_polynomial(arr)
    assert chi == LaurentPolynomial({3: 1, 2: -4, 1: 6, 0: -3})


def test_boolean_characteristic_polynomial():
    arr, _ = load("bool3")
    chi = characteristic_polynomial(arr)
    # (t-1)^3
    assert chi == LaurentPolynomial({3: 1, 2: -3, 1: 3, 0: -1})


def test_deletion_restriction_recursion():
    # chi(A) = chi(A') - chi(A'') for a triple point in rank 2
    arr, _ = parse("ell 2\nH 1 0\nH 0 1\nH 1 1\n")
    smaller, _ = parse("ell 2\nH 1 0\nH 0 1\n")
    chi = characteristic_polynomial(arr)
    chi_del = characteristic_polynomial(smaller)
    # restriction to x=0 is the single point: chi = t - 1 in rank 1
    chi_res = LaurentPolynomial({1: 1, 0: -1})
    assert chi == chi_del - chi_res


def test_lattice_report_shape():
    arr, _ = load("bool2")
    report = lattice_report(arr)
    assert [entry["codim"] for entry in report] == [0, 1, 1, 2]
    assert sum(entry["mu"] for entry in report) == 0  # chi(1) = 0 for n >= 1


def test_moebius_alternating_sums_to_zero():
    # sum over the lattice of mu is chi(A;1) = 0 whenever A is nonempty
    for name in ("ex1", "bool2", "bool3", "generic_3_4"):
        arr, _ = load(name)
        flats = intersection_lattice(arr)
        mu = moebius(flats)
        assert sum(mu.values()) == 0, name


@st.composite
def simple_arrangements(draw):
    """1..7 distinct hyperplanes in rank 1..4, coefficients in -3..3; the
    forms need not span, so non-essential arrangements are included."""
    ell = draw(st.integers(1, 4))
    vectors = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=ell, max_size=ell)
        .filter(any), min_size=1, max_size=7))
    hyperplanes = sorted(set(map(Hyperplane, vectors)))
    return Arrangement(ell, hyperplanes)


@settings(max_examples=150, deadline=None)
@given(simple_arrangements())
def test_lattice_agrees_with_closures_of_all_subsets(arr):
    # independent oracle: the rank over Q of every subset S of forms; the
    # flat of S holds every H whose form leaves that rank unchanged
    forms = [h.coeffs for h in arr.hyperplanes]
    subsets = [frozenset(s) for r in range(arr.n + 1)
               for s in combinations(range(arr.n), r)]
    rank = {s: linalg.rank([forms[i] for i in s]) for s in subsets}
    closures = {frozenset(j for j in range(arr.n) if rank[s | {j}] == rank[s])
                for s in subsets}
    flats = intersection_lattice(arr)
    assert len({f.members for f in flats}) == len(flats)
    assert {f.members for f in flats} == closures
    assert all(f.codim == rank[f.members] for f in flats)
    # Whitney: chi(A;t) = sum over S of (-1)^|S| t^(l - rank S)
    whitney = {}
    for s in subsets:
        d = arr.ell - rank[s]
        whitney[d] = whitney.get(d, 0) + (-1) ** len(s)
    assert characteristic_polynomial(arr) == LaurentPolynomial(whitney)


def _roots_product(roots):
    """prod (t - r) over the given roots, as a LaurentPolynomial."""
    out = LaurentPolynomial({0: 1})
    for r in roots:
        out = out * LaurentPolynomial({1: 1, 0: -r})
    return out


def _hyperplane(ell, *entries):
    """The hyperplane in rank ell whose form has the given (index, coeff)."""
    v = [0] * ell
    for i, c in entries:
        v[i] = c
    return Hyperplane(v)


def test_braid_a5_chi_factors():
    # A_5: x_i = x_j in rank 6; chi = t(t-1)(t-2)(t-3)(t-4)(t-5)
    arr = Arrangement(6, sorted(_hyperplane(6, (i, 1), (j, -1))
                                for i, j in combinations(range(6), 2)))
    assert len(intersection_lattice(arr)) == 203     # set partitions of 6
    assert characteristic_polynomial(arr) == _roots_product(range(6))


def test_b4_chi_factors():
    # B_4: x_i = 0 and x_i = +-x_j in rank 4; chi = (t-1)(t-3)(t-5)(t-7)
    hyperplanes = [_hyperplane(4, (i, 1)) for i in range(4)]
    hyperplanes += [_hyperplane(4, (i, 1), (j, s))
                    for i, j in combinations(range(4), 2) for s in (1, -1)]
    arr = Arrangement(4, sorted(hyperplanes))
    assert arr.n == 16
    assert characteristic_polynomial(arr) == _roots_product((1, 3, 5, 7))
