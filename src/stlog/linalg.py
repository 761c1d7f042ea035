"""Small exact linear algebra helpers over Q (row echelon, rank, row-span
membership)."""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form with deterministic left-to-right pivots.

    Returns (echelon_rows, pivot_columns); zero rows are dropped and the
    result is canonical for the row span.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def in_row_span(vector, echelon_rows) -> bool:
    """Membership of a vector in the span of rref rows."""
    v = [Fraction(x) for x in vector]
    for row in echelon_rows:
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is not None and v[pivot]:
            f = v[pivot]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)
