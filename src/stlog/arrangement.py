"""Hyperplane (multi)arrangements: parsing, canonical form, rank,
essentialization, product decomposition.

File format (UTF-8 text): '#' starts a comment, the first directive is
`ell <int>`, then one `H c1 c2 ... cl [m=<int>]` line per hyperplane.
"""

from __future__ import annotations

from math import gcd

from . import linalg
from .exceptions import ParseError, StructuralError


class Hyperplane:
    """Primitive integer linear form; first nonzero coefficient positive."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        if not any(coeffs):
            raise StructuralError("zero linear form is not a hyperplane")
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        coeffs = [c // g for c in coeffs]
        first = next(c for c in coeffs if c)
        if first < 0:
            coeffs = [-c for c in coeffs]
        self.coeffs = tuple(coeffs)

    @property
    def ell(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return self.coeffs < other.coeffs

    def __repr__(self):
        return f"H{list(self.coeffs)}"


class Arrangement:
    """Central arrangement: ordered list of distinct hyperplanes in Q^ell.

    The hyperplane order is canonical (lexicographic on coefficient
    tuples) so equal arrangements serialize identically.
    """

    __slots__ = ("ell", "hyperplanes", "_rank")

    def __init__(self, ell: int, hyperplanes):
        self.ell = int(ell)
        self._rank = None       # `rank`, computed on first use
        hps = list(hyperplanes)
        for h in hps:
            if h.ell != self.ell:
                raise StructuralError("hyperplane dimension mismatch")
        if len(set(hps)) != len(hps):
            raise StructuralError("duplicate hyperplanes")
        self.hyperplanes = tuple(sorted(hps))

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    def __eq__(self, other):
        return (isinstance(other, Arrangement) and self.ell == other.ell
                and self.hyperplanes == other.hyperplanes)

    def __hash__(self):
        return hash((self.ell, self.hyperplanes))

    def __repr__(self):
        return f"Arrangement(ell={self.ell}, n={self.n})"


class Multiplicity:
    """Positive integer multiplicities aligned with the hyperplane order."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if any(v < 1 for v in values):
            raise StructuralError("multiplicities must be positive")
        self.values = values

    @classmethod
    def simple(cls, n: int) -> "Multiplicity":
        return cls((1,) * n)

    @property
    def total(self) -> int:
        """|m|, the degree of the defining polynomial."""
        return sum(self.values)

    def is_simple(self) -> bool:
        return all(v == 1 for v in self.values)

    def __eq__(self, other):
        return isinstance(other, Multiplicity) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Multiplicity{self.values}"


# ---------------------------------------------------------------------------
# parsing / rendering

def load(path):
    """Read and parse an arrangement file; an unreadable or non-UTF-8 file
    is a `ParseError` like any other malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 "
                         f"(invalid byte at offset {exc.start})")
    return parse(text)


def _decimal(token: str):
    """The int spelled by ASCII digits after an optional '-', else None."""
    digits = token.removeprefix("-")
    try:
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:          # longer than Python's int-conversion limit
        return None


def parse(text: str):
    """Parse the arrangement file format; returns (Arrangement, Multiplicity)."""
    ell = None
    rows = []  # (Hyperplane, multiplicity, line number)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "ell":
            if ell is not None:
                raise ParseError("duplicate ell directive", line=lineno)
            ell = _decimal(parts[1]) if len(parts) == 2 else None
            if ell is None:
                raise ParseError("malformed ell directive", line=lineno)
            if ell < 1:
                raise ParseError("ell must be at least 1", line=lineno)
        elif parts[0] == "H":
            if ell is None:
                raise ParseError("H line before ell directive", line=lineno)
            mult = 1
            coeff_parts = parts[1:]
            if coeff_parts and coeff_parts[-1].startswith("m="):
                mult = _decimal(coeff_parts[-1][2:])
                if mult is None or mult < 1:
                    raise ParseError("malformed multiplicity", line=lineno)
                coeff_parts = coeff_parts[:-1]
            if len(coeff_parts) != ell:
                raise ParseError(
                    f"expected {ell} coefficients, got {len(coeff_parts)}",
                    line=lineno)
            coeffs = [_decimal(c) for c in coeff_parts]
            if None in coeffs:
                raise ParseError("non-integer coefficient", line=lineno)
            if not any(coeffs):
                raise ParseError("zero row is not a hyperplane", line=lineno)
            rows.append((Hyperplane(coeffs), mult, lineno))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line=lineno)
    if ell is None:
        raise ParseError("missing ell directive")
    seen = {}
    for h, _, lineno in rows:
        if h in seen:
            raise ParseError(
                f"duplicate hyperplane {list(h.coeffs)} (first at line {seen[h]})",
                line=lineno)
        seen[h] = lineno
    rows.sort(key=lambda r: r[0].coeffs)
    arr = Arrangement(ell, [h for h, _, _ in rows])
    mult = Multiplicity([m for _, m, _ in rows])
    return arr, mult


def render(arr: Arrangement, mult: Multiplicity | None = None) -> str:
    lines = [f"ell {arr.ell}"]
    values = mult.values if mult else (1,) * arr.n
    for h, m in zip(arr.hyperplanes, values):
        suffix = f" m={m}" if m != 1 else ""
        lines.append("H " + " ".join(str(c) for c in h.coeffs) + suffix)
    return "\n".join(lines) + "\n"


def to_json(arr: Arrangement, mult: Multiplicity | None = None):
    values = mult.values if mult else (1,) * arr.n
    return {"ell": arr.ell,
            "hyperplanes": [{"coeffs": list(h.coeffs), "m": m}
                            for h, m in zip(arr.hyperplanes, values)]}


# ---------------------------------------------------------------------------
# combinatorial operations

def rank(arr: Arrangement) -> int:
    if arr._rank is None:
        arr._rank = linalg.rank([h.coeffs for h in arr.hyperplanes])
    return arr._rank


def is_essential(arr: Arrangement) -> bool:
    return rank(arr) == arr.ell


def essentialize(arr: Arrangement, mult: Multiplicity):
    """Equivalent essential arrangement in rank(arr) variables.

    Coordinates are the pivot columns of the echelonized coefficient
    matrix: a coordinate subspace complementary to the common center, so
    restriction is plain column selection.
    """
    _, pivots = linalg.rref([h.coeffs for h in arr.hyperplanes])
    r = len(pivots)
    if r == arr.ell:
        return arr, mult
    pairs = sorted(
        (Hyperplane([h.coeffs[c] for c in pivots]), m)
        for h, m in zip(arr.hyperplanes, mult.values))
    return (Arrangement(r, [h for h, _ in pairs]),
            Multiplicity([m for _, m in pairs]))


def decompose_product(arr: Arrangement, mult: Multiplicity):
    """Partition into irreducible factors (matroid connected components).

    The forms are the columns of an l x n matrix of full row rank.  Row
    reduction preserves any block-diagonal structure (a row supported on
    one block never gets mixed into another), and the rref is unique, so
    the connected components of its row/column support graph are exactly
    the matroid components, i.e. the finest product decomposition.
    """
    if not is_essential(arr):
        raise StructuralError("decompose_product expects an essential arrangement")
    mat = [[h.coeffs[i] for h in arr.hyperplanes] for i in range(arr.ell)]
    ech, _ = linalg.rref(mat)
    parent = list(range(arr.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for row in ech:
        support = [j for j, v in enumerate(row) if v]
        for j in support[1:]:
            parent[find(j)] = find(support[0])
    groups = {}
    for j in range(arr.n):
        groups.setdefault(find(j), []).append(j)
    blocks = list(groups.values())
    blocks.sort(key=lambda blk: min(arr.hyperplanes[i].coeffs for i in blk))
    out = []
    for blk in blocks:
        hps = [arr.hyperplanes[i] for i in sorted(blk)]
        ms = [mult.values[i] for i in sorted(blk)]
        pairs = sorted(zip(hps, ms))
        out.append((Arrangement(arr.ell, [h for h, _ in pairs]),
                    Multiplicity([m for _, m in pairs])))
    return out


def is_irreducible(arr: Arrangement, mult: Multiplicity | None = None) -> bool:
    """Irreducibility of the essentialized arrangement."""
    if mult is None:
        mult = Multiplicity.simple(arr.n)
    ess, essm = essentialize(arr, mult)
    if ess.n == 0:
        return False
    return len(decompose_product(ess, essm)) == 1
