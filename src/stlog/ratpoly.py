"""Exact sparse polynomial arithmetic over the rationals.

Everything downstream (Groebner bases, Hilbert series, Solomon-Terao
polynomials) is built on the types here: multivariate polynomials with
Fraction coefficients, univariate Laurent polynomials, rational series
with a (1-x)^k denominator, and bi-polynomials in (x, t).  No floating
point anywhere.  The three polynomial types share one arithmetic core,
`_Sparse`; each says only how its exponents multiply, what the exponent
of 1 is, and how to build its own values.

Monomials are plain exponent tuples; the helpers below treat them as an
abelian monoid so the Groebner engine can share them.

Division by (1-x)^r is synthetic, one prefix sum per factor
(`divide_one_minus_x`).  Divisibility by alpha^m, alpha a linear form,
is decided in integers and needs no heap (`LinearDivisor`): alpha is
made primitive, so by Gauss's lemma an integral dividend has an
integral quotient, and the division is synthetic in alpha's lead
variable, so the first coefficient that its lead coefficient does not
divide proves non-divisibility at once.  No command divides by any
other polynomial.  Terms are packed exponent vectors (`PackedKeys`): one
int per term, so a shift is one addition and an exponent one shift and
a mask.  The Groebner engine imports the same packing, and the
membership audit reads each generator as the engine's primitive integer
vector in it (scaling leaves membership unchanged); this module imports
nothing from `groebner`, so the audit's arithmetic stays independent of
the engine it audits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add
from struct import Struct
from typing import Mapping

from .exceptions import ResourceBudgetError, StructuralError

Mono = tuple  # exponent tuple, one entry per variable


# ---------------------------------------------------------------------------
# monomial helpers

def mono_zero(nvars: int) -> Mono:
    return (0,) * nvars


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# packed term keys

EXP_BITS = 16           # one exponent field: 15 value bits under a guard bit
COMP_BITS = 24
MAX_EXPONENT = (1 << (EXP_BITS - 1)) - 1


def degree_overflow(degree: int) -> ResourceBudgetError:
    return ResourceBudgetError(
        f"degree {degree} exceeds {MAX_EXPONENT}, the largest exponent "
        f"a packed term key holds")


class PackedKeys:
    """Terms in `nvars` variables packed into single ints (Monagan-Pearce,
    Polynomial division using dynamic arrays, heaps, and packed exponent
    vectors, CASC 2007).

    The term (comp, m) of total degree d is the int with the fields
    [-d | comp | m_{n-1} | ... | m_0], most significant first: COMP_BITS
    for comp, EXP_BITS per exponent with the top bit, the guard, kept at
    0, and -d as the signed rest above them.  Integer order is the order
    of the tuples (-d, comp, reversed m): the smallest key is the largest
    term (higher degree first, then the lower component, then grevlex),
    so min() and heaps pick the lead.  Multiplying by x^s adds one delta,
    the key of any multiple minus the key of the term, to every key.  A
    lead key l of the same component divides t iff
    ((t | guard) - l) & guard == guard: with every guard set no field
    borrows from the next, and a guard stays set iff that exponent of t
    is at least that of l.  An exponent above MAX_EXPONENT would spill
    into a guard and break all three, so `key` refuses one, and callers
    bound the degree of every term they derive by shifting.
    """

    __slots__ = ("comp_shift", "deg_shift", "guard", "mono_mask", "_fields")

    def __init__(self, nvars: int):
        self.comp_shift = EXP_BITS * nvars
        self.deg_shift = self.comp_shift + COMP_BITS
        self.mono_mask = (1 << self.comp_shift) - 1
        self._fields = Struct(f"<{nvars}H")     # EXP_BITS = 16 bits each
        self.guard = int.from_bytes(self._fields.pack(*[1 << (EXP_BITS - 1)] * nvars),
                                    "little")

    def key(self, degree: int, comp: int, m: Mono) -> int:
        """The key of the term (comp, m) of total degree `degree`."""
        if m and max(m) > MAX_EXPONENT:
            raise degree_overflow(sum(m))
        if not 0 <= comp < 1 << COMP_BITS:
            raise ResourceBudgetError(
                f"component {comp} does not fit a packed term key")
        return ((comp << self.comp_shift)
                | int.from_bytes(self._fields.pack(*m), "little")) \
            - (degree << self.deg_shift)

    def comp(self, key: int) -> int:
        return (key >> self.comp_shift) & ((1 << COMP_BITS) - 1)

    def term(self, key: int):
        """(degree, comp, m) of a key."""
        return (-(key >> self.deg_shift), self.comp(key),
                self._fields.unpack((key & self.mono_mask).to_bytes(
                    self._fields.size, "little")))


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise StructuralError(f"non-rational coefficient {c!r}")


class _Sparse:
    """Sparse {exponent: nonzero Fraction} arithmetic shared by the
    polynomial types; instances are treated as immutable.

    A subclass supplies `_mul_exp` (how two exponents multiply), `_one_exp`
    (the exponent of 1) and `_new` (a value of its own type from terms),
    and may refuse another value in `_check`.  The exponent of 1 also
    tells rings of one type apart in `==` and `hash`: for `Polynomial` it
    is the zero tuple of length nvars.
    """

    __slots__ = ("terms",)

    def _check(self, other):
        pass

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return self._new(terms)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        mul = self._mul_exp
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return self._new(terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return self._new({})
        return self._new({m: c * v for m, v in self.terms.items()})

    def __pow__(self, k: int):
        """self**k for k >= 0 by square-and-multiply, starting from the
        power of the lowest set bit of k, so self**1 is self and costs
        no multiply."""
        if k < 0:
            raise StructuralError("negative power")
        if not k:
            return self._new({self._one_exp(): 1})
        base = self
        while not k & 1:
            base, k = base * base, k >> 1
        result = base
        while k := k >> 1:
            base = base * base
            if k & 1:
                result = result * base
        return result

    def __eq__(self, other):
        return (type(other) is type(self) and self._one_exp() == other._one_exp()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self._one_exp(), frozenset(self.terms.items())))


# ---------------------------------------------------------------------------
# multivariate polynomials

class Polynomial(_Sparse):
    """Sparse multivariate polynomial over Q.

    `terms` maps exponent tuples to nonzero Fractions.  The degree of the
    zero polynomial is None (a tagged sentinel, never -1).
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[Mono, Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _coerce(c)
                if c:
                    if len(m) != nvars:
                        raise StructuralError(
                            f"monomial {m} has {len(m)} exponents, expected {nvars}")
                    clean[tuple(m)] = c
        self.terms = clean

    # -- constructors
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        return cls(nvars, {mono_zero(nvars): _coerce(c)})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(1, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    # -- predicates
    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic
    _mul_exp = staticmethod(mono_mul)

    def _one_exp(self) -> Mono:
        return mono_zero(self.nvars)

    def _new(self, terms) -> "Polynomial":
        return Polynomial(self.nvars, terms)

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise StructuralError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    # -- calculus / evaluation
    def partial(self, i: int) -> "Polynomial":
        terms = {}
        for m, c in self.terms.items():
            if m[i]:
                e = list(m)
                e[i] -= 1
                me = tuple(e)
                s = terms.get(me, 0) + c * m[i]
                if s:
                    terms[me] = s
        return Polynomial(self.nvars, terms)

    # -- rendering
    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical for output)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (mono_deg(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        return render_terms(
            [(format_mono(m, self.nvars), c) for m, c in self.sorted_terms()])

    __repr__ = __str__

    def to_json(self):
        return [{"c": str(c), "e": list(m)} for m, c in self.sorted_terms()]


class LinearDivisor:
    """alpha^m for an integer linear form alpha, as a divisibility test of
    integer polynomials {key: int} in component 0 of `keys`.

    alpha is made primitive, so by Gauss's lemma an integral multiple of
    it has an integral quotient.  With x_k its lead (k the first index
    with a_k != 0), alpha = a_k x_k + beta and beta has no x_k, so
    division by alpha is synthetic division in x_k: from the top
    x_k-exponent e down, the terms of exponent e, over a_k, are the
    quotient's terms of exponent e - 1, and their product with beta is
    taken off the terms of exponent e - 1 before those are read; what is
    left at exponent 0 is the remainder.  `divides` makes m such passes,
    each over the quotient of the last, so it needs no heap and never
    expands alpha^m, and it stops at the first coefficient that a_k does
    not divide.  For a coordinate hyperplane (beta = 0) it is the test
    that every term has x_k-exponent at least m.  A quotient term has the
    degree of the term it came from, so a dividend of degree above
    MAX_EXPONENT is refused: a derived exponent could spill into a guard.
    """

    __slots__ = ("deg_shift", "m", "lead", "shift", "unit", "tail")

    def __init__(self, keys: PackedKeys, coeffs, m: int):
        if m > MAX_EXPONENT:
            raise degree_overflow(m)
        content = gcd(*coeffs)
        if not content:
            raise StructuralError("division by zero polynomial")
        a = [c // content for c in coeffs]
        k = next(i for i, c in enumerate(a) if c)
        zero = (0,) * len(a)
        units = [keys.key(1, 0, zero[:i] + (1,) + zero[i + 1:])
                 for i in range(len(a))]
        self.deg_shift, self.m, self.lead = keys.deg_shift, m, a[k]
        self.shift, self.unit = EXP_BITS * k, units[k]
        # x_i / x_k as a key delta, with a_i, for each term of beta
        self.tail = [(units[i] - units[k], c)
                     for i, c in enumerate(a) if i > k and c]

    def divides(self, terms: dict) -> bool:
        """True iff the integer polynomial terms {key: int} is a multiple
        of alpha^m (the zero polynomial is)."""
        degree = -(min(terms) >> self.deg_shift) if terms else 0
        if degree > MAX_EXPONENT:
            raise degree_overflow(degree)
        shift, m, lead, unit, tail = (self.shift, self.m, self.lead,
                                      self.unit, self.tail)
        if not tail:
            return all((t >> shift) & MAX_EXPONENT >= m
                       for t, c in terms.items() if c)
        buckets = {}
        for t, c in terms.items():
            if c:
                buckets.setdefault((t >> shift) & MAX_EXPONENT, {})[t] = c
        for left in range(m - 1, -1, -1):     # passes left after this one
            quotient = {}
            for e in range(max(buckets, default=0), 0, -1):
                bucket = buckets.get(e)
                if not bucket:
                    continue
                below = buckets.setdefault(e - 1, {})
                quo = quotient.setdefault(e - 1, {})
                for t, c in bucket.items():
                    if not c:
                        continue
                    if lead != 1:
                        c, r = divmod(c, lead)
                        if r:
                            return False
                    if left:
                        quo[t - unit] = c
                    for d, a in tail:
                        below[t + d] = below.get(t + d, 0) - c * a
            if any(buckets.get(0, {}).values()):
                return False
            buckets = quotient
        return True


def format_mono(m: Mono, nvars: int) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def render_terms(named):
    """Assemble '(name, coeff)' pairs into a signed expression string."""
    if not named:
        return "0"
    pieces = []
    for name, c in named:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if not name:
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# univariate Laurent polynomials

class LaurentPolynomial(_Sparse):
    """Sparse univariate Laurent polynomial over Q (negative powers allowed)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _coerce(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def degree(self):
        return max(self.terms) if self.terms else None

    def coefficient(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    _mul_exp = staticmethod(add)

    def _one_exp(self) -> int:
        return 0

    def _new(self, terms) -> "LaurentPolynomial":
        return LaurentPolynomial(terms)

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by x^k."""
        return LaurentPolynomial({e + k: c for e, c in self.terms.items()})

    def evaluate(self, point) -> Fraction:
        point = _coerce(point)
        total = Fraction(0)
        for e, c in self.terms.items():
            if e >= 0:
                total += c * point ** e
            else:
                if point == 0:
                    raise StructuralError("pole at 0")
                total += c / point ** (-e)
        return total

    def __str__(self):
        return self.render("x")

    __repr__ = __str__

    def render(self, var: str) -> str:
        named = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                name = ""
            elif e == 1:
                name = var
            else:
                name = f"{var}^{e}"
            named.append((name, c))
        return render_terms(named)

    def to_json(self):
        return [{"c": str(self.terms[e]), "e": e}
                for e in sorted(self.terms, reverse=True)]


def divide_one_minus_x(terms, r: int):
    """{e: c} / (1-x)^r without zeros, or None when inexact.  Synthetic
    division: f = (1-x) q makes q_e = f_lo + ... + f_e, a prefix sum over
    the dense coefficients whose last entry, f(1), must be 0."""
    if not any(terms.values()):
        return {}
    lo = min(terms)
    dense = [terms.get(e, 0) for e in range(lo, max(terms) + 1)]
    for _ in range(r):
        *dense, last = accumulate(dense)
        if last:
            return None
    return {lo + i: c for i, c in enumerate(dense) if c}


# ---------------------------------------------------------------------------
# Hilbert-series rational functions

class RationalSeries:
    """numerator / (1-x)^denom_power, kept in canonical (fully cancelled) form."""

    __slots__ = ("numerator", "denom_power")

    def __init__(self, numerator: LaurentPolynomial, denom_power: int):
        if denom_power < 0:
            raise StructuralError("negative denominator power")
        while denom_power and (
                q := divide_one_minus_x(numerator.terms, 1)) is not None:
            numerator, denom_power = LaurentPolynomial(q), denom_power - 1
        self.numerator = numerator
        self.denom_power = denom_power

    def shift(self, k: int) -> "RationalSeries":
        return RationalSeries(self.numerator.shift(k), self.denom_power)

    def __eq__(self, other):
        return (isinstance(other, RationalSeries)
                and self.numerator == other.numerator
                and self.denom_power == other.denom_power)

    def __hash__(self):
        return hash((self.numerator, self.denom_power))

    def is_zero(self):
        return self.numerator.is_zero()

    def taylor_coefficients(self, upto: int):
        """Coefficients of the power-series expansion in degrees 0..upto."""
        # 1/(1-x)^k has coefficients C(k-1+i, i)
        from math import comb
        out = [Fraction(0)] * (upto + 1)
        k = self.denom_power
        for e, c in self.numerator.terms.items():
            for i in range(max(e, 0), upto + 1):
                j = i - e
                out[i] += c * (comb(k - 1 + j, j) if k > 0 else (1 if j == 0 else 0))
        return out

    def __str__(self):
        num = self.numerator.render("x")
        if self.denom_power == 0:
            return num
        return f"({num})/(1-x)^{self.denom_power}"

    __repr__ = __str__

    def to_json(self):
        return {"numerator": self.numerator.to_json(),
                "denom_power": self.denom_power}


# ---------------------------------------------------------------------------
# bi-polynomials in (x, t)

class BiPolynomial(_Sparse):
    """Sparse polynomial in x (integer powers) and t (non-negative powers)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        clean = {}
        if terms:
            for (xe, te), c in terms.items():
                c = _coerce(c)
                if c:
                    if te < 0:
                        raise StructuralError("negative t exponent")
                    clean[(int(xe), int(te))] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    def t_degree(self):
        return max(te for _, te in self.terms) if self.terms else None

    def t_coefficient(self, k: int) -> LaurentPolynomial:
        return LaurentPolynomial(
            {xe: c for (xe, te), c in self.terms.items() if te == k})

    _mul_exp = staticmethod(mono_mul)

    def _one_exp(self) -> tuple:
        return (0, 0)

    def _new(self, terms) -> "BiPolynomial":
        return BiPolynomial(terms)

    def __str__(self):
        named = []
        for (xe, te) in sorted(self.terms,
                               key=lambda k: (k[1], k[0]), reverse=True):
            c = self.terms[(xe, te)]
            parts = []
            if xe == 1:
                parts.append("x")
            elif xe:
                parts.append(f"x^{xe}")
            if te == 1:
                parts.append("t")
            elif te:
                parts.append(f"t^{te}")
            named.append(("*".join(parts), c))
        return render_terms(named)

    __repr__ = __str__

    def to_json(self):
        return [{"c": str(self.terms[k]), "x": k[0], "t": k[1]}
                for k in sorted(self.terms, key=lambda k: (k[1], k[0]), reverse=True)]
