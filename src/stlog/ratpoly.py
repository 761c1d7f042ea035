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

Division by one polynomial (Monagan-Pearce, Sparse polynomial division
using a heap, JSC 2011) keys each remainder term once, when it enters,
by `_key`, and takes the grevlex lead from a heap.  It is the only
division loop over Q: `exact_divide` is a one-variable division after a
shift to valuation 0.  Divisibility is decided in integers:
`IntegerDivisor` makes the divisor primitive over Z, so by Gauss's
lemma the quotient of an integral dividend is integral, and the first
lead term that the divisor's lead does not divide, or that leaves a
nonzero integer remainder, proves non-divisibility at once.  This
module imports nothing from `groebner`: the membership audit built on
it stays independent of the Groebner engine.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Iterable, Mapping

from .exceptions import NonDivisibleError, StructuralError

Mono = tuple  # exponent tuple, one entry per variable


# ---------------------------------------------------------------------------
# monomial helpers

def mono_zero(nvars: int) -> Mono:
    return (0,) * nvars


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def _key(a: Mono):
    """Heap key: the smallest key is the largest monomial in graded
    reverse lex (higher degree first, then the smaller last exponent).
    Keys multiply componentwise, like the monomials they encode."""
    return (-sum(a), a[::-1])


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
        """self**k for k >= 0 by square-and-multiply; the last bit of k
        needs no further squaring."""
        if k < 0:
            raise StructuralError("negative power")
        result, base = self._new({self._one_exp(): 1}), self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

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

    @classmethod
    def from_linear_form(cls, coeffs: Iterable[int]) -> "Polynomial":
        coeffs = list(coeffs)
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return cls(n, terms)

    # -- predicates
    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def coefficient(self, mono: Mono) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

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

    def evaluate(self, point: Iterable) -> Fraction:
        point = [_coerce(p) for p in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, p in zip(m, point):
                v *= p ** e
            total += v
        return total

    def divide(self, divisor: "Polynomial"):
        """Multivariate division by a single polynomial (grevlex lead).

        Returns (quotient, remainder) with self = q*divisor + r and no
        term of r divisible by the lead term of the divisor.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise StructuralError("division by zero polynomial")
        (lnd, lr), lc, tail = _lead_and_tail(divisor.terms)
        rem = {_key(m): c for m, c in self.terms.items()}
        heap = list(rem)
        heapify(heap)
        quo = {}
        out = {}
        while heap:
            key = heappop(heap)
            c = rem.pop(key)
            if not c:
                continue
            nd, r = key
            if not all(map(le, lr, r)):
                out[r[::-1]] = c
                continue
            q = c / lc
            sd, sr = nd - lnd, tuple(map(sub, r, lr))
            quo[sr[::-1]] = q
            for tnd, tr, tc in tail:
                k = (tnd + sd, tuple(map(add, tr, sr)))
                if k in rem:
                    rem[k] -= q * tc
                else:
                    rem[k] = -q * tc
                    heappush(heap, k)
        return Polynomial(self.nvars, quo), Polynomial(self.nvars, out)

    def is_divisible_by(self, divisor: "Polynomial") -> bool:
        self._check(divisor)
        return IntegerDivisor(divisor).divides(integer_terms(self.terms))

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

    @classmethod
    def from_json(cls, data, nvars: int) -> "Polynomial":
        terms = {}
        for entry in data:
            terms[tuple(entry["e"])] = Fraction(entry["c"])
        return cls(nvars, terms)


def integer_terms(terms):
    """Fraction values times the lcm of their denominators, as integers
    under the same keys (one joint scale for all of them)."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}


def _lead_and_tail(terms):
    """Split {monomial: coefficient} into the grevlex lead's key, its
    coefficient, and the other terms as (-degree, reversed exponents,
    coefficient)."""
    keyed = sorted((_key(m), c) for m, c in terms.items())
    (lead, lc), rest = keyed[0], keyed[1:]
    return lead, lc, [(nd, r, c) for (nd, r), c in rest]


class IntegerDivisor:
    """A nonzero polynomial made primitive over Z, keyed once, for exact
    divisibility tests of integer polynomials.

    Since the divisor is primitive, Gauss's lemma makes the quotient of
    an integral multiple integral, so `divides` returns False at the
    first lead term whose monomial or coefficient the divisor's lead
    does not divide.
    """

    __slots__ = ("lead", "lead_coeff", "tail")

    def __init__(self, p: Polynomial):
        if p.is_zero():
            raise StructuralError("division by zero polynomial")
        ints = integer_terms(p.terms)
        content = gcd(*ints.values())
        self.lead, self.lead_coeff, self.tail = _lead_and_tail(
            {m: c // content for m, c in ints.items()})

    def divides(self, terms: Mapping[Mono, int]) -> bool:
        """True iff the integer polynomial {monomial: int} is a multiple
        of this divisor (the zero polynomial is)."""
        rem = {_key(m): c for m, c in terms.items() if c}
        heap = list(rem)
        heapify(heap)
        lnd, lr = self.lead
        lc, tail = self.lead_coeff, self.tail
        while heap:
            key = heappop(heap)
            c = rem.pop(key)
            if not c:
                continue
            nd, r = key
            if not all(map(le, lr, r)):
                return False
            q, x = divmod(c, lc)
            if x:
                return False
            sd, sr = nd - lnd, tuple(map(sub, r, lr))
            for tnd, tr, tc in tail:
                k = (tnd + sd, tuple(map(add, tr, sr)))
                if k in rem:
                    rem[k] -= q * tc
                else:
                    rem[k] = -q * tc
                    heappush(heap, k)
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

    def valuation(self):
        return min(self.terms) if self.terms else None

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


def exact_divide(n: LaurentPolynomial, d: LaurentPolynomial) -> LaurentPolynomial:
    """Exact Laurent division: q with q*d == n, else NonDivisibleError.

    Both sides are shifted to valuation 0 and divided as one-variable
    polynomials, where the grevlex lead is the top degree: this is long
    division, and its remainder is the one the error carries."""
    if d.is_zero():
        raise StructuralError("division by zero")
    if n.is_zero():
        return LaurentPolynomial.zero()
    nv, dv = n.valuation(), d.valuation()
    q, r = Polynomial(1, {(e - nv,): c for e, c in n.terms.items()}).divide(
        Polynomial(1, {(e - dv,): c for e, c in d.terms.items()}))
    if r.terms:
        remainder = LaurentPolynomial({e + nv: c for (e,), c in r.terms.items()})
        raise NonDivisibleError("inexact Laurent division", remainder=remainder)
    return LaurentPolynomial({e + nv - dv: c for (e,), c in q.terms.items()})


ONE_MINUS_X = LaurentPolynomial({0: 1, 1: -1})


# ---------------------------------------------------------------------------
# Hilbert-series rational functions

class RationalSeries:
    """numerator / (1-x)^denom_power, kept in canonical (fully cancelled) form."""

    __slots__ = ("numerator", "denom_power")

    def __init__(self, numerator: LaurentPolynomial, denom_power: int):
        if denom_power < 0:
            raise StructuralError("negative denominator power")
        while denom_power > 0:
            try:
                numerator = exact_divide(numerator, ONE_MINUS_X)
            except NonDivisibleError:
                break
            denom_power -= 1
        self.numerator = numerator
        self.denom_power = denom_power

    def numerator_for_power(self, k: int) -> LaurentPolynomial:
        """Numerator over (1-x)^k; k must be >= the canonical power."""
        if k < self.denom_power:
            raise StructuralError(
                f"cannot express over (1-x)^{k}: canonical power {self.denom_power}")
        return self.numerator * ONE_MINUS_X ** (k - self.denom_power)

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        k = max(self.denom_power, other.denom_power)
        return RationalSeries(
            self.numerator_for_power(k) + other.numerator_for_power(k), k)

    def __sub__(self, other):
        return self + RationalSeries(-other.numerator, other.denom_power)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(self.numerator * other.numerator,
                              self.denom_power + other.denom_power)

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

    @classmethod
    def from_laurent(cls, p: LaurentPolynomial, t_power: int = 0) -> "BiPolynomial":
        return cls({(e, t_power): c for e, c in p.terms.items()})

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

    def substitute_t(self, s: LaurentPolynomial) -> LaurentPolynomial:
        """Ring-homomorphic substitution t -> s(x), x fixed."""
        result = LaurentPolynomial.zero()
        if self.is_zero():
            return result
        for k in range(self.t_degree() + 1):
            ck = self.t_coefficient(k)
            if not ck.is_zero():
                result = result + ck * s ** k
        return result

    def evaluate_x(self, point) -> LaurentPolynomial:
        """Evaluate x at a rational point; returns a polynomial in t."""
        point = _coerce(point)
        terms = {}
        for (xe, te), c in self.terms.items():
            v = c * (point ** xe if xe >= 0 else 1 / point ** (-xe))
            s = terms.get(te, 0) + v
            if s:
                terms[te] = s
            else:
                terms.pop(te, None)
        return LaurentPolynomial(terms)

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
