"""Groebner bases, syzygies and minimal free resolutions for graded
submodules of free S-modules, S = Q[x1..xl].

The engine works on homogeneous elements of a graded free module with
generator shifts (the generator of S[-d] sits in degree d).  Monomial
order: graded reverse lex on monomials, extended position-over-term with
degree-first comparison using the shifts.  Buchberger with module
S-pairs; syzygies come from recording the representation of every basis
element in terms of the original generators and collecting the
relations produced by S-pairs that reduce to zero (Schreyer).  One
reduction loop, `_reduce`, serves the engine, `normal_form`, `lift`
and the reduced basis.

An engine skips the S-pairs that the Gebauer-Moeller criteria prove
redundant (Gebauer-Moeller, On an installation of Buchberger's algorithm,
JSC 1988), unless its caller asks for every pair.  For a Groebner basis
this is the classical result.  For syzygies it holds because the
criteria keep a generating set of the syzygies of the lead terms, and
lifting such a set gives generators of Syz(G) (Schreyer), so a tracked
engine's syzygies from the kept pairs still generate.  The coprime-lead
criterion is the exception: it drops the Koszul syzygies, so only an
untracked engine over an ideal uses it.  `kernel_of_map` and `lift`
process every pair: their outputs are presentations read off the
recorded syzygies and representations, which skipping would change
(though not make wrong).

A minimal free resolution builds each of its modules with one tracked
engine (`_minimal_level`): the candidates are fed by increasing degree,
each is kept only if it is not in the span of those kept before it
(graded Nakayama), and the same engine, completed at the end, yields
the syzygies of the kept generators, which are the next module's
candidates.  The same degree truncation gives the Hilbert function of
an Artinian quotient S/I (`quotient_colength`): one untracked engine is
completed one degree at a time, and its standard monomials are counted
until the first degree that has none.

Fractions appear only at the boundary: the public ModuleElement holds a
flat dict {(component, monomial): Fraction}, with one per-component
Polynomial view.  Inside the engine a term is stored as its own order
key (see `_encode`) and a basis row is a primitive integer vector whose
representation vector shares its scale, with positive lead coefficient.
Reduction is fraction-free (Geddes-Czapor-Labahn, Algorithms for
Computer Algebra, ch. 10): to cancel a term, the remainder is multiplied
by a nonzero integer instead of dividing the row by its lead coefficient.
Every remainder, row and S-pair is therefore a nonzero rational multiple
of the one the same run would hold over Q with monic rows.  Scaling
changes no lead term and no zero pattern, so the reducer chosen at each
step, the S-pair sequence and the monic outputs are exactly those of
Fraction arithmetic, with one integer gcd per reduction step in place
of one per coefficient operation.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, le, sub
from types import MappingProxyType

from . import session
from .exceptions import CertificateError, StructuralError
from .ratpoly import (LaurentPolynomial, Polynomial, RationalSeries,
                      mono_deg, mono_mul, mono_zero)


# ---------------------------------------------------------------------------
# public domain types

class FreeModule:
    """Graded free module  ⊕_j S[-shifts[j]]  over S in `nvars` variables."""

    __slots__ = ("nvars", "shifts")

    def __init__(self, nvars: int, shifts):
        self.nvars = nvars
        self.shifts = tuple(int(s) for s in shifts)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.nvars == other.nvars
                and self.shifts == other.shifts)

    def __hash__(self):
        return hash((self.nvars, self.shifts))

    def __repr__(self):
        return f"FreeModule(nvars={self.nvars}, shifts={list(self.shifts)})"

    def basis_element(self, j: int) -> "ModuleElement":
        return ModuleElement(self, {(j, mono_zero(self.nvars)): Fraction(1)})

    def element(self, components) -> "ModuleElement":
        """Build from a sequence of Polynomial, one per generator."""
        components = list(components)
        if len(components) != self.rank:
            raise StructuralError(
                f"expected {self.rank} components, got {len(components)}")
        vec = {}
        for j, p in enumerate(components):
            if p.nvars != self.nvars:
                raise StructuralError("component variable count mismatch")
            for m, c in p.terms.items():
                vec[(j, m)] = c
        return ModuleElement(self, vec)


class ModuleElement:
    """Homogeneous (in all uses here) element of a graded free module."""

    __slots__ = ("module", "vec")

    def __init__(self, module: FreeModule, vec):
        self.module = module
        self.vec = {t: c for t, c in vec.items() if c}

    def is_zero(self) -> bool:
        return not self.vec

    def component(self, j: int) -> Polynomial:
        return Polynomial(self.module.nvars,
                          {m: c for (i, m), c in self.vec.items() if i == j})

    def components(self):
        return [self.component(j) for j in range(self.module.rank)]

    def degree(self):
        """Degree of a homogeneous element; None for zero."""
        if not self.vec:
            return None
        degs = {mono_deg(m) + self.module.shifts[i] for (i, m) in self.vec}
        if len(degs) != 1:
            raise StructuralError("element is not homogeneous")
        return degs.pop()

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        vec = dict(self.vec)
        _iadd_scaled(vec, other.vec, Fraction(1), mono_zero(self.module.nvars))
        return ModuleElement(self.module, vec)

    def __sub__(self, other):
        vec = dict(self.vec)
        _iadd_scaled(vec, other.vec, Fraction(-1), mono_zero(self.module.nvars))
        return ModuleElement(self.module, vec)

    def __neg__(self):
        return ModuleElement(self.module, {t: -c for t, c in self.vec.items()})

    def __eq__(self, other):
        return (isinstance(other, ModuleElement)
                and self.module == other.module and self.vec == other.vec)

    def __hash__(self):
        return hash((self.module, frozenset(self.vec.items())))

    def canonical_key(self):
        return tuple(sorted(self.vec.items()))

    def __repr__(self):
        comps = ", ".join(str(p) for p in self.components())
        return f"({comps})"


# ---------------------------------------------------------------------------
# flat-vector helpers

def _iadd_scaled(dst, src, c, mono):
    """dst += c * x^mono * src, in place."""
    for (comp, m), v in src.items():
        t = (comp, mono_mul(m, mono))
        s = dst.get(t, 0) + c * v
        if s:
            dst[t] = s
        else:
            dst.pop(t, None)


# ---------------------------------------------------------------------------
# the engine's integer vectors
#
# A term (comp, mono) of a module with shifts is stored as its own order
# key (-(deg mono + shifts[comp]), comp, mono[::-1]): the smallest key is
# the largest term of the module order (higher degree first, then the
# lower component, then grevlex), so min() picks the lead.  Multiplying
# by x^s, kept reversed as s with degree ds, maps (nd, comp, rm) to
# (nd - ds, comp, rm + s).  Representation vectors use the same keys over
# the free module on the generators (shifts = generator degrees).

def _encode(vec, shifts):
    """(k, ivec): ivec = k * vec as a primitive integer vector in internal
    keys, for a flat dict vec {(comp, mono): rational}."""
    den = lcm(*(c.denominator for c in vec.values()))
    ivec = {(-(sum(m) + shifts[comp]), comp, m[::-1]):
            c.numerator * (den // c.denominator) for (comp, m), c in vec.items()}
    g = gcd(*ivec.values()) or 1
    if g != 1:
        for t in ivec:
            ivec[t] //= g
    return Fraction(den, g), ivec


def _decode(ivec, scale):
    """The flat dict {(comp, mono): Fraction} of ivec / scale."""
    return {(comp, rm[::-1]): Fraction(c, scale) for (_, comp, rm), c in ivec.items()}


def _isub_scaled(dst, items, q, ds, s):
    """dst -= q * x^s * (the terms in items), in place; s is reversed and
    of degree ds."""
    for (nd, comp, rm), c in items:
        t = (nd - ds, comp, tuple(map(add, rm, s)))
        v = dst.get(t, 0) - q * c
        if v:
            dst[t] = v
        else:
            del dst[t]


class _Row:
    __slots__ = ("vec", "lead", "lc", "rep")

    def __init__(self, vec, rep=None):
        """A basis row from an integer vector and its representation (or
        None): both divided by their joint content, with positive lead
        coefficient and the lead term first in vec."""
        lead = min(vec)
        g = gcd(*vec.values(), *(rep.values() if rep else ()))
        if vec[lead] < 0:
            g = -g
        self.lead = lead    # (-degree, comp, reversed mono)
        self.lc = vec[lead] // g
        self.vec = {lead: self.lc}
        self.vec.update((t, c // g) for t, c in vec.items())
        self.rep = rep if g == 1 or rep is None else \
            {t: c // g for t, c in rep.items()}


def _index_by_lead(rows):
    """{comp: [(reversed lead mono, row index)]} for a list of rows."""
    index = {}
    for idx, r in enumerate(rows):
        index.setdefault(r.lead[1], []).append((r.lead[2], idx))
    return index


def _reduce(rem, rows, lead_index, rep=None, first=False):
    """Fraction-free normal form of the integer vector rem against rows.

    rem is consumed.  To remove a term with coefficient c by a row with
    lead coefficient a, everything is multiplied by a/g, g = gcd(a, c),
    and c/g times the shifted row is subtracted.  Returns (out, scale)
    with scale * rem = out + (an integer combination of rows).

    rep, if given, is updated in place alongside: multiplied by the same
    factors, minus the same multiples of the rows' representations.  So
    if rep starts as the representation of rem, it ends as that of out;
    if it starts empty, out = scale * rem + (the combination rep
    describes).  With first=True the reduction stops at the first
    irreducible term, and out holds that term alone.
    """
    out = {}
    scale = 1
    while rem:
        t = min(rem)
        c = rem.pop(t)
        nd, comp, rm = t
        for lrm, i in lead_index.get(comp, ()):
            if all(map(le, lrm, rm)):
                break
        else:
            out[t] = c
            if first:
                break
            continue
        row = rows[i]
        a = row.lc
        g = gcd(a, c)
        if g != a:
            f = a // g
            scale *= f
            for d in (rem, out) if rep is None else (rem, out, rep):
                for k in d:
                    d[k] *= f
        q = c // g
        ds = row.lead[0] - nd
        s = tuple(map(sub, rm, row.lead[2]))
        _isub_scaled(rem, itertools.islice(row.vec.items(), 1, None), q, ds, s)
        if rep is not None:
            _isub_scaled(rep, row.rep.items(), q, ds, s)
    return out, scale


# ---------------------------------------------------------------------------
# the Buchberger engine

class GroebnerEngine:
    """Incremental Buchberger over a graded free module.

    Generators enter as flat dicts over Q; generator i is stored as the
    primitive integer vector gen_scales[i] * g_i.  With track=True every
    basis row carries its representation in terms of the stored
    generators, and S-pairs that reduce to zero are collected as
    syzygies of them.  The pairs the Gebauer-Moeller criteria prove
    redundant are dropped (`_update_pairs`): the kept ones still give a
    Groebner basis and, tracked, a generating set of the syzygies.  With
    every_pair=True each pair is processed, for callers whose output is
    one particular presentation.  Every processed S-pair is charged to
    the session that is current when the engine is built.
    """

    def __init__(self, module: FreeModule, track: bool = False,
                 every_pair: bool = False):
        self.module = module
        self.track = track
        self.every_pair = every_pair
        self.session = session.current()
        self.rows: list[_Row] = []
        self._lead_index: dict[int, list] = {}  # comp -> [(lead rm, row_idx)]
        self._pairs: list = []                  # heap of (deg, i, j, lcm)
        self._pairs_done = 0
        self.gen_degrees: list[int] = []
        self.gen_scales: list[Fraction] = []
        self.syzygies: list[dict] = []          # integer rep vecs

    # -- basis growth --------------------------------------------------
    def _append_row(self, vec, rep):
        row = _Row(vec, rep)
        idx = len(self.rows)
        self.rows.append(row)
        _, comp, lrm = row.lead
        self._lead_index.setdefault(comp, []).append((lrm, idx))
        new = [(tuple(map(max, other.lead[2], lrm)), j)
               for j, other in enumerate(self.rows[:-1]) if other.lead[1] == comp]
        if not self.every_pair:
            new = self._update_pairs(new, comp, lrm)
        shift = self.module.shifts[comp]
        for lcm_rm, j in new:
            heapq.heappush(self._pairs, (sum(lcm_rm) + shift, j, idx, lcm_rm))
        return idx

    def _update_pairs(self, new, comp, lrm):
        """Gebauer-Moeller criteria for the new lead lrm in component comp
        (Becker-Weispfenning, Groebner Bases, UPDATE): drops the pending
        pairs it makes redundant and returns the new pairs (lcm, j) worth
        keeping.

        A pending pair (a, b) whose lcm lrm divides goes, unless its lcm
        equals that of (a, h) or (b, h); of the new pairs, one per minimal
        lcm stays.  Each dropped pair's lead syzygy is a combination of
        kept ones.  The coprime-lead criterion holds only for the basis of
        an ideal: its pairs reduce to zero, but their Koszul syzygies are
        no combination of others (tracked, (x, y, z) would lose all of
        them), and in S^2 the pair of (x, y) and (y, x) has coprime leads
        and yields (0, x^2 - y^2).  Every pair that justifies a deletion
        has an lcm dividing the deleted one's, so no higher degree, and a
        completion through any degree still yields the basis truncated
        there.
        """
        rows, pairs = self.rows, self._pairs
        pending = [entry for entry in pairs
                   if rows[entry[1]].lead[1] != comp
                   or not all(map(le, lrm, entry[3]))
                   or tuple(map(max, rows[entry[1]].lead[2], lrm)) == entry[3]
                   or tuple(map(max, rows[entry[2]].lead[2], lrm)) == entry[3]]
        if len(pending) < len(pairs):
            pairs[:] = pending
            heapq.heapify(pairs)
        ideal = self.module.rank == 1 and not self.track
        degree = sum(lrm)
        kept, coprime = [], set()
        for k, (lcm_gh, j) in enumerate(new):
            if ideal and sum(lcm_gh) == degree + sum(rows[j].lead[2]):
                coprime.add(j)      # kept only to cover the pairs above it
            elif any(all(map(le, other, lcm_gh))
                     for other, _ in itertools.chain(new[k + 1:], kept)):
                continue
            kept.append((lcm_gh, j))
        return [(lcm_gh, j) for lcm_gh, j in kept if j not in coprime]

    def _insert(self, vec, rep):
        """Reduce the integer vec, whose representation is rep (None
        untracked); keep the remainder as a new row, or record rep as a
        syzygy when it is 0."""
        rem, _ = _reduce(vec, self.rows, self._lead_index, rep)
        if rem:
            self._append_row(rem, rep)
        elif rep:
            self.syzygies.append(rep)

    def add_generator(self, vec, degree):
        """Feed one original generator (flat dict) of the given degree;
        returns its index."""
        gi = len(self.gen_degrees)
        self.gen_degrees.append(degree)
        k, ivec = _encode(vec, self.module.shifts)
        self.gen_scales.append(k)
        rep = {(-degree, gi, mono_zero(self.module.nvars)): 1} if self.track else None
        self._insert(ivec, rep)
        return gi

    def complete(self, max_degree=None):
        """Process pending S-pairs (Buchberger), all of them or only those
        of degree <= max_degree; the heap yields pairs by degree."""
        pairs = self._pairs
        while pairs and (max_degree is None or pairs[0][0] <= max_degree):
            self._pairs_done += 1
            self.session.charge_pair()
            _, i, j, lcm_rm = heapq.heappop(pairs)
            ri, rj = self.rows[i], self.rows[j]
            si = tuple(map(sub, lcm_rm, ri.lead[2]))
            sj = tuple(map(sub, lcm_rm, rj.lead[2]))
            dsi, dsj = sum(si), sum(sj)
            # cofactors (a_j/g, -a_i/g) cancel the lead terms
            g = gcd(ri.lc, rj.lc)
            fi, fj = rj.lc // g, ri.lc // g
            vec = {}
            _isub_scaled(vec, ri.vec.items(), -fi, dsi, si)
            _isub_scaled(vec, rj.vec.items(), fj, dsj, sj)
            rep = None
            if self.track:
                rep = {}
                _isub_scaled(rep, ri.rep.items(), -fi, dsi, si)
                _isub_scaled(rep, rj.rep.items(), fj, dsj, sj)
            self._insert(vec, rep)

    @property
    def done(self) -> bool:
        """Whether no S-pair is pending."""
        return not self._pairs

    # -- extraction ----------------------------------------------------
    def reduces_to_zero(self, vec) -> bool:
        """Whether the flat dict vec reduces to zero modulo the rows; stops
        at the first irreducible term."""
        _, ivec = _encode(vec, self.module.shifts)
        return not _reduce(ivec, self.rows, self._lead_index, first=True)[0]

    def original_syzygies(self):
        """The recorded syzygies over the original generators, one at a
        time: integer vectors in internal keys, each a positive multiple
        of a syzygy."""
        den = lcm(*(k.denominator for k in self.gen_scales))
        mult = [k.numerator * (den // k.denominator) for k in self.gen_scales]
        for syz in self.syzygies:
            yield {t: c * mult[t[1]] for t, c in syz.items()}

    def reduced_basis_vecs(self):
        """Deterministic reduced Groebner basis as monic flat dicts."""
        rows = self.rows
        # keep rows whose lead is not divisible by another kept lead
        order = sorted(range(len(rows)), key=lambda i: rows[i].lead, reverse=True)
        kept = []
        for i in order:
            _, comp, rm = rows[i].lead
            if not any(k[1] == comp and all(map(le, k[2], rm)) for k in kept):
                kept.append(rows[i].lead)
        kept_rows = [r for r in rows if r.lead in kept]
        # tail-reduce each against the others
        out = []
        for r in kept_rows:
            others = [s for s in kept_rows if s is not r]
            red, _ = _reduce(dict(r.vec), others, _index_by_lead(others))
            if red:
                out.append(red)
        out.sort(key=min, reverse=True)
        return [_decode(v, v[min(v)]) for v in out]


def _monic_unique(vecs, module: FreeModule):
    """The nonzero integer vecs (internal keys over module's shifts) as
    monic ModuleElements of module, first copy of each."""
    out = []
    seen = set()
    for vec in vecs:
        if not vec:
            continue
        el = ModuleElement(module, _decode(vec, vec[min(vec)]))
        k = el.canonical_key()
        if k not in seen:
            seen.add(k)
            out.append(el)
    return out


# ---------------------------------------------------------------------------
# public operations

def groebner_basis(gens, module: FreeModule | None = None):
    """Reduced Groebner basis of the submodule generated by gens."""
    gens = list(gens)
    if module is None:
        if not gens:
            raise StructuralError("empty generator list without explicit module")
        module = gens[0].module
    eng = GroebnerEngine(module, track=False)
    for g in gens:
        if g.module != module:
            raise StructuralError("generators live in different free modules")
        if not g.is_zero():
            eng.add_generator(g.vec, g.degree())
    eng.complete()
    return [ModuleElement(module, v) for v in eng.reduced_basis_vecs()]


def normal_form(v: ModuleElement, gb) -> ModuleElement:
    """Remainder of v modulo a Groebner basis gb."""
    shifts = v.module.shifts
    rows = [_Row(_encode(g.vec, shifts)[1]) for g in gb]
    k, ivec = _encode(v.vec, shifts)
    out, scale = _reduce(ivec, rows, _index_by_lead(rows))
    # scale * k * v = out + (a combination of gb)
    return ModuleElement(v.module, _decode(out, scale * k))


def syzygy_module(gens, module: FreeModule | None = None):
    """Generators of the first syzygy module of the given generator list.

    Returns (syzygies, F) where F is the free module on the generators
    (shifts = generator degrees) and each syzygy is a ModuleElement of F.
    """
    gens = list(gens)
    if module is None:
        if not gens:
            raise StructuralError("empty generator list without explicit module")
        module = gens[0].module
    F = FreeModule(module.nvars, [0 if g.is_zero() else g.degree() for g in gens])
    return kernel_of_map(gens, F, module), F


def kernel_of_map(columns, source: FreeModule, target: FreeModule,
                  relations=None):
    """Kernel of the graded map source -> target/(relations).

    columns[j] is the image of the j-th basis vector of source, as a
    ModuleElement of target.  relations is an optional list of
    (row_index, Polynomial q) meaning the target is divided by q*e_row.
    Computed by augmenting with the relation columns: the syzygies of
    columns and relations, projected onto the source coordinates.

    The relations enter with an empty representation, so the rows carry
    representation terms on the source coordinates only.  That projection
    is linear, so it commutes with every rescaling and subtraction of the
    reduction, and the reducers are chosen by row leads alone: each
    recorded syzygy is a positive multiple of the projection of the one
    full representations would give, and the monic kernel is the same.
    """
    columns = list(columns)
    if len(columns) != source.rank:
        raise StructuralError("column count does not match source rank")
    eng = GroebnerEngine(target, track=True, every_pair=True)
    for j, col in enumerate(columns):
        eng.add_generator(col.vec, source.shifts[j])
    for (r, q) in (relations or []):
        eng._insert(_encode({(r, m): c for m, c in q.terms.items()},
                            target.shifts)[1], {})
    eng.complete()
    return _monic_unique(eng.original_syzygies(), source)


def _minimal_level(gens, module: FreeModule):
    """One module of a minimal resolution, built by one tracked engine.

    The nonzero candidates are taken by increasing (degree, canonical
    key), and each is kept when it is not in the submodule generated by
    those kept before it (graded Nakayama).  Before a candidate of degree
    d is tested, the engine is completed only through degree d: S-pairs
    of higher degree cannot change the basis in degrees <= d, so this
    truncated basis decides membership of the candidate exactly, and the
    kept list equals that of a full completion after every kept element.
    The last, full completion gives the syzygies of the kept generators.

    Returns (kept, F, syzygies, engine): F is the free module on the kept
    generators (shifts = their degrees), the syzygies are monic, distinct
    elements of F, and the completed engine holds a Groebner basis of the
    submodule.
    """
    ordered = sorted((g for g in gens if not g.is_zero()),
                     key=lambda g: (g.degree(), g.canonical_key()))
    eng = GroebnerEngine(module, track=True)
    kept = []
    for g in ordered:
        d = g.degree()
        eng.complete(max_degree=d)
        if not eng.reduces_to_zero(g.vec):
            kept.append(g)
            eng.add_generator(g.vec, d)
    eng.complete()
    F = FreeModule(module.nvars, eng.gen_degrees)
    return kept, F, _monic_unique(eng.original_syzygies(), F), eng


def minimalize_generators(gens, module: FreeModule | None = None):
    """Minimal homogeneous generating subset (graded Nakayama).

    Processes candidates by increasing degree and keeps those not in the
    submodule generated by the generators kept so far.
    """
    gens = [g for g in gens if not g.is_zero()]
    if module is None:
        if not gens:
            return []
        module = gens[0].module
    return _minimal_level(gens, module)[0]


def lift(v: ModuleElement, gens):
    """Express v as sum q_i * gens[i]; returns [Polynomial] or None.

    None means v is not in the submodule generated by gens.
    """
    module = v.module
    eng = GroebnerEngine(module, track=True, every_pair=True)
    for g in gens:
        eng.add_generator(g.vec, 0 if g.is_zero() else g.degree())
    eng.complete()
    k, ivec = _encode(v.vec, module.shifts)
    rep = {}
    rem, scale = _reduce(ivec, eng.rows, eng._lead_index, rep)
    if rem:
        return None
    # 0 = scale * k * v + sum rep_i * gen_scales[i] * gens[i]
    total = -scale * k
    coeffs = [{} for _ in gens]
    for (_, i, rm), c in rep.items():
        coeffs[i][rm[::-1]] = c * eng.gen_scales[i] / total
    return [Polynomial(module.nvars, t) for t in coeffs]


# ---------------------------------------------------------------------------
# resolutions

class BettiTable:
    """Graded Betti numbers beta_{i,d} of a minimal resolution, held
    read-only as counts {(i, d): beta_{i,d}}; pd, reg and the Hilbert
    series are read off them."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts = MappingProxyType(dict(counts))

    @property
    def pd(self) -> int:
        return max((i for i, _ in self.counts), default=0)

    @property
    def reg(self):
        return max((d - i for i, d in self.counts), default=None)

    def beta(self, i: int, d: int) -> int:
        return self.counts.get((i, d), 0)

    def shifted(self, k: int) -> "BettiTable":
        return BettiTable({(i, d + k): c for (i, d), c in self.counts.items()})

    def hilbert_numerator(self) -> dict:
        """{d: sum_i (-1)^i beta_{i,d}}, without zero coefficients: the
        Hilbert series is this polynomial over (1-x)^nvars."""
        num = Counter()
        for (i, d), c in self.counts.items():
            num[d] += (-1) ** i * c
        return {d: c for d, c in num.items() if c}

    def hilbert_series(self, nvars: int) -> RationalSeries:
        """Alternating sum of shift generating functions over (1-x)^nvars."""
        return RationalSeries(LaurentPolynomial(self.hilbert_numerator()),
                              nvars)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.counts == other.counts

    def to_json(self):
        rows = [{"i": i, "d": d, "count": c}
                for (i, d), c in sorted(self.counts.items())]
        return {"betti": rows, "pd": self.pd, "reg": self.reg}

    def __repr__(self):
        rows = ", ".join(f"b[{i},{d}]={c}"
                         for (i, d), c in sorted(self.counts.items()))
        return f"BettiTable({rows}; pd={self.pd}, reg={self.reg})"


class Resolution:
    """Minimal graded free resolution of a submodule of a free module.

    modules[0..m] are the free modules F_i; diffs[i-1] holds the columns
    of d_i : F_i -> F_{i-1} as ModuleElements of F_{i-1}.  `generators`
    are the minimal generators of the resolved module (images of the F_0
    basis in the original ambient module).
    """

    __slots__ = ("nvars", "modules", "diffs", "generators")

    def __init__(self, nvars, modules, diffs, generators):
        self.nvars = nvars
        self.modules = list(modules)
        self.diffs = list(diffs)
        self.generators = list(generators)

    @property
    def pd(self) -> int:
        return self.betti().pd

    @property
    def reg(self):
        return self.betti().reg

    def betti(self) -> BettiTable:
        return BettiTable(Counter((i, s) for i, F in enumerate(self.modules)
                                  for s in F.shifts))

    def audit(self):
        """Check d∘d = 0 and minimality (no nonzero constant entries)."""
        for cols in self.diffs:
            for col in cols:
                for p in col.components():
                    for m, c in p.terms.items():
                        if mono_deg(m) == 0 and c:
                            raise CertificateError(
                                "non-minimal resolution: constant entry")
        for i in range(1, len(self.diffs)):
            prev = self.diffs[i - 1]
            for col in self.diffs[i]:
                acc = {}
                for j, p in enumerate(col.components()):
                    if p.is_zero():
                        continue
                    for m, c in p.terms.items():
                        _iadd_scaled(acc, prev[j].vec, c, m)
                if acc:
                    raise CertificateError("resolution differentials do not compose to zero")


def minimal_free_resolution(gens,
                            module: FreeModule | None = None) -> Resolution:
    """Minimal graded free resolution of the submodule generated by gens.

    Each free module comes from one `_minimal_level` pass over the
    previous level's syzygies: minimal generators (graded Nakayama) and
    their syzygies from the same tracked engine.  Taking minimal
    generators at every level makes the resolution minimal; the
    no-constant-entry invariant is auditable afterwards.  The Hilbert
    series of the Betti table is certified against that of the level-0
    basis's lead terms (`_certify_hilbert`).
    """
    gens = [g for g in gens if not g.is_zero()]
    if module is None:
        if not gens:
            raise StructuralError("empty generator list without explicit module")
        module = gens[0].module
    gens0, F, syz, eng = _minimal_level(gens, module)
    modules = [F]
    diffs = []
    while syz:
        # Hilbert's syzygy theorem: a submodule of a free module over
        # nvars variables has projective dimension at most nvars - 1
        if len(modules) >= module.nvars:
            raise CertificateError(
                f"resolution longer than the Hilbert syzygy bound "
                f"{module.nvars - 1}")
        cols, F, syz, _ = _minimal_level(syz, F)
        diffs.append(cols)
        modules.append(F)
    res = Resolution(module.nvars, modules, diffs, gens0)
    _certify_hilbert(res, eng.rows, module)
    return res


def _certify_hilbert(res: Resolution, rows, module: FreeModule):
    """Check Hilb(M) from the resolution's Betti table against Hilb of the
    lead module of the level-0 basis; a mismatch is a CertificateError.

    A Groebner basis G of M has Hilb(M) = Hilb(LT(G)) (Macaulay), and
    LT(G) is one monomial ideal J_j per component, so over (1-t)^n the
    numerator is the sum over components of t^{s_j} (1 - N(J_j)), with
    Hilb(S/J) = N(J) / (1-t)^n.  Neither side uses the other's data: the
    Betti table comes from every level's syzygies, the leads from the
    level-0 basis alone.
    """
    ideals = {}
    for row in rows:
        _, comp, rm = row.lead
        ideals.setdefault(comp, []).append(rm)
    lead_num = Counter()
    for comp, monos in ideals.items():
        lead_num[module.shifts[comp]] += 1
        for d, c in _quotient_numerator(_minimal_monomials(monos)).items():
            lead_num[d + module.shifts[comp]] -= c
    lead_num = {d: c for d, c in lead_num.items() if c}
    betti_num = res.betti().hilbert_numerator()
    if lead_num != betti_num:
        n = module.nvars
        raise CertificateError(
            f"Hilbert series of the resolution, "
            f"{RationalSeries(LaurentPolynomial(betti_num), n)}, differs from "
            f"that of the level-0 lead module, "
            f"{RationalSeries(LaurentPolynomial(lead_num), n)}")


def _minimal_monomials(monos):
    """The minimal generators among the exponent tuples monos."""
    out = []
    for m in sorted(set(monos), key=sum):
        if not any(all(map(le, k, m)) for k in out):
            out.append(m)
    return out


def _quotient_numerator(gens):
    """N(J) as {degree: coefficient}, where Hilb(S/J) = N(J) / (1-t)^n for
    the monomial ideal J minimally generated by the exponent tuples gens.

    Pairwise coprime generators give N = prod (1 - t^deg m).  Otherwise
    the pivot is a variable x_i that divides the most generators, and the
    exact sequence 0 -> S/(J : x_i)(-1) -> S/J -> S/(J + x_i) -> 0 gives
    N(J) = N(J + x_i) + t N(J : x_i) (Bigatti, Computation of Hilbert-
    Poincare series, JPAA 1997).  Both ideals have a smaller sum of
    generator degrees, so the recursion ends.
    """
    divides = Counter(i for m in gens for i, e in enumerate(m) if e)
    pivot = [i for i, count in divides.most_common(1) if count > 1]
    if not pivot:
        num = Counter({0: 1})
        for m in gens:
            d = sum(m)
            for k, c in list(num.items()):
                num[k + d] -= c
        return num
    i = pivot[0]
    x_i = tuple(int(j == i) for j in range(len(gens[0])))
    num = _quotient_numerator([x_i] + [m for m in gens if not m[i]])
    colon = _minimal_monomials(m[:i] + (max(m[i] - 1, 0),) + m[i + 1:]
                               for m in gens)
    for k, c in _quotient_numerator(colon).items():
        num[k + 1] += c
    return num


def hilbert_series(res: Resolution) -> RationalSeries:
    """Hilbert series of the module res resolves, from its Betti table."""
    return res.betti().hilbert_series(res.nvars)


def free_module_hilbert(nvars: int, shifts) -> RationalSeries:
    return BettiTable(Counter((0, s) for s in shifts)).hilbert_series(nvars)


# ---------------------------------------------------------------------------
# Artinian quotients

def quotient_colength(ideal_gens, nvars: int | None = None):
    """Colength and Hilbert function of S/I for a homogeneous ideal I.

    Returns (colength, {degree: dimension}) when the quotient is finite
    dimensional over Q, None otherwise.

    dim (S/I)_k is the number of standard monomials of degree k, those
    no lead term of a Groebner basis divides (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, ch. 9).  One engine is completed one
    degree at a time: S-pairs of degree > k only add rows of degree > k,
    so the leads of the basis completed through degree k generate the
    lead ideal in every degree <= k and count (S/I)_k exactly.  The
    divisors of a standard monomial are standard, so those of degree k
    are the standard multiples x_i * m of those of degree k - 1.  S/I is
    generated by 1 in degree 0, so (S/I)_{k+1} = S_1 (S/I)_k: once a
    degree is empty, so is every higher one, and the count is complete.
    Once no S-pair is pending the basis is complete, and S/I is finite
    dimensional iff every variable has a pure-power lead.
    """
    ideal_gens = [g for g in ideal_gens if not g.is_zero()]
    if nvars is None:
        if not ideal_gens:
            return None
        nvars = ideal_gens[0].nvars
    eng = GroebnerEngine(FreeModule(nvars, [0]))
    for g in ideal_gens:
        if not g.is_homogeneous():
            raise StructuralError("ideal generator is not homogeneous")
        eng.add_generator({(0, m): c for m, c in g.terms.items()}, g.degree())
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    standard = {mono_zero(nvars)}
    hf = {}
    k = 0
    while True:
        eng.complete(max_degree=k)
        # row leads are reversed monomials, and `standard` lives in the
        # same reversed coordinates: degrees, divisibility and counts agree
        leads = [r.lead[2] for r in eng.rows]
        standard = {m for m in standard
                    if not any(all(map(le, lm, m)) for lm in leads)}
        if not standard:
            return sum(hf.values()), hf
        hf[k] = len(standard)
        if eng.done:
            pure = {i for lm in leads for i, e in enumerate(lm)
                    if 0 < e == sum(lm)}
            if len(pure) < nvars:
                return None
        k += 1
        standard = {mono_mul(m, u) for m in standard for u in units}


def poly_dimension(nvars: int, d: int) -> int:
    """dim_Q of the degree-d part of Q[x1..xl]."""
    if d < 0:
        return 0
    return comb(nvars + d - 1, d)
