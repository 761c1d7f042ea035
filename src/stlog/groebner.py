"""Groebner bases, syzygies and minimal free resolutions for graded
submodules of free S-modules, S = Q[x1..xl].

The engine works on homogeneous elements of a graded free module with
generator shifts (the generator of S[-d] sits in degree d).  Monomial
order: graded reverse lex on monomials, extended position-over-term with
degree-first comparison using the shifts.  Buchberger with module
S-pairs; syzygies come from recording the representation of every basis
element in terms of the original generators and collecting the
relations produced by S-pairs that reduce to zero (Schreyer): g_i
enters as g_i + e_i, e_i a term in a component past the module's, which
never leads, so it rides along in every reduction step.  One reduction
loop, `_reduce`, serves the engine, `normal_form` and the reduced basis.
It pops each lead from a heap of the remainder's module keys and reads
each row's tail from items stored once.

Every engine follows one pair policy: it skips the S-pairs that the
Gebauer-Moeller criteria prove redundant (Gebauer-Moeller, On an
installation of Buchberger's algorithm, JSC 1988).  For syzygies this
holds because the criteria keep a generating set of the syzygies of the
lead terms, whose lifts generate Syz(G) (Schreyer), so the syzygies of
`kernel_of_map` still generate the kernel.  The coprime-lead criterion
drops the Koszul syzygies, so only an untracked engine over an ideal
uses it.

A minimal free resolution builds each of its modules with one tracked
engine (`_minimal_level`): the candidates are fed by increasing degree,
each is kept only if one reduction finds it outside the span of those
kept before it (graded Nakayama), and the same engine, completed at the
end, yields the syzygies of the kept generators, the next module's
candidates.  The same degree truncation gives the Hilbert function of an
Artinian quotient S/I (`quotient_colength`).

Fractions and tuples appear only at the boundary: a ModuleElement reads
as a flat dict {(component, monomial): Fraction}.  Inside the engine a
term is one int, a packed exponent vector whose integer order is the
module order (`ratpoly.PackedKeys`, after Monagan-Pearce), so a shift is
one addition and a lead test one subtraction and a mask.  A basis row is
a primitive integer vector, representation terms included, with
positive lead coefficient.  A syzygy leaves an engine as such a vector
too, in the keys of the free module on the generators, and is the next
engine's candidate as it is: only the kept generators and differentials
are decoded to Fractions, when they are read.  Reduction is
fraction-free (Geddes-Czapor-Labahn, Algorithms for Computer Algebra,
ch. 10): to cancel a term, the remainder is multiplied by a nonzero
integer instead of dividing the row by its lead coefficient.  Scaling
changes no lead term and no zero pattern, so the reducers, the S-pair
sequence and the monic outputs are exactly those of Fraction arithmetic
with monic rows, with one integer gcd per reduction step in place of one
per coefficient operation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import le
from types import MappingProxyType

from . import session
from .exceptions import CertificateError, StructuralError
from .ratpoly import (COMP_BITS, MAX_EXPONENT, LaurentPolynomial, PackedKeys,
                      Polynomial, RationalSeries, degree_overflow, mono_deg,
                      mono_mul, mono_zero)


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
            vec.update(((j, m), c) for m, c in p.terms.items())
        return ModuleElement(self, vec)


class ModuleElement:
    """Homogeneous (in all uses here) element of a graded free module.
    One built from packed = (ivec, k, keys), ivec = k * vec an integer
    vector in the PackedKeys keys of its module (`packed`), decodes `vec`
    when first read: an engine makes its syzygies so (`syzygy_elements`),
    primitive with k their positive lead, so they decode monic.  One
    built from Fractions packs itself when first asked."""

    __slots__ = ("module", "_vec", "_packed")

    def __init__(self, module: FreeModule, vec, packed=None):
        self.module = module
        self._packed = packed
        self._vec = None if packed else {t: c for t, c in vec.items() if c}

    @property
    def vec(self):
        if self._vec is None:
            self._vec = _decode(*self._packed)
        return self._vec

    def packed(self):
        """(ivec, k): the primitive integer vector ivec = k * vec, k > 0, in
        the packed keys of the module, where a term's degree counts the
        shift of its component; encoded once, as an engine over the
        module encodes it (`_encode`)."""
        if self._packed is None:
            keys = PackedKeys(self.module.nvars)
            k, ivec = _encode(self._vec, self.module, keys,
                              MAX_EXPONENT + min([0, *self.module.shifts]))
            self._packed = ivec, k, keys
        return self._packed[:2]

    def is_zero(self) -> bool:
        return not (self._packed[0] if self._vec is None else self._vec)

    def component(self, j: int) -> Polynomial:
        return Polynomial(self.module.nvars,
                          {m: c for (i, m), c in self.vec.items() if i == j})

    def components(self):
        return [self.component(j) for j in range(self.module.rank)]

    def degree(self):
        """Degree of a homogeneous element; None for zero."""
        if self._vec is None:
            ivec, _, keys = self._packed
            return keys.term(next(iter(ivec)))[0]
        if not self.vec:
            return None
        degs = {mono_deg(m) + self.module.shifts[i] for (i, m) in self.vec}
        if len(degs) != 1:
            raise StructuralError("element is not homogeneous")
        return degs.pop()

    def __eq__(self, other):
        return (isinstance(other, ModuleElement)
                and self.module == other.module and self.vec == other.vec)

    def __hash__(self):
        return hash((self.module, frozenset(self.vec.items())))

    def __repr__(self):
        comps = ", ".join(str(p) for p in self.components())
        return f"({comps})"


# ---------------------------------------------------------------------------
# the engine's integer vectors
#
# A term (comp, mono) of a module with shifts is the packed key of
# (deg mono + shifts[comp], comp, mono) (`ratpoly.PackedKeys`), and a
# representation term x^m e_i that of (deg m + deg g_i, rank + i, m).
# Reduction never raises the top degree of a vector, so an engine that
# bounds the degree of each vector it encodes and of each S-pair keeps
# every exponent within its field.

_COMP_MASK = (1 << COMP_BITS) - 1


def _decode(ivec, scale, keys):
    """The flat dict {(comp, mono): Fraction} of ivec / scale."""
    return {keys.term(t)[1:]: Fraction(c, scale) for t, c in ivec.items()}


def _encode(vec, module, keys, cap):
    """(k, ivec): ivec = k * vec as a primitive integer vector in packed
    keys, for a flat dict vec {(comp, mono): rational} of module; a term
    of degree above cap is a ResourceBudgetError."""
    den = lcm(*(c.denominator for c in vec.values()))
    ivec = {}
    for (comp, m), c in vec.items():
        d = sum(m) + module.shifts[comp]
        if d > cap:
            raise degree_overflow(d)
        ivec[keys.key(d, comp, m)] = c.numerator * (den // c.denominator)
    g = gcd(*ivec.values()) or 1
    if g != 1:
        for t in ivec:
            ivec[t] //= g
    return Fraction(den, g), ivec


def _isub_scaled(dst, items, q, delta):
    """dst -= q * x^s * (the terms in items), in place, where x^s shifts
    a key by delta."""
    for t, c in items:
        t += delta
        v = dst.get(t, 0) - q * c
        if v:
            dst[t] = v
        else:
            del dst[t]


class _Row:
    __slots__ = ("lead", "lc", "comp", "mono", "tail", "keys", "rank")

    def __init__(self, vec, keys, rank):
        """A basis row from an integer vector: divided by its content, with
        positive lead.  A tracked engine's vectors are homogeneous, so
        their representation terms (components rank and above) sort after
        the module terms, and min(vec) is the lead.  tail holds every
        other term, once."""
        lead = min(vec)
        g = gcd(*vec.values())
        if vec[lead] < 0:
            g = -g
        self.lead = lead
        _, self.comp, self.mono = keys.term(lead)
        self.lc = vec[lead] // g
        self.tail = tuple([(t, c // g) for t, c in vec.items() if t != lead])
        self.keys, self.rank = keys, rank

    @property
    def vec(self):
        """The module terms, lead first."""
        cs = self.keys.comp_shift
        comps, bound = _COMP_MASK << cs, self.rank << cs
        return {t: c for t, c in ((self.lead, self.lc), *self.tail)
                if t & comps < bound}


def _index_by_lead(rows):
    """{comp: [(lead key, row index)]} for a list of rows."""
    index = {}
    for idx, r in enumerate(rows):
        index.setdefault(r.comp, []).append((r.lead, idx))
    return index


def _reduce(rem, rows, lead_index, keys, rank):
    """Fraction-free normal form of the integer vector rem against rows.

    rem is consumed.  To remove a term with coefficient c by a row with
    lead coefficient a, everything is multiplied by f = a/g, g = gcd(a, c),
    and q = c/g times the shifted row is subtracted.  Returns (out, scale)
    with scale * rem = out + (an integer combination of rows).  The keys
    of rem sit in a heap, so each step pops its lead instead of searching
    for it (Monagan-Pearce, Sparse polynomial division using a heap, JSC
    2011): a term that cancels stays in rem as 0 until it is popped, and
    a key enters the heap only when it enters rem, so it is never pushed
    twice, and the terms a step adds all follow the lead it removes.
    No row leads in a component rank or above: the representation terms
    there never enter the heap, and follow the module terms in out, in
    the order they first appeared.
    """
    out = {}
    scale = 1
    guard, cs = keys.guard, keys.comp_shift
    comps, bound = _COMP_MASK << cs, rank << cs
    heap = [t for t in rem if t & comps < bound]
    heapify(heap)
    while heap:
        t = heappop(heap)
        c = rem.pop(t)
        if not c:
            continue
        tg = t | guard
        for lead, i in lead_index.get((t >> cs) & _COMP_MASK, ()):
            if (tg - lead) & guard == guard:
                break
        else:
            out[t] = c
            continue
        row = rows[i]
        a = row.lc
        g = gcd(a, c)
        f = a // g
        if f != 1:
            scale *= f
            rem = {k: v * f for k, v in rem.items()}
            out = {k: v * f for k, v in out.items()}
        q = c // g
        delta = t - lead
        get = rem.get
        for k, v in row.tail:
            k += delta
            x = get(k)
            if x is None:
                rem[k] = -q * v
                if k & comps < bound:
                    heappush(heap, k)
            else:
                rem[k] = x - q * v
    out.update((t, c) for t, c in rem.items() if c)
    return out, scale


# ---------------------------------------------------------------------------
# the Buchberger engine

class GroebnerEngine:
    """Incremental Buchberger over a graded free module.

    Generator i enters as a flat dict over Q or as an integer vector, and
    is stored as the integer vector gen_scales[i] * g_i, with track=True
    plus e_i, the term of degree deg g_i in component rank + i.  So every
    basis row carries its representation in terms of the stored
    generators, and an S-pair whose module terms reduce to zero leaves a
    syzygy of them.  One pair policy serves every engine: the pairs the
    Gebauer-Moeller criteria prove redundant are dropped (`_update_pairs`),
    and the kept ones still give a Groebner basis and, tracked, a
    generating set of the syzygies.  Every processed S-pair is
    charged to the session that is current when the engine is built.  A
    vector or S-pair of degree above `cap` is a ResourceBudgetError
    (`_encode`).
    """

    def __init__(self, module: FreeModule, track: bool = False):
        self.module = module
        self.track = track
        self.session = session.current()
        self.keys = PackedKeys(module.nvars)
        self.cap = MAX_EXPONENT + min([0, *module.shifts])  # see `_encode`
        self.rows: list[_Row] = []
        self._lead_index: dict[int, list] = {}  # comp -> [(lead key, row_idx)]
        self._pairs: list = []                  # heap of (deg, i, j, lcm mono)
        self._pairs_done = 0
        self.gen_degrees: list[int] = []
        self.gen_scales: list[Fraction] = []
        self.syzygies: list[dict] = []          # integer representations

    # -- basis growth --------------------------------------------------
    def _append_row(self, vec):
        row = _Row(vec, self.keys, self.module.rank)
        idx = len(self.rows)
        self.rows.append(row)
        comp, lm = row.comp, row.mono
        self._lead_index.setdefault(comp, []).append((row.lead, idx))
        new = self._update_pairs(
            [(tuple(map(max, other.mono, lm)), j)
             for j, other in enumerate(self.rows[:-1]) if other.comp == comp],
            comp, lm)
        shift = self.module.shifts[comp]
        for lcm_m, j in new:
            heappush(self._pairs, (sum(lcm_m) + shift, j, idx, lcm_m))
        return idx

    def _update_pairs(self, new, comp, lm):
        """Gebauer-Moeller criteria for the new lead lm in component comp
        (Becker-Weispfenning, Groebner Bases, UPDATE): drops the pending
        pairs it makes redundant and returns the new pairs (lcm, j) worth
        keeping.  A pending pair (a, b) whose lcm lm divides goes, unless
        its lcm equals that of (a, h) or (b, h); of the new pairs, one per
        minimal lcm stays.  Each dropped pair's lead syzygy is a
        combination of kept ones.  The coprime-lead criterion holds only
        for the basis of an ideal: tracked, its Koszul syzygies are no
        combination of others, and in S^2 the pair of (x, y) and (y, x)
        has coprime leads and yields (0, x^2 - y^2).  A pair justifying a
        deletion has an lcm dividing the deleted one's, so a completion
        through any degree still yields the basis truncated there.
        """
        rows, pairs = self.rows, self._pairs
        pending = [entry for entry in pairs
                   if rows[entry[1]].comp != comp
                   or not all(map(le, lm, entry[3]))
                   or tuple(map(max, rows[entry[1]].mono, lm)) == entry[3]
                   or tuple(map(max, rows[entry[2]].mono, lm)) == entry[3]]
        if len(pending) < len(pairs):
            pairs[:] = pending
            heapify(pairs)
        ideal = self.module.rank == 1 and not self.track
        degree = sum(lm)
        kept, coprime = [], set()
        for k, (lcm_gh, j) in enumerate(new):
            if ideal and sum(lcm_gh) == degree + sum(rows[j].mono):
                coprime.add(j)      # kept only to cover the pairs above it
            elif any(all(map(le, other, lcm_gh))
                     for other, _ in itertools.chain(new[k + 1:], kept)):
                continue
            kept.append((lcm_gh, j))
        return [(lcm_gh, j) for lcm_gh, j in kept if j not in coprime]

    def _insert(self, vec, syzygy=True):
        """Reduce the integer vec; keep the remainder as a new row and
        return True if a module term is left, or else record what is left
        as a syzygy (if syzygy and nonzero)."""
        rank = self.module.rank
        rem, _ = _reduce(vec, self.rows, self._lead_index, self.keys, rank)
        if rem and self.keys.comp(next(iter(rem))) < rank:
            self._append_row(rem)
            return True
        if rem and syzygy:
            self.syzygies.append(rem)
        return False

    def add_generator(self, vec, degree):
        """Feed one original generator (flat dict) of the given degree;
        returns its index."""
        k, ivec = _encode(vec, self.module, self.keys, self.cap)
        return self.add_vector(ivec, degree, k)

    def add_vector(self, ivec, degree, scale, minimal=False):
        """Feed the original generator ivec / scale (ivec an integer vector
        in packed keys, consumed; scale > 0) of the given degree; returns
        its index.  With minimal=True one that reduces to zero is dropped
        instead and None returned."""
        if degree > self.cap:
            raise degree_overflow(degree)
        gi = len(self.gen_degrees)
        if self.track:
            ivec[self.keys.key(degree, self.module.rank + gi,
                               mono_zero(self.module.nvars))] = 1
        if not self._insert(ivec, syzygy=not minimal) and minimal:
            return None
        self.gen_degrees.append(degree)
        self.gen_scales.append(scale)
        if self.track:
            self.cap = min(self.cap, MAX_EXPONENT + degree)
        return gi

    def complete(self, max_degree=None):
        """Process pending S-pairs (Buchberger), all of them or only those
        of degree <= max_degree; the heap yields pairs by degree."""
        pairs = self._pairs
        while pairs and (max_degree is None or pairs[0][0] <= max_degree):
            self._pairs_done += 1
            self.session.charge_pair()
            deg, i, j, lcm_m = heappop(pairs)
            if deg > self.cap:
                raise degree_overflow(deg)
            ri, rj = self.rows[i], self.rows[j]
            lcm_key = self.keys.key(deg, ri.comp, lcm_m)
            di, dj = lcm_key - ri.lead, lcm_key - rj.lead
            # cofactors (a_j/g, -a_i/g) cancel the lead terms, so the
            # S-vector is that of the tails
            g = gcd(ri.lc, rj.lc)
            fi, fj = rj.lc // g, ri.lc // g
            vec = {t + di: fi * c for t, c in ri.tail}
            _isub_scaled(vec, rj.tail, fj, dj)
            self._insert(vec)

    def interreduce(self, start=0):
        """Tail-reduce the rows of an untracked engine, keeping each lead,
        and make them primitive again.  The tails are irreducible by the
        leads of rows[:start], so a row is skipped, unchanged, when no lead
        of rows[start:] divides a tail term (none can if it is of lower
        degree than all those leads)."""
        guard, comp, ds = self.keys.guard, self.keys.comp, self.keys.deg_shift
        rank = self.module.rank
        new = _index_by_lead(self.rows[start:])
        low = max((r.lead >> ds for r in self.rows[start:]), default=0)
        for i, r in enumerate(self.rows):
            if r.lead >> ds > low or not any(
                    ((t | guard) - lead) & guard == guard
                    for t, _ in r.tail for lead, _ in new.get(comp(t), ())):
                continue
            out, scale = _reduce(dict(r.tail), self.rows, self._lead_index,
                                 self.keys, rank)
            out[r.lead] = r.lc * scale
            self.rows[i] = _Row(out, self.keys, rank)

    @property
    def done(self) -> bool:
        """Whether no S-pair is pending."""
        return not self._pairs

    # -- extraction ----------------------------------------------------
    def syzygy_elements(self, module: FreeModule):
        """The recorded syzygies over the original generators, first copy
        of each, as elements of module (the free module on them) holding
        primitive integer vectors with positive lead, equal for equal ones."""
        den = lcm(*(k.denominator for k in self.gen_scales))
        mult = [k.numerator * (den // k.denominator) for k in self.gen_scales]
        comp, distinct, rank = self.keys.comp, {}, self.module.rank
        shift = rank << self.keys.comp_shift
        for syz in self.syzygies:
            vec = {t - shift: c * mult[comp(t) - rank] for t, c in syz.items()}
            g = gcd(*vec.values()) * (-1 if vec[min(vec)] < 0 else 1)
            vec = {t: c // g for t, c in vec.items()}
            distinct.setdefault(frozenset(vec.items()), vec)
        return [ModuleElement(module, None, (vec, vec[min(vec)], self.keys))
                for vec in distinct.values()]

    def reduced_basis_vecs(self):
        """Deterministic reduced Groebner basis as monic flat dicts."""
        # keep rows whose lead is not divisible by another kept lead
        kept = []
        for r in sorted(self.rows, key=lambda r: r.lead, reverse=True):
            if not any(k.comp == r.comp and all(map(le, k.mono, r.mono))
                       for k in kept):
                kept.append(r)
        # tail-reduce each against the others
        out = []
        for r in kept:
            others = [s for s in kept if s is not r]
            red, _ = _reduce(r.vec, others, _index_by_lead(others),
                             self.keys, self.module.rank)
            if red:
                out.append(red)
        out.sort(key=min, reverse=True)
        return [_decode(v, v[min(v)], self.keys) for v in out]


# ---------------------------------------------------------------------------
# public operations

def groebner_basis(gens, module: FreeModule | None = None):
    """Reduced Groebner basis of the submodule generated by gens."""
    gens = list(gens)
    if module is None and not gens:
        raise StructuralError("empty generator list without explicit module")
    module = module or gens[0].module
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
    keys, rank = PackedKeys(v.module.nvars), v.module.rank
    rows = [_Row(g.packed()[0], keys, rank) for g in gb]
    ivec, k = v.packed()
    out, scale = _reduce(dict(ivec), rows, _index_by_lead(rows), keys, rank)
    # scale * k * v = out + (a combination of gb)
    return ModuleElement(v.module, _decode(out, scale * k, keys))


def syzygy_module(gens, module: FreeModule | None = None):
    """Generators of the first syzygy module of the given generator list.

    Returns (syzygies, F) where F is the free module on the generators
    (shifts = generator degrees) and each syzygy is a ModuleElement of F.
    """
    gens = list(gens)
    if module is None and not gens:
        raise StructuralError("empty generator list without explicit module")
    module = module or gens[0].module
    F = FreeModule(module.nvars, [0 if g.is_zero() else g.degree() for g in gens])
    return kernel_of_map(gens, F, module)[0], F


def kernel_of_map(columns, source: FreeModule, target: FreeModule,
                  relations=()):
    """Kernel of the graded map source -> target/(relations), and the
    Hilbert numerator of target/(columns + relations).

    columns[j] is the image of the j-th basis vector of source, and each
    relation an element of target that the target is divided by, all as
    ModuleElements of target, which enter as their integer vectors
    (`ModuleElement.packed`): a caller may build them as such.  Computed
    by augmenting with the relation columns: the syzygies of columns and
    relations, projected onto the source coordinates.

    Only the columns carry a representation term, so the rows carry
    representation terms on the source coordinates only.  That projection
    is linear and the reducers are chosen by row leads alone, so each
    recorded syzygy is a positive multiple of the projection of the one
    full representations would give, and the kept syzygies generate the
    kernel (Schreyer).  The engine's leads give the numerator.
    """
    columns = list(columns)
    if len(columns) != source.rank:
        raise StructuralError("column count does not match source rank")
    eng = GroebnerEngine(target, track=True)
    for j, col in enumerate(columns):
        ivec, k = col.packed()
        eng.add_vector(dict(ivec), source.shifts[j], k)
    for rel in relations:
        eng._insert(dict(rel.packed()[0]))
    eng.complete()
    return (eng.syzygy_elements(source),
            _quotient_numerator_of(eng.rows, target))


def _minimal_level(gens, module: FreeModule):
    """One module of a minimal resolution, built by one tracked engine.

    The nonzero candidates are taken by increasing (degree, canonical
    key) (`_canonical_order`), and each is kept when it is not in the
    submodule generated by those kept before it (graded Nakayama).
    Before a candidate of degree d is fed, the engine is completed only
    through degree d: S-pairs of higher degree cannot change the basis in
    degrees <= d, so the truncated basis decides membership exactly, in
    the one reduction that also inserts a kept candidate.  The last, full
    completion gives the syzygies of the kept generators.  A candidate is
    read as g = ivec / k (`ModuleElement.packed`), never decoded, and one
    that reduces to zero leaves no row and no syzygy.

    Returns (kept, F, syzygies, engine): F is the free module on the kept
    generators (shifts = their degrees), the syzygies are distinct
    elements of F, and the completed engine holds a Groebner basis of the
    submodule.
    """
    eng = GroebnerEngine(module, track=True)
    if any(g.module != module for g in gens):
        raise StructuralError("generators live in different free modules")
    kept = []
    for d, g in _canonical_order(gens, eng.keys):
        ivec, k = g.packed()
        eng.complete(max_degree=d)
        if eng.add_vector(dict(ivec), d, k, minimal=True) is not None:
            kept.append(g)
    eng.complete()
    F = FreeModule(module.nvars, eng.gen_degrees)
    return kept, F, eng.syzygy_elements(F), eng


def _canonical_order(gens, keys):
    """The nonzero candidates g = ivec / k as (degree, g), by increasing
    degree, then term by term: terms by (component, exponents with x1
    first), each as one integer read off its key (`_term_order`), and two
    coefficients ivec_t / k compared exactly by cross-multiplication, so
    no integer exceeds two coefficients times two scales.  Only a degree
    with two or more candidates builds their term lists."""
    order = _term_order(keys)

    def canonical(a, b):
        (ta, ka, _), (tb, kb, _) = a, b
        for (sa, x), (sb, y) in zip(ta, tb):
            if sa != sb:
                return -1 if sa < sb else 1
            x *= ka.denominator * kb.numerator
            y *= kb.denominator * ka.numerator
            if x != y:
                return -1 if x < y else 1
        return len(ta) - len(tb)

    groups = {}
    for g in gens:
        if not g.is_zero():
            groups.setdefault(g.degree(), []).append(g)
    for d in sorted(groups):
        group = groups[d]
        if len(group) > 1:
            terms = [(sorted((order(t), c) for t, c in ivec.items()), k, g)
                     for g in group for ivec, k in [g.packed()]]
            group = [g for *_, g in sorted(terms, key=cmp_to_key(canonical))]
        yield from ((d, g) for g in group)


def _term_order(keys):
    """The function that maps the key of a term (comp, m) to an integer
    whose order, among terms of one degree, is that of the tuples
    (comp, m_1, ..., m_n): the key keeps its degree and component fields
    and gets its exponent fields in reverse, x1 most significant.  The
    little-endian bytes of the exponent fields, read big-endian, reverse
    the fields but also the two bytes within each, which one masked swap
    puts back."""
    mono = keys.mono_mask
    size = mono.bit_length() // 8
    low = int.from_bytes(b"\x00\xff" * (size // 2), "big")   # 0x00ff per field

    def order(t):
        m = t & mono
        r = int.from_bytes(m.to_bytes(size, "little"), "big")
        return (t ^ m) | ((r & low) << 8) | ((r >> 8) & low)
    return order


def minimalize_generators(gens, module: FreeModule | None = None):
    """Minimal homogeneous generating subset (graded Nakayama), taken by
    increasing degree (`_minimal_level`)."""
    gens = [g for g in gens if not g.is_zero()]
    if module is None and not gens:
        return []
    return _minimal_level(gens, module or gens[0].module)[0]


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

    def betti(self) -> BettiTable:
        return BettiTable(Counter((i, s) for i, F in enumerate(self.modules)
                                  for s in F.shifts))

    def audit(self):
        """Check d∘d = 0 and minimality (no nonzero constant entry, i.e. no
        key with a zero monomial field) on the integer vectors of the
        columns (`ModuleElement.packed`).  Column j = ivec_j / b_j of d_i is
        composed as the integer vector ivec_j * L / b_j, for L the lcm of
        the numerators of all b_j; a term c x^m e_j of a column of d_{i+1}
        shifts it by its own key less the component j and its shift."""
        keys = PackedKeys(self.nvars)
        cs, ds, mono = keys.comp_shift, keys.deg_shift, keys.mono_mask
        for cols in self.diffs:
            for col in cols:
                if any(not t & mono for t in col.packed()[0]):
                    raise CertificateError(
                        "non-minimal resolution: constant entry")
        for F, prev, cols in zip(self.modules[1:], self.diffs, self.diffs[1:]):
            packed = [col.packed() for col in prev]
            common = lcm(*(b.numerator for _, b in packed))
            prev = [[(t, c * b.denominator * (common // b.numerator))
                     for t, c in ivec.items()] for ivec, b in packed]
            offset = [(j << cs) - (s << ds) for j, s in enumerate(F.shifts)]
            for col in cols:
                acc = {}
                for t, c in col.packed()[0].items():
                    j = keys.comp(t)
                    _isub_scaled(acc, prev[j], -c, t - offset[j])
                if acc:
                    raise CertificateError("resolution differentials do not compose to zero")


def minimal_free_resolution(gens, module: FreeModule) -> Resolution:
    """Minimal graded free resolution of the submodule generated by gens.

    Each free module comes from one `_minimal_level` pass over the
    previous level's syzygies: minimal generators (graded Nakayama) and
    their syzygies from the same tracked engine.  Taking minimal
    generators at every level makes the resolution minimal; the
    no-constant-entry invariant is auditable afterwards.  The Hilbert
    series of the Betti table is certified against that of the level-0
    basis's lead terms (`_certify_hilbert`).
    """
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

    Hilb(M) = Hilb(F) - Hilb(F/M) for F = module, and the leads give the
    second (`_quotient_numerator_of`).  Neither side uses the other's
    data: the Betti table comes from every level's syzygies, the leads
    from the level-0 basis alone.
    """
    lead_num = Counter(module.shifts)
    lead_num.subtract(_quotient_numerator_of(rows, module))
    lead_num = {d: c for d, c in lead_num.items() if c}
    betti_num = res.betti().hilbert_numerator()
    if lead_num != betti_num:
        n = module.nvars
        raise CertificateError(
            f"Hilbert series of the resolution, "
            f"{RationalSeries(LaurentPolynomial(betti_num), n)}, differs from "
            f"that of the level-0 lead module, "
            f"{RationalSeries(LaurentPolynomial(lead_num), n)}")


def _quotient_numerator_of(rows, module: FreeModule):
    """The numerator of Hilb(F/M) over (1-t)^n, for F = module and M the
    submodule with Groebner basis rows: by Macaulay, sum_j t^{s_j} N(J_j),
    J_j the ideal of the leads in component j (`_quotient_numerator`)."""
    ideals = [[] for _ in module.shifts]
    for row in rows:
        ideals[row.comp].append(row.mono)
    num = Counter()
    for shift, monos in zip(module.shifts, ideals):
        for d, c in _quotient_numerator(_minimal_monomials(monos)).items():
            num[d + shift] += c
    return num


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
    divides = [sum(map(bool, column)) for column in zip(*gens)]
    top = max(divides, default=0)
    if top < 2:
        num = {0: 1}
        for m in gens:
            d = sum(m)
            for k, c in list(num.items()):
                num[k + d] = num.get(k + d, 0) - c
        return num
    i = divides.index(top)
    x_i = tuple(int(j == i) for j in range(len(gens[0])))
    num = _quotient_numerator([x_i] + [m for m in gens if not m[i]])
    colon = _minimal_monomials(m[:i] + (max(m[i] - 1, 0),) + m[i + 1:]
                               for m in gens)
    for k, c in _quotient_numerator(colon).items():
        num[k + 1] = num.get(k + 1, 0) + c
    return num


# ---------------------------------------------------------------------------
# Artinian quotients

def quotient_colength(ideal_gens, nvars: int):
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
    degree is empty, so is every higher one.  Once no S-pair is pending,
    S/I is finite dimensional iff every variable has a pure-power lead.
    After each completion that added rows, the rows are tail-reduced
    against the new leads (`interreduce`): the leads and pairs stay, and
    the rows keep the small coefficients of a reduced basis.
    """
    ideal_gens = [g for g in ideal_gens if not g.is_zero()]
    eng = GroebnerEngine(FreeModule(nvars, [0]))
    for g in ideal_gens:
        if not g.is_homogeneous():
            raise StructuralError("ideal generator is not homogeneous")
        eng.add_generator({(0, m): c for m, c in g.terms.items()}, g.degree())
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    standard = {mono_zero(nvars)}
    hf = {}
    k = reduced = 0
    while True:
        eng.complete(max_degree=k)
        if len(eng.rows) > reduced:
            eng.interreduce(reduced)
            reduced = len(eng.rows)
        leads = [r.mono for r in eng.rows]
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
    return comb(nvars + d - 1, d) if d >= 0 else 0
