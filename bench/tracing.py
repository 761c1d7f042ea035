"""Outside-in tracing of stlog's layers, installed from the benchmark's side.

The program is not edited.  `install` replaces public functions of the
layer modules (cli, logmod, groebner, stpoly, lattice, verify) with
wrappers that record spans, and hooks `GroebnerEngine.complete` to read
the engine's counters after each completion.  A function is replaced at
every binding site, so the names that `logmod` and `stpoly` import from
`groebner` and `logmod` are traced too.  Something that no longer exists
is left alone, and the metrics that need it read `None`.

The leaf modules (arrangement, ratpoly, linalg) are not wrapped: their
cost lands in the self time of whichever layer called them.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, attribute path) of every span.  Engine completions are counted,
# not spanned, so their time stays in the self time of the calling function.
SPANS = (
    ("cli", "main"),
    ("logmod", "derivation_module"),
    ("logmod", "is_free"),
    ("logmod", "_audit_membership"),
    ("groebner", "kernel_of_map"),
    ("groebner", "minimalize_generators"),
    ("groebner", "minimal_free_resolution"),
    ("groebner", "syzygy_module"),
    ("groebner", "groebner_basis"),
    ("groebner", "quotient_colength"),
    ("groebner", "Resolution.audit"),
    ("stpoly", "st_bipoly"),
    ("stpoly", "sample_generic_eta"),
    ("lattice", "characteristic_polynomial"),
    ("verify", "run_suite"),
)

ENGINE = ("groebner", "GroebnerEngine.complete")

# span record fields
NAME, START, END, PARENT, REQUEST, CHILD, OUTERMOST = range(7)


def _bits(c) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    A span is [name, start, end, parent index, request id, time covered
    by child spans, outermost]; outermost is False when a span of the same
    name is already open, so inclusive times are not counted twice.
    """

    def __init__(self):
        self.spans: list = []
        self.request = None
        self.missing: set = set()   # span names or counters that could not be hooked
        self.counts = {"spairs": 0, "rows_from_pairs": 0, "rows": 0,
                       "engines": 0, "levels": 0,
                       "derivation_calls": 0, "derivation_computed": 0}
        self.max_coeff_bits = 0
        self.max_terms_per_row = 0
        self._stack: list = []
        self._scanned = weakref.WeakKeyDictionary()   # engine -> rows scanned
        self._modules_seen: dict = {}                 # id -> derivation result

    # -- requests --------------------------------------------------------
    def begin(self, request_id):
        self.request = request_id
        self._modules_seen.clear()

    def end(self):
        self.request = None
        self._modules_seen.clear()

    # -- spans -----------------------------------------------------------
    def _open(self, name):
        outermost = all(self.spans[i][NAME] != name for i in self._stack)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request, 0.0, outermost])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def spanned(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_return is not None:
                on_return(result)
            return result
        return wrapper

    # -- counters --------------------------------------------------------
    def on_derivation_module(self, module):
        self.counts["derivation_calls"] += 1
        if id(module) not in self._modules_seen:
            self._modules_seen[id(module)] = module
            self.counts["derivation_computed"] += 1

    def on_resolution(self, res):
        modules = getattr(res, "modules", None)
        if modules is None:
            self.missing.add("levels")
        else:
            self.counts["levels"] += len(modules)

    def counted_complete(self, fn):
        @functools.wraps(fn)
        def complete(engine, *args, **kwargs):
            if self.request is None:
                return fn(engine, *args, **kwargs)
            pairs0 = getattr(engine, "_pairs_done", None)
            rows0 = len(getattr(engine, "rows", ()))
            result = fn(engine, *args, **kwargs)
            self._after_complete(engine, pairs0, rows0)
            return result
        return complete

    def _after_complete(self, engine, pairs0, rows0):
        if engine not in self._scanned:
            self._scanned[engine] = 0
            self.counts["engines"] += 1
        pairs = getattr(engine, "_pairs_done", None)
        rows = getattr(engine, "rows", None)
        if pairs is None or pairs0 is None:
            self.missing.add("spairs")
        else:
            self.counts["spairs"] += pairs - pairs0
        if rows is None:
            self.missing.add("rows")
            return
        self.counts["rows_from_pairs"] += len(rows) - rows0
        start = self._scanned[engine]
        for row in rows[start:]:
            vec = getattr(row, "vec", None)
            if vec is None:
                self.missing.add("row_terms")
                continue
            self.max_terms_per_row = max(self.max_terms_per_row, len(vec))
            for c in vec.values():
                self.max_coeff_bits = max(self.max_coeff_bits, _bits(c))
        self.counts["rows"] += len(rows) - start
        self._scanned[engine] = len(rows)


def _resolve(prog, module_name, path):
    owner = getattr(prog, module_name, None)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    return owner, attr, (fn if callable(fn) else None)


def _rebind_everywhere(original, replacement, restore):
    """Point every stlog module global bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stlog" or name.startswith("stlog.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, original))
                setattr(module, attr, replacement)


def install(prog, tracer: Tracer):
    """Wrap the layer functions of the loaded program; returns an undo list."""
    restore = []
    hooks = {"logmod.derivation_module": tracer.on_derivation_module,
             "groebner.minimal_free_resolution": tracer.on_resolution}
    for module_name, path in SPANS:
        name = f"{module_name}.{path}"
        owner, attr, fn = _resolve(prog, module_name, path)
        if fn is None:
            tracer.missing.add(name)
            continue
        wrapper = tracer.spanned(name, fn, hooks.get(name))
        if "." in path:                     # a method: patch the class
            restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        else:
            _rebind_everywhere(fn, wrapper, restore)
    owner, attr, fn = _resolve(prog, *ENGINE)
    if fn is None:
        tracer.missing.add("engine")
    else:
        restore.append((owner, attr, fn))
        setattr(owner, attr, tracer.counted_complete(fn))
    return restore


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# Per-layer metrics: (name, unit, better, workload it is read on, the
# end-to-end metrics it should move as (workload, metric)).  Every metric
# is reported on every workload; the rest say where a change should show.
CHI_TAIL = ("chi-corpus", (("chi-corpus", "tail_s"),))
TAME_WALL = ("tame-paper", (("tame-paper", "wall_s"), ("chi-corpus", "tail_s")))
VERIFY_WALL = ("verify-paper", (("verify-paper", "wall_s"),))
CHI_BODY = ("chi-corpus", (("chi-corpus", "body_s"),))
CHI_RSS = ("chi-corpus", (("chi-corpus", "peak_rss_mb"),))
PER_LAYER = (
    ("groebner.minimalize_generators.in_logmod.self_s", "s", "lower", *CHI_TAIL),
    ("groebner.minimalize_generators.in_resolution.self_s", "s", "lower", *CHI_TAIL),
    ("groebner.spairs", "count", "lower", *CHI_TAIL),
    ("groebner.zero_reductions", "count", "lower", *CHI_TAIL),
    ("groebner.useful_pair_ratio", "ratio", "higher", *CHI_TAIL),
    ("groebner.max_coeff_bits", "bits", "lower",
     "chi-corpus", CHI_TAIL[1] + CHI_RSS[1]),
    ("groebner.max_terms_per_row", "count", "lower", *CHI_TAIL),
    ("groebner.syzygy_module.self_s", "s", "lower", *TAME_WALL),
    ("groebner.minimal_free_resolution.self_s", "s", "lower", *TAME_WALL),
    ("groebner.minimal_free_resolution.levels", "count", "lower", *TAME_WALL),
    ("groebner.engines", "count", "lower", *TAME_WALL),
    ("groebner.kernel_of_map.self_s", "s", "lower", *TAME_WALL),
    ("groebner.Resolution.audit.s", "s", "lower", *TAME_WALL),
    ("logmod._audit_membership.s", "s", "lower", *TAME_WALL),
    ("logmod.is_free.self_s", "s", "lower", *TAME_WALL),
    ("groebner.quotient_colength.self_s", "s", "lower", *VERIFY_WALL),
    ("groebner.groebner_basis.s", "s", "lower", *VERIFY_WALL),
    ("stpoly.sample_generic_eta.self_s", "s", "lower", *VERIFY_WALL),
    ("logmod.derivation_module.calls", "count", "lower", *VERIFY_WALL),
    ("logmod.derivation_module.computed", "count", "lower", *VERIFY_WALL),
    ("logmod.derivation_module.hit_ratio", "ratio", "higher", *VERIFY_WALL),
    ("lattice.characteristic_polynomial.s", "s", "lower", *VERIFY_WALL),
    ("verify.run_suite.self_s", "s", "lower", *VERIFY_WALL),
    ("cli.main.self_s", "s", "lower", *CHI_BODY),
    ("logmod.derivation_module.self_s", "s", "lower", *CHI_BODY),
    ("stpoly.st_bipoly.self_s", "s", "lower", *CHI_BODY),
    ("groebner.rows", "count", "lower", *CHI_RSS),
    ("trace_overhead_frac", "frac", "lower", None, ()),
)


def _ratio(num, den):
    return None if num is None or not den else num / den


def layer_metrics(tracer: Tracer, overhead_frac) -> dict:
    """Every PER_LAYER value from one traced pass; None where unmeasurable."""
    self_s, incl_s, self_under = {}, {}, {}
    for span in tracer.spans:
        name, dur = span[NAME], span[END] - span[START]
        self_s[name] = self_s.get(name, 0.0) + dur - span[CHILD]
        if span[OUTERMOST]:
            incl_s[name] = incl_s.get(name, 0.0) + dur
        if span[PARENT] is not None:
            # split a span's self time by the module of its caller
            key = (name, tracer.spans[span[PARENT]][NAME].partition(".")[0])
            self_under[key] = self_under.get(key, 0.0) + dur - span[CHILD]

    def hooked(*names):
        return not any(n in tracer.missing for n in names)

    def span_self(name):
        return self_s.get(name, 0.0) if hooked(name) else None

    def span_incl(name):
        return incl_s.get(name, 0.0) if hooked(name) else None

    def self_under_parent(name, parent_module):
        return self_under.get((name, parent_module), 0.0) if hooked(name) else None

    c = tracer.counts
    spairs = c["spairs"] if hooked("engine", "spairs") else None
    rows_ok = hooked("engine", "rows")
    from_pairs = c["rows_from_pairs"] if rows_ok else None
    zero = None if spairs is None or from_pairs is None else spairs - from_pairs
    terms_ok = rows_ok and hooked("row_terms")
    deriv_ok = hooked("logmod.derivation_module")
    calls = c["derivation_calls"] if deriv_ok else None
    computed = c["derivation_computed"] if deriv_ok else None
    mg = "groebner.minimalize_generators"
    values = {
        f"{mg}.in_logmod.self_s": self_under_parent(mg, "logmod"),
        f"{mg}.in_resolution.self_s": self_under_parent(mg, "groebner"),
        "groebner.spairs": spairs,
        "groebner.zero_reductions": zero,
        "groebner.useful_pair_ratio": _ratio(from_pairs, spairs),
        "groebner.max_coeff_bits": tracer.max_coeff_bits if terms_ok else None,
        "groebner.max_terms_per_row": tracer.max_terms_per_row if terms_ok else None,
        "groebner.syzygy_module.self_s": span_self("groebner.syzygy_module"),
        "groebner.minimal_free_resolution.self_s":
            span_self("groebner.minimal_free_resolution"),
        "groebner.minimal_free_resolution.levels":
            c["levels"] if hooked("groebner.minimal_free_resolution", "levels") else None,
        "groebner.engines": c["engines"] if hooked("engine") else None,
        "groebner.kernel_of_map.self_s": span_self("groebner.kernel_of_map"),
        "groebner.Resolution.audit.s": span_incl("groebner.Resolution.audit"),
        "logmod._audit_membership.s": span_incl("logmod._audit_membership"),
        "logmod.is_free.self_s": span_self("logmod.is_free"),
        "groebner.quotient_colength.self_s": span_self("groebner.quotient_colength"),
        "groebner.groebner_basis.s": span_incl("groebner.groebner_basis"),
        "stpoly.sample_generic_eta.self_s": span_self("stpoly.sample_generic_eta"),
        "logmod.derivation_module.calls": calls,
        "logmod.derivation_module.computed": computed,
        "logmod.derivation_module.hit_ratio":
            None if computed is None else _ratio(calls - computed, calls),
        "lattice.characteristic_polynomial.s":
            span_incl("lattice.characteristic_polynomial"),
        "verify.run_suite.self_s": span_self("verify.run_suite"),
        "cli.main.self_s": span_self("cli.main"),
        "logmod.derivation_module.self_s": span_self("logmod.derivation_module"),
        "stpoly.st_bipoly.self_s": span_self("stpoly.st_bipoly"),
        "groebner.rows": c["rows"] if rows_ok else None,
        "trace_overhead_frac": overhead_frac,
    }
    return {name: values[name] for name, *_ in PER_LAYER}
