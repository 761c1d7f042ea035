"""Verification harness: quantitative identities checked against computed
invariants, on single arrangements or whole corpora.

Verdicts: "pass" / "fail" when the hypotheses of the identity hold,
"not-applicable" when they do not, and "beyond-theorem" when a check is
run outside its hypotheses and still succeeds.  Hard structural
invariants (exact divisibility, membership audits, regularity bounds)
raise instead of reporting, so they can never be downgraded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import fixtures, lattice, logmod, stpoly
from .arrangement import (Arrangement, Hyperplane, Multiplicity, is_essential,
                          is_irreducible, parse)
from .exceptions import StlogError
from .groebner import poly_dimension
from .ratpoly import LaurentPolynomial


@dataclass
class CheckReport:
    check: str
    subject: str
    verdict: str            # pass | fail | not-applicable | beyond-theorem
    claimed: object = None
    computed: object = None
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    def to_json(self):
        return {"check": self.check, "subject": self.subject,
                "verdict": self.verdict, "claimed": self.claimed,
                "computed": self.computed, "witness": self.witness}


def _poly_str(p: LaurentPolynomial, var: str = "x") -> str:
    return p.render(var)


def check_chi_specialization(arr: Arrangement,
                             subject: str = "") -> CheckReport:
    """(-1)^l Psi(A;1,t) equals the lattice characteristic polynomial."""
    name = "chi-specialization"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    mult = Multiplicity.simple(arr.n)
    via_st = stpoly.char_polynomial_multi(arr, mult)
    via_lattice = lattice.characteristic_polynomial(arr)
    verdict = "pass" if via_st == via_lattice else "fail"
    return CheckReport(name, subject, verdict,
                       claimed=_poly_str(via_lattice, "t"),
                       computed=_poly_str(via_st, "t"))


def check_monic_degree(arr: Arrangement, mult: Multiplicity, d: int,
                       subject: str = "") -> CheckReport:
    """ST_{d+1} is monic of degree |m| + l(d-1)."""
    name = f"monic-degree[d={d}]"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    st = stpoly.st_polynomial_order(arr, mult, d)
    expected_deg = mult.total + arr.ell * (d - 1)
    tame, pd_table = logmod.is_tame(arr, mult)
    ok = st.degree() == expected_deg and st.coefficient(expected_deg) == 1
    if not ok:
        verdict = "fail" if tame else "not-applicable"
    else:
        verdict = "pass" if tame else "beyond-theorem"
    return CheckReport(name, subject, verdict,
                       claimed=f"monic of degree {expected_deg}",
                       computed=_poly_str(st),
                       witness={"tame": tame, "pd_table": pd_table})


def check_second_coefficient(arr: Arrangement, mult: Multiplicity,
                             subject: str = "") -> CheckReport:
    """Coefficient of x^{|m|-1} in ST equals l + (number of degree-|m|
    relations of D^{l-1})."""
    name = "second-coefficient"
    n = mult.total
    st = stpoly.st_polynomial(arr, mult)
    coeff = st.coefficient(n - 1)
    top = logmod.derivation_module(arr, mult, arr.ell - 1)
    a = top.betti.counts.get((1, n), 0)
    tame, _ = logmod.is_tame(arr, mult)
    irreducible = is_irreducible(arr, mult)
    applicable = tame and irreducible and is_essential(arr)
    ok = coeff == arr.ell + a
    if applicable:
        verdict = "pass" if ok else "fail"
    else:
        verdict = "beyond-theorem" if ok else "not-applicable"
    return CheckReport(name, subject, verdict,
                       claimed=f"{arr.ell} + {a}",
                       computed=str(coeff),
                       witness={"tame": tame, "irreducible": irreducible,
                                "degree_n_relations": a})


def check_regularity_bounds(arr: Arrangement, mult: Multiplicity,
                            subject: str = "") -> CheckReport:
    """reg D^p <= |m| - l + p and reg Omega^p <= -p for all p."""
    name = "regularity-bounds"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    ell, n = arr.ell, mult.total
    rows = []
    ok = True
    for p in range(ell + 1):
        d = logmod.derivation_module(arr, mult, p)
        w = logmod.omega_module(arr, mult, p)
        d_ok = d.reg is None or d.reg <= n - ell + p
        w_ok = w.reg is None or w.reg <= -p
        ok = ok and d_ok and w_ok
        rows.append({"p": p, "reg_D": d.reg, "bound_D": n - ell + p,
                     "reg_Omega": w.reg, "bound_Omega": -p})
    return CheckReport(name, subject, "pass" if ok else "fail",
                       claimed="all 2(l+1) bounds",
                       computed=rows)


def check_free_formulas(arr: Arrangement, mult: Multiplicity,
                        subject: str = "") -> CheckReport:
    """For free (A,m): Psi, ST and chi all match the exponent products."""
    name = "free-formulas"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    cert = logmod.is_free(arr, mult)
    if cert is None:
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "not free"})
    exps = cert.exponents
    st = stpoly.st_bipoly(arr, mult)
    from .ratpoly import BiPolynomial
    prod = BiPolynomial.one()
    for d in exps:
        factor = {(e, 0): 1 for e in range(d)}
        factor[(d, 1)] = -1
        prod = prod * BiPolynomial(factor)
    st_poly = stpoly.st_polynomial(arr, mult)
    st_prod = LaurentPolynomial.one()
    for d in exps:
        st_prod = st_prod * LaurentPolynomial({e: 1 for e in range(d + 1)})
    chi = stpoly.char_polynomial_multi(arr, mult)
    chi_prod = LaurentPolynomial.one()
    for d in exps:
        chi_prod = chi_prod * LaurentPolynomial({1: 1, 0: -d})
    ok = st.psi == prod and st_poly == st_prod and chi == chi_prod
    return CheckReport(name, subject, "pass" if ok else "fail",
                       claimed=f"products over exponents {list(exps)}",
                       computed={"psi": str(st.psi), "st": _poly_str(st_poly),
                                 "chi": _poly_str(chi, "t")})


def check_low_degree_coefficients(arr: Arrangement, mult: Multiplicity, d: int,
                                  subject: str = "") -> CheckReport:
    """Coefficient of x^i in ST_{d+1} is dim S_i for i <= d, and the
    x^{d+1} coefficient is dim S_{d+1} - dim D(A,m)_1."""
    name = f"low-degree-coefficients[d={d}]"
    tame, _ = logmod.is_tame(arr, mult)
    irreducible = is_essential(arr) and is_irreducible(arr, mult)
    st = stpoly.st_polynomial_order(arr, mult, d)
    d1 = logmod.derivation_module(arr, mult, 1)
    dim_d1_degree1 = sum(1 for g in d1.generators if g.degree() == 1)
    ell = arr.ell
    expected = [poly_dimension(ell, i) for i in range(d + 1)]
    expected.append(poly_dimension(ell, d + 1) - dim_d1_degree1)
    got = [st.coefficient(i) for i in range(d + 2)]
    ok = got == expected
    applicable = tame and irreducible
    if applicable:
        verdict = "pass" if ok else "fail"
    else:
        verdict = "beyond-theorem" if ok else "not-applicable"
    return CheckReport(name, subject, verdict,
                       claimed=expected,
                       computed=[str(c) for c in got],
                       witness={"tame": tame, "irreducible": irreducible,
                                "dim_D1_degree1": dim_d1_degree1})


def check_st_algebra_equality(arr: Arrangement, mult: Multiplicity, d: int,
                              seed: int = 0, subject: str = "",
                              max_attempts: int = 16) -> CheckReport:
    """For tame (A,m): Hilbert function of S/a equals the ST_{d+1}
    coefficients; for non-tame input both sides are reported."""
    name = f"st-algebra-equality[d={d}]"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    result = stpoly.sample_generic_eta(arr, mult, d, seed=seed,
                                       max_attempts=max_attempts)
    st = stpoly.st_polynomial_order(arr, mult, d)
    deg = st.degree()
    st_coeffs = [st.coefficient(i) for i in range(deg + 1)]
    top = max(result.hilbert_function) if result.hilbert_function else -1
    hf = [result.hilbert_function.get(i, 0) for i in range(max(deg, top) + 1)]
    st_list = st_coeffs + [0] * (len(hf) - len(st_coeffs))
    equal = [str(c) for c in st_list] == [str(c) for c in hf]
    tame, _ = logmod.is_tame(arr, mult)
    if tame:
        verdict = "pass" if equal else "fail"
    else:
        verdict = "beyond-theorem" if equal else "not-applicable"
    return CheckReport(name, subject, verdict,
                       claimed=[str(c) for c in st_list],
                       computed=[str(c) for c in hf],
                       witness={"tame": tame, "eta": str(result.eta),
                                "attempts": result.attempts,
                                "colength": result.colength,
                                "equal": equal})


def check_product_rule(arr1: Arrangement, mult1: Multiplicity,
                       arr2: Arrangement, mult2: Multiplicity,
                       subject: str = "") -> CheckReport:
    """Hilb(D^p(A1 x A2)) = sum_{i+j=p} Hilb(D^i(A1)) * Hilb(D^j(A2))."""
    name = "product-rule"
    l1, l2 = arr1.ell, arr2.ell
    ell = l1 + l2
    hps = []
    ms = []
    for h, m in zip(arr1.hyperplanes, mult1.values):
        hps.append(Hyperplane(list(h.coeffs) + [0] * l2))
        ms.append(m)
    for h, m in zip(arr2.hyperplanes, mult2.values):
        hps.append(Hyperplane([0] * l1 + list(h.coeffs)))
        ms.append(m)
    pairs = sorted(zip(hps, ms))
    prod_arr = Arrangement(ell, [h for h, _ in pairs])
    prod_mult = Multiplicity([m for _, m in pairs])
    h1 = [logmod.derivation_module(arr1, mult1, i).hilb for i in range(l1 + 1)]
    h2 = [logmod.derivation_module(arr2, mult2, j).hilb for j in range(l2 + 1)]
    ok = True
    rows = []
    for p in range(ell + 1):
        lhs = logmod.derivation_module(prod_arr, prod_mult, p).hilb
        rhs = None
        for i in range(max(0, p - l2), min(l1, p) + 1):
            term = h1[i] * h2[p - i]
            rhs = term if rhs is None else rhs + term
        same = lhs == rhs
        ok = ok and same
        rows.append({"p": p, "lhs": str(lhs), "rhs": str(rhs), "equal": same})
    return CheckReport(name, subject, "pass" if ok else "fail",
                       claimed="Hilbert-series convolution for all p",
                       computed=rows)


# ---------------------------------------------------------------------------
# corpora

PAPER_CORPUS = ("ex1", "ex2_A", "ex2_Aprime", "ex2_B", "generic_3_4",
                "bool1", "bool2", "bool3")


def random_corpus(seed: int, count: int = 50, max_ell: int = 3,
                  max_n: int = 7):
    """Seeded essential simple arrangements with coefficients in -2..2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.randint(2, max_ell)
        n = rng.randint(ell, max_n)
        hps = set()
        tries = 0
        while len(hps) < n and tries < 200:
            tries += 1
            coeffs = [rng.randint(-2, 2) for _ in range(ell)]
            if any(coeffs):
                hps.add(Hyperplane(coeffs))
        if len(hps) < n:
            continue
        arr = Arrangement(ell, sorted(hps))
        if not is_essential(arr):
            continue
        out.append((f"random-{len(out)}", arr, Multiplicity.simple(arr.n)))
    return out


def file_corpus(paths):
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            arr, mult = parse(fh.read())
        out.append((str(path), arr, mult))
    return out


def run_suite(suite: str = "paper", seed: int = 0, paths=()):
    """Run the applicable checks over a corpus; returns the full report.

    suite: "paper" (named fixtures), "random" (seeded corpus), or "file"
    (explicit paths).  Deterministic given (suite, seed, paths).
    """
    if suite == "paper":
        corpus = [(name, *fixtures.load(name)) for name in PAPER_CORPUS]
    elif suite == "random":
        corpus = random_corpus(seed)
    elif suite == "file":
        corpus = file_corpus(paths)
    else:
        raise StlogError(f"unknown suite {suite!r}")

    reports = []
    for name, arr, mult in corpus:
        reports.append(check_regularity_bounds(arr, mult, subject=name))
        if mult.is_simple():
            reports.append(check_chi_specialization(arr, subject=name))
        if suite != "random":
            reports.append(check_monic_degree(arr, mult, 1, subject=name))
            reports.append(check_second_coefficient(arr, mult, subject=name))
            reports.append(check_free_formulas(arr, mult, subject=name))
            reports.append(check_low_degree_coefficients(
                arr, mult, 1, subject=name))
            if is_essential(arr):
                reports.append(check_st_algebra_equality(
                    arr, mult, 1, seed=seed, subject=name))
    failures = [r for r in reports if r.verdict == "fail"]
    return {
        "suite": suite,
        "seed": seed,
        "items": len(corpus),
        "checks": [r.to_json() for r in reports],
        "failures": len(failures),
        "passed": not failures,
    }


def render_report(report: dict) -> str:
    lines = [f"suite={report['suite']} seed={report['seed']} "
             f"items={report['items']}"]
    for entry in report["checks"]:
        lines.append(f"[{entry['verdict'].upper():>14}] "
                     f"{entry['check']}: {entry['subject']}")
    lines.append(f"failures: {report['failures']}")
    lines.append("PASS" if report["passed"] else "FAIL")
    return "\n".join(lines)
