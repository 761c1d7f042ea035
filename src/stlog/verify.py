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
                          is_irreducible, load)
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

    def to_json(self):
        return {"check": self.check, "subject": self.subject,
                "verdict": self.verdict, "claimed": self.claimed,
                "computed": self.computed, "witness": self.witness}


def _verdict(ok: bool, applicable: bool = True) -> str:
    """pass/fail when the identity's hypotheses hold; outside them a
    success is beyond-theorem and a failure not-applicable."""
    if applicable:
        return "pass" if ok else "fail"
    return "beyond-theorem" if ok else "not-applicable"


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
    return CheckReport(name, subject, _verdict(via_st == via_lattice),
                       claimed=via_lattice.render("t"),
                       computed=via_st.render("t"))


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
    return CheckReport(name, subject, _verdict(ok, tame),
                       claimed=f"monic of degree {expected_deg}",
                       computed=st.render("x"),
                       witness={"tame": tame, "pd_table": pd_table})


def check_second_coefficient(arr: Arrangement, mult: Multiplicity,
                             subject: str = "") -> CheckReport:
    """Coefficient of x^{|m|-1} in ST equals l + (number of degree-|m|
    relations of D^{l-1})."""
    name = "second-coefficient"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    n = mult.total
    st = stpoly.st_polynomial(arr, mult)
    coeff = st.coefficient(n - 1)
    top = logmod.derivation_module(arr, mult, arr.ell - 1)
    a = top.betti.counts.get((1, n), 0)
    tame, _ = logmod.is_tame(arr, mult)
    irreducible = is_irreducible(arr, mult)
    applicable = tame and irreducible
    ok = coeff == arr.ell + a
    return CheckReport(name, subject, _verdict(ok, applicable),
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
    return CheckReport(name, subject, _verdict(ok),
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
    return CheckReport(name, subject, _verdict(ok),
                       claimed=f"products over exponents {list(exps)}",
                       computed={"psi": str(st.psi), "st": st_poly.render("x"),
                                 "chi": chi.render("t")})


def check_low_degree_coefficients(arr: Arrangement, mult: Multiplicity, d: int,
                                  subject: str = "") -> CheckReport:
    """Coefficient of x^i in ST_{d+1} is dim S_i for i <= d, and the
    x^{d+1} coefficient is dim S_{d+1} - dim D(A,m)_1."""
    name = f"low-degree-coefficients[d={d}]"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    tame, _ = logmod.is_tame(arr, mult)
    irreducible = is_irreducible(arr, mult)
    st = stpoly.st_polynomial_order(arr, mult, d)
    d1 = logmod.derivation_module(arr, mult, 1)
    dim_d1_degree1 = sum(1 for g in d1.generators if g.degree() == 1)
    ell = arr.ell
    expected = [poly_dimension(ell, i) for i in range(d + 1)]
    expected.append(poly_dimension(ell, d + 1) - dim_d1_degree1)
    got = [st.coefficient(i) for i in range(d + 2)]
    ok = got == expected
    applicable = tame and irreducible
    return CheckReport(name, subject, _verdict(ok, applicable),
                       claimed=expected,
                       computed=[str(c) for c in got],
                       witness={"tame": tame, "irreducible": irreducible,
                                "dim_D1_degree1": dim_d1_degree1})


def check_st_algebra_equality(arr: Arrangement, mult: Multiplicity, d: int,
                              seed: int = 0, subject: str = "") -> CheckReport:
    """For tame (A,m): Hilbert function of S/a equals the ST_{d+1}
    coefficients; for non-tame input both sides are reported."""
    name = f"st-algebra-equality[d={d}]"
    if not is_essential(arr):
        return CheckReport(name, subject, "not-applicable",
                           witness={"reason": "arrangement not essential"})
    result = stpoly.sample_generic_eta(arr, mult, d, seed=seed)
    st = stpoly.st_polynomial_order(arr, mult, d)
    deg = st.degree()
    st_coeffs = [st.coefficient(i) for i in range(deg + 1)]
    top = max(result.hilbert_function) if result.hilbert_function else -1
    hf = [result.hilbert_function.get(i, 0) for i in range(max(deg, top) + 1)]
    st_list = st_coeffs + [0] * (len(hf) - len(st_coeffs))
    equal = [str(c) for c in st_list] == [str(c) for c in hf]
    tame, _ = logmod.is_tame(arr, mult)
    return CheckReport(name, subject, _verdict(equal, tame),
                       claimed=[str(c) for c in st_list],
                       computed=[str(c) for c in hf],
                       witness={"tame": tame, "eta": str(result.eta),
                                "attempts": result.attempts,
                                "colength": result.colength,
                                "equal": equal})


# ---------------------------------------------------------------------------
# corpora

PAPER_CORPUS = fixtures.NAMES


def random_corpus(seed: int):
    """50 seeded essential simple arrangements of rank 2 or 3, with at
    most 7 hyperplanes and coefficients in -2..2."""
    rng = random.Random(seed)
    out = []
    while len(out) < 50:
        ell = rng.randint(2, 3)
        n = rng.randint(ell, 7)
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
        corpus = [(str(path), *load(path)) for path in paths]
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
