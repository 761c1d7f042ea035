"""Command-line interface.

Exit codes: 0 success, 1 check/genericity failure, 2 input error,
3 resource budget exceeded.  Every command runs as one request
(`session.request`): `--max-pairs` bounds all S-pairs of the request,
and a D^p the request has already computed is reused at no cost.
Budgets can also be set through the environment variables
STLOG_MAX_PAIRS and STLOG_MAX_ETA_ATTEMPTS; flags win over the
environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import arrangement as arrmod
from . import lattice as latmod
from . import logmod, session, stpoly, verify
from .arrangement import Multiplicity, parse
from .exceptions import (CertificateError, GenericityNotFoundError,
                         NonGenericEtaError, ParseError, ResourceBudgetError,
                         StlogError)
from .ratpoly import Polynomial


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _load_arrangement(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    return parse(text)


# ---------------------------------------------------------------------------
# eta expression parser: integer coefficients, variables x1..xl, ^ * + -

_TOKEN = re.compile(r"\s*(\d+|x\d+|\^|\*|\+|-|\(|\))")


def parse_eta(text: str, nvars: int) -> Polynomial:
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character in eta at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)     # end marker
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def atom() -> Polynomial:
        t = take()
        if t == "(":
            e = expr()
            if take() != ")":
                raise ParseError("unbalanced parentheses in eta")
            return e
        if t is None:
            raise ParseError("unexpected end of eta expression")
        if t.isdigit():
            return Polynomial.constant(int(t), nvars)
        if t.startswith("x"):
            i = int(t[1:])
            if not 1 <= i <= nvars:
                raise ParseError(f"variable {t} out of range 1..{nvars}")
            return Polynomial.variable(i - 1, nvars)
        raise ParseError(f"unexpected token {t!r} in eta")

    def power() -> Polynomial:
        base = atom()
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a non-negative integer")
            return base ** int(e)
        return base

    def term() -> Polynomial:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        p = power()
        while peek() == "*":
            take()
            p = p * power()
        return p.scale(sign)

    def expr() -> Polynomial:
        # term() consumes its own leading sign, so +/- both reduce to addition
        p = term()
        while peek() in ("+", "-"):
            p = p + term()
        return p

    result = expr()
    if peek() is not None:
        raise ParseError(f"trailing tokens in eta near {peek()!r}")
    return result


# ---------------------------------------------------------------------------
# subcommands

def _cmd_info(args, arr, mult):
    data = {
        "ell": arr.ell,
        "hyperplanes": arr.n,
        "total_multiplicity": mult.total,
        "simple": mult.is_simple(),
        "rank": arrmod.rank(arr),
        "essential": arrmod.is_essential(arr),
        "irreducible": arrmod.is_irreducible(arr, mult),
    }
    if args.json:
        print(_dump(data))
    else:
        for k, v in data.items():
            print(f"{k}: {v}")
    return 0


def _cmd_lattice(args, arr, mult):
    if not mult.is_simple():
        raise ParseError("lattice requires a simple arrangement (m == 1)")
    report = latmod.lattice_report(arr)
    chi = latmod.characteristic_polynomial(arr)
    if args.json:
        print(_dump({"flats": report, "chi": chi.to_json()}))
    else:
        for entry in report:
            print(f"codim {entry['codim']}  mu {entry['mu']:>4}  "
                  f"hyperplanes {entry['members']}")
        print(f"chi = {chi.render('t')}")
    return 0


def _cmd_chi(args, arr, mult):
    chi = stpoly.char_polynomial_multi(arr, mult)
    if args.json:
        print(_dump({"chi": chi.to_json()}))
    else:
        print(chi.render("t"))
    return 0


def _get_module(args, arr, mult):
    if args.omega:
        return logmod.omega_module(arr, mult, args.p)
    return logmod.derivation_module(arr, mult, args.p)


def _cmd_logmod(args, arr, mult):
    mod = _get_module(args, arr, mult)
    if args.json:
        print(_dump(mod.to_json()))
    else:
        label = f"Omega^{args.p}" if args.omega else f"D^{args.p}"
        print(f"{label}: {len(mod.generators)} minimal generators, "
              f"degrees {mod.generator_degrees()}")
        print(f"pd = {mod.pd}, reg = {mod.reg}")
        print(f"Hilbert series: {mod.hilb}")
    return 0


def _cmd_betti(args, arr, mult):
    mod = _get_module(args, arr, mult)
    if args.json:
        print(_dump(mod.betti.to_json()))
    else:
        print(mod.betti)
    return 0


def _cmd_free(args, arr, mult):
    cert = logmod.is_free(arr, mult)
    if args.json:
        data = {"free": cert is not None}
        if cert:
            data["exponents"] = list(cert.exponents)
            data["saito_scalar"] = str(cert.scalar)
        print(_dump(data))
    else:
        if cert:
            print(f"free with exponents {list(cert.exponents)} "
                  f"(Saito scalar {cert.scalar})")
        else:
            print("not free")
    return 0


def _cmd_tame(args, arr, mult):
    tame, table = logmod.is_tame(arr, mult)
    if args.json:
        print(_dump({"tame": tame,
                     "pd_omega": {str(p): v for p, v in table.items()}}))
    else:
        print("tame" if tame else "not tame")
        for p in sorted(table):
            print(f"pd Omega^{p} = {table[p]} (bound {p})")
    return 0


def _cmd_st(args, arr, mult):
    d = args.order - 1
    if d < 1:
        raise ParseError("--order must be at least 2")
    st = stpoly.st_polynomial_order(arr, mult, d)
    if args.json:
        print(_dump({"order": args.order, "st": st.to_json()}))
    else:
        print(st.render("x"))
    return 0


def _cmd_st_bipoly(args, arr, mult):
    st = stpoly.st_bipoly(arr, mult)
    if args.json:
        print(_dump(st.to_json()))
    else:
        print(f"Psi = {st.psi}")
        for p in sorted(st.numerators):
            print(f"f_{p} = {st.numerators[p]}   "
                  f"(a_{p} = {st.a[p]}, b_{p} = {st.b[p]})")
    return 0


def _cmd_st_algebra(args, arr, mult):
    d = args.order - 1
    if d < 1:
        raise ParseError("--order must be at least 2")
    if args.eta and args.eta != "random":
        eta = parse_eta(args.eta, arr.ell)
        if eta.is_zero() or not eta.is_homogeneous():
            raise ParseError("eta must be nonzero and homogeneous")
        result = stpoly.st_algebra_hilbert(arr, mult, eta)
    else:
        result = stpoly.sample_generic_eta(
            arr, mult, d, seed=args.seed, max_attempts=args.max_eta_attempts)
    if args.json:
        print(_dump(result.to_json()))
    else:
        print(f"eta = {result.eta}")
        top = max(result.hilbert_function) if result.hilbert_function else -1
        hf = [int(result.hilbert_function.get(i, 0)) for i in range(top + 1)]
        print(f"Hilbert function: {hf}")
        print(f"colength = {result.colength}")
    return 0


def _cmd_essentialize(args, arr, mult):
    ess, essm = arrmod.essentialize(arr, mult)
    if args.json:
        print(_dump(arrmod.to_json(ess, essm)))
    else:
        sys.stdout.write(arrmod.render(ess, essm))
    return 0


def _cmd_verify(args):
    paths = args.input if args.suite == "file" else ()
    report = verify.run_suite(args.suite, seed=args.seed, paths=paths)
    text = verify.render_report(report)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(_dump(report) + "\n")
    if args.json:
        print(_dump(report))
    else:
        print(text)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------

def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"environment variable {name} must be an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlog",
        description="Exact invariants of hyperplane multiarrangements: "
                    "logarithmic modules, free resolutions, Solomon-Terao "
                    "polynomials and algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, p_flag=False):
        if needs_input:
            p.add_argument("input", help="arrangement file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--max-pairs", type=int, default=None,
                       help="S-pair budget for Groebner computations")
        if p_flag:
            p.add_argument("-p", type=int, default=1,
                           help="exterior order (default 1)")
            p.add_argument("--omega", action="store_true",
                           help="differential forms instead of derivations")

    common(sub.add_parser("info", help="rank, essentiality, irreducibility"))
    common(sub.add_parser("lattice", help="intersection lattice and Moebius"))
    common(sub.add_parser("chi", help="characteristic polynomial"))
    common(sub.add_parser("logmod", help="minimal generators of D^p/Omega^p"),
           p_flag=True)
    common(sub.add_parser("betti", help="graded Betti table of D^p/Omega^p"),
           p_flag=True)
    common(sub.add_parser("free", help="freeness and Saito certificate"))
    common(sub.add_parser("tame", help="tameness via pd Omega^p"))
    p_st = sub.add_parser("st", help="Solomon-Terao polynomial")
    common(p_st)
    p_st.add_argument("--order", type=int, default=2,
                      help="order d+1 of the polynomial (default 2)")
    common(sub.add_parser("st-bipoly", help="Solomon-Terao bi-polynomial"))
    p_alg = sub.add_parser("st-algebra", help="Solomon-Terao algebra")
    common(p_alg)
    p_alg.add_argument("--order", type=int, default=2)
    p_alg.add_argument("--eta", default="random",
                       help="'random' or an explicit polynomial in x1..xl")
    p_alg.add_argument("--max-eta-attempts", type=int, default=None)
    p_alg.add_argument("--seed", type=int, default=0,
                       help="seed for sampling a random eta (default 0)")
    common(sub.add_parser("essentialize", help="essential equivalent"))
    p_ver = sub.add_parser("verify", help="run the verification suite")
    common(p_ver, needs_input=False)
    p_ver.add_argument("--suite", choices=("paper", "random", "file"),
                       default="paper")
    p_ver.add_argument("input", nargs="*", help="arrangement files (suite=file)")
    p_ver.add_argument("--json-path", help="also write the JSON report here")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed of the random corpus (default 0)")
    return parser


_DISPATCH = {
    "info": _cmd_info,
    "lattice": _cmd_lattice,
    "chi": _cmd_chi,
    "logmod": _cmd_logmod,
    "betti": _cmd_betti,
    "free": _cmd_free,
    "tame": _cmd_tame,
    "st": _cmd_st,
    "st-bipoly": _cmd_st_bipoly,
    "st-algebra": _cmd_st_algebra,
    "essentialize": _cmd_essentialize,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.max_pairs is None:
            args.max_pairs = _env_int("STLOG_MAX_PAIRS",
                                      session.DEFAULT_MAX_PAIRS)
        if getattr(args, "max_eta_attempts", -1) is None:
            args.max_eta_attempts = _env_int("STLOG_MAX_ETA_ATTEMPTS", 16)
        with session.request(args.max_pairs):
            if args.command == "verify":
                return _cmd_verify(args)
            arr, mult = _load_arrangement(args.input)
            return _DISPATCH[args.command](args, arr, mult)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (GenericityNotFoundError, NonGenericEtaError,
            CertificateError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except StlogError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
