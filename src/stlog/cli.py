"""Command-line interface.

Exit codes: 0 success, 1 check/genericity failure, 2 input error,
3 resource budget exceeded.  Every command runs as one request
(`session.request`): `--max-pairs` bounds all S-pairs of the request,
and a D^p the request has already computed is reused at no cost.
Each input has one way in: arrangement files are read by
`arrangement.load`, `--eta` by Python's own expression parser, and every
setting is a flag with its default in the argument parser.  A malformed
command line (unknown flag, bad value, missing argument) is a
`ParseError` like any other input error; only `--help` exits early.
Output cut short by a reader that closed the pipe (`| head`) ends the
request quietly, with exit 0.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import operator
import os
import sys

from . import arrangement as arrmod
from . import lattice as latmod
from . import logmod, session, stpoly, verify
from .exceptions import (CertificateError, GenericityNotFoundError,
                         NonGenericEtaError, ParseError, ResourceBudgetError,
                         StlogError)
from .ratpoly import Polynomial


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# eta: integers, variables x1..xl, + - *, ^ with an integer exponent, ( )

_ETA_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul}


def parse_eta(text: str, nvars: int) -> Polynomial:
    """The polynomial an eta expression spells.  Python's parser reads it
    (with ^ as the power operator); only the nodes of the grammar above
    are turned into a `Polynomial`, and anything else is a `ParseError`."""
    if "**" in text:
        raise ParseError("eta uses ^ for powers, not **")
    try:
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
        return _eta_polynomial(tree.body, nvars)
    except (SyntaxError, ValueError) as exc:
        raise ParseError(f"malformed eta: {exc.args[0]}")
    except (RecursionError, MemoryError):
        raise ParseError("eta is nested too deeply")


def _eta_polynomial(node, nvars: int) -> Polynomial:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Polynomial.constant(node.value, nvars)
    if isinstance(node, ast.Name):
        index = node.id[1:]
        if not (node.id[0] == "x" and index.isascii() and index.isdigit()):
            raise ParseError(f"unknown name {node.id!r} in eta")
        if not 1 <= int(index) <= nvars:
            raise ParseError(f"variable {node.id} out of range 1..{nvars}")
        return Polynomial.variable(int(index) - 1, nvars)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        operand = _eta_polynomial(node.operand, nvars)
        return -operand if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp = node.right
        if isinstance(exp, ast.Constant) and type(exp.value) is int:
            return _eta_polynomial(node.left, nvars) ** exp.value
        raise ParseError("exponent must be a non-negative integer")
    if isinstance(node, ast.BinOp) and type(node.op) in _ETA_OPS:
        return _ETA_OPS[type(node.op)](_eta_polynomial(node.left, nvars),
                                       _eta_polynomial(node.right, nvars))
    raise ParseError("eta allows only integers, x1..xl, + - * ^ and "
                     "parentheses")


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
    chi = latmod.characteristic_polynomial(arr, report)
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
    stpoly.certify_chi(arr, mult, chi)
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


def _order_d(args) -> int:
    """d of an order d+1 given by --order, which must be at least 2."""
    if args.order < 2:
        raise ParseError("--order must be at least 2")
    return args.order - 1


def _cmd_st(args, arr, mult):
    st = stpoly.st_polynomial_order(arr, mult, _order_d(args))
    # Psi once more from the request's f_p, for its chi
    stpoly.certify_chi(arr, mult, stpoly.char_polynomial_multi(arr, mult))
    if args.json:
        print(_dump({"order": args.order, "st": st.to_json()}))
    else:
        print(st.render("x"))
    return 0


def _cmd_st_bipoly(args, arr, mult):
    st = stpoly.st_bipoly(arr, mult)
    stpoly.certify_chi(arr, mult, st.chi())
    if args.json:
        print(_dump(st.to_json()))
    else:
        print(f"Psi = {st.psi}")
        for p in sorted(st.numerators):
            print(f"f_{p} = {st.numerators[p]}   "
                  f"(a_{p} = {st.a[p]}, b_{p} = {st.b[p]})")
    return 0


def _cmd_st_algebra(args, arr, mult):
    d = _order_d(args)
    if args.eta and args.eta != "random":
        eta = parse_eta(args.eta, arr.ell)
        if eta.is_zero() or not eta.is_homogeneous():
            raise ParseError("eta must be nonzero and homogeneous")
        if eta.degree() != args.order:
            raise ParseError(f"eta has degree {eta.degree()}, but --order "
                             f"{args.order} needs degree {args.order}")
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
    if not arr.n:
        raise ParseError("essentialize needs an arrangement of rank at "
                         "least 1; this one has no hyperplanes")
    ess, essm = arrmod.essentialize(arr, mult)
    if args.json:
        print(_dump(arrmod.to_json(ess, essm)))
    else:
        sys.stdout.write(arrmod.render(ess, essm))
    return 0


def _cmd_verify(args):
    if args.input and args.suite:
        raise ParseError("verify takes arrangement files or --suite, "
                         "not both")
    suite = "file" if args.input else args.suite or "paper"
    report = verify.run_suite(suite, seed=args.seed, paths=args.input)
    print(_dump(report) if args.json else verify.render_report(report))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise `ParseError` instead of
    printing usage and exiting, so `main` reports them as input errors.
    Subcommand parsers are built from the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _budget(text: str) -> int:
    """A budget of S-pairs or attempts: an int, and not negative (0 allows
    none)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="stlog",
        description="Exact invariants of hyperplane multiarrangements: "
                    "logarithmic modules, free resolutions, Solomon-Terao "
                    "polynomials and algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler=None, p_flag=False, essential=False):
        """The options every subcommand shares; one with a handler reads
        an arrangement file, which `essential` requires to be essential."""
        if handler:
            p.add_argument("input", help="arrangement file")
            p.set_defaults(handler=handler, essential=essential)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--max-pairs", type=_budget,
                       default=session.DEFAULT_MAX_PAIRS,
                       help="S-pair budget of the whole request "
                            "(default %(default)s)")
        if p_flag:
            p.add_argument("-p", type=int, default=1,
                           help="exterior order (default 1)")
            p.add_argument("--omega", action="store_true",
                           help="differential forms instead of derivations")

    common(sub.add_parser("info", help="rank, essentiality, irreducibility"),
           _cmd_info)
    common(sub.add_parser("lattice", help="intersection lattice and Moebius"),
           _cmd_lattice)
    common(sub.add_parser("chi", help="characteristic polynomial"),
           _cmd_chi, essential=True)
    common(sub.add_parser("logmod", help="minimal generators of D^p/Omega^p"),
           _cmd_logmod, p_flag=True)
    common(sub.add_parser("betti", help="graded Betti table of D^p/Omega^p"),
           _cmd_betti, p_flag=True)
    common(sub.add_parser("free", help="freeness and Saito certificate"),
           _cmd_free)
    common(sub.add_parser("tame", help="tameness via pd Omega^p"), _cmd_tame)
    p_st = sub.add_parser("st", help="Solomon-Terao polynomial")
    common(p_st, _cmd_st, essential=True)
    p_st.add_argument("--order", type=int, default=2,
                      help="order d+1 of the polynomial (default 2)")
    common(sub.add_parser("st-bipoly", help="Solomon-Terao bi-polynomial"),
           _cmd_st_bipoly, essential=True)
    p_alg = sub.add_parser("st-algebra", help="Solomon-Terao algebra")
    common(p_alg, _cmd_st_algebra)
    p_alg.add_argument("--order", type=int, default=2,
                       help="order d+1 of the algebra (default 2)")
    p_alg.add_argument("--eta", default="random",
                       help="'random', or a polynomial in x1..xl with "
                            "integers, + - *, ^ and parentheses; write one "
                            "that starts with '-' as --eta=EXPR")
    p_alg.add_argument("--max-eta-attempts", type=_budget, default=16,
                       help="random etas to try before giving up "
                            "(default %(default)s)")
    p_alg.add_argument("--seed", type=int, default=0,
                       help="seed for sampling a random eta (default 0)")
    common(sub.add_parser("essentialize", help="essential equivalent"),
           _cmd_essentialize)
    p_ver = sub.add_parser("verify", help="run the verification suite")
    common(p_ver)
    p_ver.add_argument("input", nargs="*", metavar="FILE",
                       help="arrangement files to check (no --suite then)")
    p_ver.add_argument("--suite", choices=("paper", "random"),
                       help="named corpus when no file is given "
                            "(default paper)")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed of the random corpus and of the random "
                            "etas (default 0)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it."""
    return build_parser()


def _run(args) -> int:
    if args.command == "verify":
        return _cmd_verify(args)
    arr, mult = arrmod.load(args.input)
    if args.essential and not arrmod.is_essential(arr):
        raise ParseError(
            f"{args.command} needs an essential arrangement; `stlog "
            f"essentialize {args.input}` prints an equivalent one")
    return args.handler(args, arr, mult)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with session.request(args.max_pairs):
            code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; stdout goes to devnull so that
        # the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (GenericityNotFoundError, NonGenericEtaError,
            CertificateError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except StlogError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
