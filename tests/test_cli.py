"""CLI: subcommands, exit codes, JSON determinism, eta parsing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stlog
from stlog import verify
from stlog.cli import main, parse_eta
from stlog.exceptions import ParseError
from stlog.fixtures import fixture_text
from stlog.ratpoly import Polynomial


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.arr"
    path.write_text(fixture_text("ex1"))
    return str(path)


@pytest.fixture
def bool3_path(tmp_path):
    path = tmp_path / "bool3.arr"
    path.write_text(fixture_text("bool3"))
    return str(path)


@pytest.fixture
def ex2_B_path(tmp_path):
    path = tmp_path / "ex2_B.arr"
    path.write_text(fixture_text("ex2_B"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_st_prints_known_polynomial(capsys, ex1_path):
    code, out, _ = run(capsys, "st", ex1_path)
    assert code == 0
    assert out.strip() == "x^4 + 4*x^3 + 5*x^2 + 3*x + 1"


def test_chi_boolean(capsys, bool3_path):
    code, out, _ = run(capsys, "chi", bool3_path)
    assert code == 0
    assert out.strip() == "t^3 - 3*t^2 + 3*t - 1"


def test_info_json_schema(capsys, ex1_path):
    code, out, _ = run(capsys, "info", ex1_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ell"] == 3
    assert data["essential"] is True
    assert data["irreducible"] is True
    assert data["total_multiplicity"] == 4


def test_betti_json_schema(capsys, ex1_path):
    code, out, _ = run(capsys, "betti", ex1_path, "-p", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pd"] == 1 and data["reg"] == 3
    assert {"i": 0, "d": 3, "count": 4} in data["betti"]
    assert {"i": 1, "d": 4, "count": 1} in data["betti"]


def test_free_and_tame(capsys, tmp_path):
    path = tmp_path / "a.arr"
    path.write_text(fixture_text("ex2_A"))
    code, out, _ = run(capsys, "free", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["free"] and data["exponents"] == [1, 3, 3, 3]
    path.write_text(fixture_text("ex2_B"))
    code, out, _ = run(capsys, "tame", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tame"] is False
    assert data["pd_omega"]["1"] == 2


def test_st_algebra_deterministic_json(capsys, ex1_path):
    code, out1, _ = run(capsys, "st-algebra", ex1_path, "--json", "--seed", "0")
    assert code == 0
    code, out2, _ = run(capsys, "st-algebra", ex1_path, "--json", "--seed", "0")
    assert code == 0
    assert out1 == out2        # byte-identical given identical seed


def test_seed_only_where_it_is_read(capsys, ex1_path):
    # chi draws no random numbers, so a seed there is an input error
    code, out, err = run(capsys, "chi", ex1_path, "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--seed" in err


@pytest.mark.parametrize("argv, flag", [
    (("chi", "{path}", "--max-pairs", "many"), "--max-pairs"),
    (("chi", "{path}", "--max-pairs", "-5"), "--max-pairs"),
    (("chi", "{path}", "--frobnicate"), "--frobnicate"),
    (("st-algebra", "{path}", "--eta", "-x1^2-x2^2-x3^2"), "--eta"),
    (("betti", "{path}", "-p"), "-p"),
    ((), "command")],
    ids=["bad-max-pairs", "negative-max-pairs", "unknown-flag",
         "eta-starting-with-minus", "missing-value", "no-command"])
def test_argument_errors_are_input_errors(capsys, ex1_path, argv, flag):
    code, out, err = run(capsys, *(a.format(path=ex1_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("input error: stlog") and flag in err


def test_eta_starting_with_minus_is_given_with_equals(capsys, ex1_path):
    code, out, _ = run(capsys, "st-algebra", ex1_path,
                       "--eta=-x1^2-x2^2-x3^2", "--json")
    assert code == 0
    assert json.loads(out)["colength"] == 14


@pytest.mark.parametrize("argv", [["--help"], ["chi", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: stlog" in capsys.readouterr().out


def test_st_algebra_explicit_eta(capsys, ex1_path):
    code, out, _ = run(capsys, "st-algebra", ex1_path,
                       "--eta", "x1^2+x2^2+x3^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["colength"] == 14


def test_verify_named_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "paper" and report["passed"] is True


def test_verify_files_report_equals_run_suite(capsys, ex1_path):
    code, out, _ = run(capsys, "verify", ex1_path, "--json")
    assert code == 0
    expected = verify.run_suite("file", paths=[ex1_path])
    assert json.loads(out) == json.loads(json.dumps(expected))
    assert expected["suite"] == "file" and expected["items"] == 1


def test_verify_files_with_suite_is_input_error(capsys, ex1_path):
    code, out, err = run(capsys, "verify", ex1_path, "--suite", "paper")
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_verify_missing_file_is_input_error(capsys, ex1_path):
    code, _, err = run(capsys, "verify", ex1_path, "/no/such/file.arr")
    assert code == 2
    assert err.startswith("input error:") and "/no/such/file.arr" in err


@pytest.mark.parametrize("command", ["chi", "verify"])
def test_non_utf8_file_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.arr"
    path.write_bytes("# caf\u00e9\nell 2\nH 1 0\nH 0 1\n".encode("latin-1"))
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("input error:") and "UTF-8" in err


def test_essentialize(capsys, tmp_path):
    path = tmp_path / "a.arr"
    path.write_text("ell 3\nH 1 0 0\nH 0 1 0 m=2\n")
    code, out, _ = run(capsys, "essentialize", str(path))
    assert code == 0
    assert out.splitlines()[0] == "ell 2"
    assert "m=2" in out


def test_essentialize_refuses_rank_0(capsys, tmp_path):
    # its essential equivalent would be `ell 0`, which `load` refuses
    path = tmp_path / "empty.arr"
    path.write_text("ell 2\n")
    code, out, err = run(capsys, "essentialize", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "rank" in err


def test_closed_pipe_exits_quietly(tmp_path):
    # the reader closes stdout before anything is written, as `| head -c
    # 200` does once it has its bytes
    path = tmp_path / "ex2_B.arr"
    path.write_text(fixture_text("ex2_B"))
    env = {**os.environ, "PYTHONPATH": str(Path(stlog.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "stlog.cli", "logmod", str(path), "-p", "1",
         "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


@pytest.mark.parametrize("command", ["chi", "st", "st-bipoly"])
@pytest.mark.parametrize("text", ["ell 3\nH 1 0 0\nH 0 1 0\n", "ell 2\n"])
def test_non_essential_input_names_the_command_and_the_remedy(
        capsys, tmp_path, command, text):
    path = tmp_path / "planes.arr"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == (f"input error: {command} needs an essential arrangement; "
                   f"`stlog essentialize {path}` prints an equivalent one\n")


def test_lattice_requires_simple(capsys, tmp_path):
    path = tmp_path / "a.arr"
    path.write_text("ell 2\nH 1 0 m=2\nH 0 1\n")
    code, _, err = run(capsys, "lattice", str(path))
    assert code == 2
    assert "input error" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "st", "/no/such/file.arr")
    assert code == 2
    assert "input error" in err


def test_exit_code_parse_error_has_line(capsys, tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("ell 2\nH 1\n")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert "line 2" in err


def test_exit_code_genericity_budget(capsys, ex1_path):
    code, _, err = run(capsys, "st-algebra", ex1_path,
                       "--max-eta-attempts", "0")
    assert code == 1
    assert "check failure" in err


# -- one S-pair budget per request ------------------------------------------
# D^2 of ex2_B takes 60 S-pairs over its four engines (kernel and three
# resolution levels); `tame` computes D^0..D^4, 134 S-pairs in all, none
# for D^0 and D^4, which are read off in closed form (D^4 took 8 when it
# was a kernel and a resolution too).  The kernel and resolution level
# engines skip the pairs the Gebauer-Moeller criteria make redundant (71
# and 151 without them), all but the coprime-lead one, which would lose
# syzygies.  `st-algebra` on ex2_A takes 98, most of them in the
# untracked colength engine, which skips with every criterion (384
# without them).

@pytest.mark.parametrize("command, budget, code", [
    (("betti", "-p", "2"), 59, 3), (("betti", "-p", "2"), 60, 0),
    (("tame",), 133, 3), (("tame",), 134, 0),
    (("st-algebra",), 97, 3), (("st-algebra",), 98, 0),
    (("betti", "-p", "2"), 0, 3)])      # 0 is a budget, not a refused value
def test_max_pairs_bounds_the_whole_request(capsys, tmp_path, command,
                                            budget, code):
    name = "ex2_A" if command[0] == "st-algebra" else "ex2_B"
    path = tmp_path / f"{name}.arr"
    path.write_text(fixture_text(name))
    got, _, err = run(capsys, *command, str(path), "--max-pairs", str(budget))
    assert got == code
    assert ("resource budget" in err) == (code == 3)


def test_degree_beyond_a_packed_field_exits_3(capsys, tmp_path):
    # x1^40000 is one term, but no packed exponent field holds it
    path = tmp_path / "high.arr"
    path.write_text("ell 2\nH 1 0 m=40000\nH 0 1\n")
    code, _, err = run(capsys, "logmod", str(path), "-p", "1")
    assert code == 3
    assert "resource budget" in err and "degree 40000" in err


@pytest.mark.parametrize("command", [("chi",), ("logmod", "-p", "1")])
def test_degree_is_checked_before_a_power_is_expanded(capsys, tmp_path,
                                                      command):
    # (x1 + x2)^40000 has 40001 terms with binomial coefficients of up to
    # 40000 bits; expanded before the degree check, it took minutes
    path = tmp_path / "high.arr"
    path.write_text("ell 2\nH 1 1 m=40000\nH 1 0\n")
    start = time.perf_counter()
    code, _, err = run(capsys, *command, str(path))
    assert code == 3
    assert "resource budget" in err and "degree 40000" in err
    assert time.perf_counter() - start < 20


def test_each_request_has_its_own_budget(capsys, ex2_B_path):
    for _ in range(2):
        code, _, err = run(capsys, "betti", ex2_B_path, "-p", "2",
                           "--max-pairs", "60")
        assert code == 0, err


def test_st_algebra_eta_builds_ideal_generators_once(capsys, ex1_path,
                                                     monkeypatch):
    from stlog import stpoly
    calls = []
    original = stpoly.st_ideal_generators

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(stpoly, "st_ideal_generators", counted)
    code, out, _ = run(capsys, "st-algebra", ex1_path,
                       "--eta", "x1^2+x2^2+x3^2", "--json")
    assert code == 0
    assert len(calls) == 1
    assert len(json.loads(out)["ideal_generators"]) == 4


# -- eta parser -------------------------------------------------------------

def test_parse_eta_basic():
    p = parse_eta("x1^2 + 2*x2^2 - x1*x2", 2)
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert p == x * x + (y * y).scale(2) - x * y


def test_parse_eta_signs_and_parens():
    p = parse_eta("-(x1 - x2)^2", 2)
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert p == -((x - y) * (x - y))


def test_parse_eta_errors():
    with pytest.raises(ParseError):
        parse_eta("x3", 2)
    with pytest.raises(ParseError):
        parse_eta("x1 +", 2)
    with pytest.raises(ParseError):
        parse_eta("x1 ^ x2", 2)
    with pytest.raises(ParseError):
        parse_eta("x1 ? 3", 2)
    # Python syntax outside the eta grammar
    for text in ("x1**2", "x1 ^ -1", "x1^2.0", "x1/x2", "True", "2.5",
                 "x1 < x2", "abs(x1)", "y", "x1.real", "-x0", ""):
        with pytest.raises(ParseError):
            parse_eta(text, 2)


@pytest.mark.parametrize("eta", ["(" * 300 + "x1" + ")" * 300,
                                 "-" * 100_000 + "x1"],
                         ids=["300-parentheses", "100000-signs"])
def test_over_nested_eta_is_input_error(capsys, ex1_path, eta):
    code, _, err = run(capsys, "st-algebra", ex1_path, f"--eta={eta}")
    assert code == 2
    assert err.startswith("input error:")


# Random expression trees over the documented grammar: each renders to
# text with only the parentheses that precedence needs, plus random extra
# ones, and evaluates to its polynomial by the same operations directly.

NVARS = 3
_PREC = {"+": 1, "-": 1, "*": 2, "neg": 3, "pos": 3, "^": 4}


def _leaf():
    return st.one_of(
        st.integers(0, 10**6).map(lambda c: ("int", c)),
        st.integers(1, NVARS).map(lambda i: ("var", i)))


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children),
        st.tuples(st.sampled_from(["neg", "pos"]), children),
        st.tuples(st.just("^"), children, st.integers(0, 3)),
        st.tuples(st.just("paren"), children))


def _render(tree) -> tuple[str, int]:
    """Text of `tree` and the precedence of its outermost operator."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), 5
    if kind == "var":
        return f"x{tree[1]}", 5
    if kind == "paren":
        return f"({_render(tree[1])[0]})", 5

    def operand(sub, least):
        text, prec = _render(sub)
        return text if prec >= least else f"({text})"

    prec = _PREC[kind]
    if kind in ("neg", "pos"):
        return ("-" if kind == "neg" else "+") + operand(tree[1], prec), prec
    if kind == "^":
        return f"{operand(tree[1], 5)}^{tree[2]}", prec
    left, right = operand(tree[1], prec), operand(tree[2], prec + 1)
    return f"{left} {kind} {right}", prec


def _evaluate(tree) -> Polynomial:
    kind = tree[0]
    if kind == "int":
        return Polynomial.constant(tree[1], NVARS)
    if kind == "var":
        return Polynomial.variable(tree[1] - 1, NVARS)
    if kind in ("paren", "pos"):
        return _evaluate(tree[1])
    if kind == "neg":
        return -_evaluate(tree[1])
    if kind == "^":
        return _evaluate(tree[1]) ** tree[2]
    left, right = _evaluate(tree[1]), _evaluate(tree[2])
    if kind == "+":
        return left + right
    return left - right if kind == "-" else left * right


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaf(), _node, max_leaves=8))
def test_parse_eta_matches_expression_tree(tree):
    text, _ = _render(tree)
    assert parse_eta(text, NVARS) == _evaluate(tree)
