"""CLI: subcommands, exit codes, JSON determinism, eta parsing."""

import json

import pytest

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
    with pytest.raises(SystemExit) as exc:
        main(["chi", ex1_path, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_st_algebra_explicit_eta(capsys, ex1_path):
    code, out, _ = run(capsys, "st-algebra", ex1_path,
                       "--eta", "x1^2+x2^2+x3^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["colength"] == 14


def test_verify_named_suite(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "paper",
                       "--json-path", str(json_path))
    assert code == 0
    assert out.strip().endswith("PASS")
    report = json.loads(json_path.read_text())
    assert report["passed"] is True


def test_essentialize(capsys, tmp_path):
    path = tmp_path / "a.arr"
    path.write_text("ell 3\nH 1 0 0\nH 0 1 0 m=2\n")
    code, out, _ = run(capsys, "essentialize", str(path))
    assert code == 0
    assert out.splitlines()[0] == "ell 2"
    assert "m=2" in out


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


def test_budget_env_override(capsys, ex1_path, monkeypatch):
    monkeypatch.setenv("STLOG_MAX_PAIRS", "1")
    code, _, err = run(capsys, "betti", ex1_path, "-p", "2")
    assert code == 3
    assert "resource budget" in err


# -- one S-pair budget per request ------------------------------------------
# D^2 of ex2_B takes 71 S-pairs over its four engines (kernel and three
# resolution levels); `tame` computes D^0..D^4, 159 S-pairs in all.  These
# engines are tracked and process every pair.  `st-algebra` on ex2_A takes
# 98, most of them in the untracked colength engine, which skips the pairs
# the Gebauer-Moeller criteria make redundant (384 without them).

@pytest.mark.parametrize("command, budget, code", [
    (("betti", "-p", "2"), 70, 3), (("betti", "-p", "2"), 71, 0),
    (("tame",), 158, 3), (("tame",), 159, 0),
    (("st-algebra",), 97, 3), (("st-algebra",), 98, 0)])
def test_max_pairs_bounds_the_whole_request(capsys, tmp_path, command,
                                            budget, code):
    name = "ex2_A" if command[0] == "st-algebra" else "ex2_B"
    path = tmp_path / f"{name}.arr"
    path.write_text(fixture_text(name))
    got, _, err = run(capsys, *command, str(path), "--max-pairs", str(budget))
    assert got == code
    assert ("resource budget" in err) == (code == 3)


def test_each_request_has_its_own_budget(capsys, ex2_B_path):
    for _ in range(2):
        code, _, err = run(capsys, "betti", ex2_B_path, "-p", "2",
                           "--max-pairs", "71")
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
