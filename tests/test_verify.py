"""Verification harness: individual checks and suite plumbing, and the
product rule, which only the tests check."""

import pytest

import crosschecks
from stlog import verify
from stlog.arrangement import Multiplicity, parse
from stlog.fixtures import load


def test_chi_specialization_fixtures():
    for name in ("ex1", "bool3", "generic_3_4"):
        arr, _ = load(name)
        report = verify.check_chi_specialization(arr, subject=name)
        assert report.verdict == "pass", name


@pytest.mark.parametrize("text", ["ell 3\nH 1 0 0\nH 0 1 0\n", "ell 2\n"],
                         ids=["two-planes-in-3-space", "empty"])
def test_checks_not_applicable_when_inessential(tmp_path, text):
    # each check says so itself: none computes ST, which needs an
    # essential arrangement, before it looks; so a file suite passes
    arr, mult = parse(text)
    reports = [verify.check_chi_specialization(arr),
               verify.check_second_coefficient(arr, mult),
               verify.check_low_degree_coefficients(arr, mult, 1)]
    assert [(r.verdict, r.witness) for r in reports] == [
        ("not-applicable", {"reason": "arrangement not essential"})] * 3
    (tmp_path / "a.arr").write_text(text)
    suite = verify.run_suite("file", paths=[str(tmp_path / "a.arr")])
    assert suite["passed"] and {c["verdict"] for c in suite["checks"]} \
        == {"not-applicable"}


def test_monic_degree_tame_and_beyond():
    arr, mult = load("ex1")
    for d in (1, 2, 3):
        report = verify.check_monic_degree(arr, mult, d)
        assert report.verdict == "pass", d
    arr, mult = load("ex2_B")
    report = verify.check_monic_degree(arr, mult, 1)
    assert report.verdict == "beyond-theorem"       # monic despite non-tame


def test_second_coefficient_known_values():
    arr, mult = load("ex1")
    report = verify.check_second_coefficient(arr, mult)
    assert report.verdict == "pass"
    assert report.witness["degree_n_relations"] == 1    # 4 = 3 + 1
    arr, mult = load("ex2_Aprime")
    report = verify.check_second_coefficient(arr, mult)
    assert report.verdict == "pass"
    assert report.witness["degree_n_relations"] == 0    # 4 = 4 + 0
    arr, mult = load("ex2_B")
    report = verify.check_second_coefficient(arr, mult)
    assert report.verdict == "not-applicable"           # 3 < l = 4, non-tame
    assert report.computed == "3"


def test_regularity_bounds_all_fixtures():
    for name in ("ex1", "ex2_B", "bool2", "generic_3_4"):
        arr, mult = load(name)
        report = verify.check_regularity_bounds(arr, mult, subject=name)
        assert report.verdict == "pass", name


def test_free_formulas():
    arr, mult = load("ex2_A")
    report = verify.check_free_formulas(arr, mult)
    assert report.verdict == "pass"
    arr, mult = load("ex1")
    assert verify.check_free_formulas(arr, mult).verdict == "not-applicable"


def test_low_degree_coefficients():
    arr, mult = load("ex1")
    report = verify.check_low_degree_coefficients(arr, mult, 1)
    assert report.verdict == "pass"
    # 1, 3, then 5 = 6 - 1 (Euler derivation in degree 1)
    assert report.claimed == [1, 3, 5]
    arr, mult = load("ex2_Aprime")
    report = verify.check_low_degree_coefficients(arr, mult, 1)
    assert report.verdict == "pass"
    assert report.claimed == [1, 4, 9]      # 9 = 10 - 1


def test_st_algebra_equality():
    arr, mult = load("ex1")
    for d in (1, 2):
        report = verify.check_st_algebra_equality(arr, mult, d, seed=0)
        assert report.verdict == "pass", d
    arr, mult = load("ex2_B")
    report = verify.check_st_algebra_equality(arr, mult, 1, seed=0)
    assert report.verdict == "not-applicable"
    assert report.witness["equal"] is False     # both sides computed, differ


def test_st_algebra_equality_at_order_3():
    # the colength engine of a degree-3 eta over a rank-4 arrangement:
    # without interreduction its coefficients swelled past 50 000 bits
    arr, mult = load("ex2_A")
    report = verify.check_st_algebra_equality(arr, mult, 2, seed=0)
    assert report.verdict == "pass"


def test_product_rule():
    b1, m1 = load("bool1")
    b2, m2 = load("bool2")
    crosschecks.check_product_rule(b1, m1, b2, m2)
    crosschecks.check_product_rule(*load("ex1"), b1, m1)


def test_random_corpus_is_deterministic():
    a = verify.random_corpus(7)
    b = verify.random_corpus(7)
    assert len(a) == 50
    assert [(arr, mult.values) for _, arr, mult in a] == \
        [(arr, mult.values) for _, arr, mult in b]
    c = verify.random_corpus(8)
    assert [arr for _, arr, _ in a] != [arr for _, arr, _ in c]


def test_run_suite_paper_passes():
    report = verify.run_suite("paper", seed=0)
    assert report["passed"]
    assert report["failures"] == 0
    assert report["items"] == len(verify.PAPER_CORPUS)
    text = verify.render_report(report)
    assert text.endswith("PASS")


def test_run_suite_random_passes():
    # 50 arrangements whose Psi specializations must equal the lattice's chi
    report = verify.run_suite("random", seed=0)
    assert report["items"] == 50
    assert report["failures"] == 0 and report["passed"]
    chi = [c for c in report["checks"] if c["check"] == "chi-specialization"]
    assert len(chi) == 50
    assert all(c["verdict"] == "pass" for c in chi)


def test_run_suite_file(tmp_path):
    path = tmp_path / "a.arr"
    path.write_text("ell 2\nH 1 0\nH 0 1\nH 1 1\n")
    report = verify.run_suite("file", seed=0, paths=[str(path)])
    assert report["passed"]
    assert report["items"] == 1


def test_run_suite_empty_file_corpus():
    report = verify.run_suite("file", seed=0, paths=())
    assert report["passed"]
    assert report["items"] == 0
    assert report["checks"] == []
