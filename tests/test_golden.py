"""Golden CLI outputs: `tame`, `free` and `betti -p 2` on the five paper
fixtures, and `verify --suite paper`, must print exactly the JSON
recorded in the benchmark's reference files, which these tests only
read.  `st-bipoly` and `logmod -p 1` on the same fixtures must print
exactly the JSON in `golden-values.json` next to this file: it holds
the values' own encodings (`BiPolynomial`, `LaurentPolynomial`,
`Polynomial` and `RationalSeries.to_json`), which the bench's reference
outputs do not contain."""

import json
from pathlib import Path

import pytest

from stlog.cli import main
from stlog.fixtures import fixture_text

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
GOLDEN = json.loads((REFERENCE / "tame-paper.json").read_text())
VALUES = json.loads(
    (Path(__file__).resolve().parent / "golden-values.json").read_text())


def run_json(request_id, tmp_path, capsys):
    name, *command = request_id.split()
    path = tmp_path / f"{name}.arr"
    path.write_text(fixture_text(name))
    assert main([*command, str(path), "--json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("request_id", sorted(GOLDEN))
def test_cli_json_matches_reference(request_id, tmp_path, capsys):
    assert run_json(request_id, tmp_path, capsys) == GOLDEN[request_id]


@pytest.mark.parametrize("request_id", sorted(VALUES))
def test_value_json_matches_reference(request_id, tmp_path, capsys):
    assert run_json(request_id, tmp_path, capsys) == VALUES[request_id]


def test_verify_paper_matches_reference(capsys):
    assert main(["verify", "--suite", "paper", "--json"]) == 0
    assert capsys.readouterr().out == (REFERENCE / "verify-paper.json").read_text()
