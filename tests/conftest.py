"""Shared pytest plumbing: one request session per test file, and the
acceptance-criterion result lines echoed in the terminal summary so they
are visible without -s."""


import sys

import pytest

from stlog import groebner, session


@pytest.fixture(autouse=True, scope="module")
def _session_per_test_file():
    """Each test file runs as one request: its D^p results are shared
    within the file and never across files."""
    with session.request():
        yield


@pytest.fixture
def dropped_row(monkeypatch):
    """Drops the first level-0 Groebner row; returns the levels built."""
    original = groebner._minimal_level
    levels = []

    def dropping(gens, ambient):
        kept, F, syz, eng = original(gens, ambient)
        if not levels:
            del eng.rows[0]
        levels.append(F)
        return kept, F, syz, eng

    monkeypatch.setattr(groebner, "_minimal_level", dropping)
    return levels


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "RESULT_LINES", [])
            break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
