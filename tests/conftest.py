"""Shared pytest plumbing: one request session per test file, and the
acceptance-criterion result lines echoed in the terminal summary so they
are visible without -s."""


import sys

import pytest

from stlog import session


@pytest.fixture(autouse=True, scope="module")
def _session_per_test_file():
    """Each test file runs as one request: its D^p results are shared
    within the file and never across files."""
    with session.request():
        yield


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
