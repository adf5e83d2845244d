from pathlib import Path

import pytest

from subid import parse_graph

ROOT = Path(__file__).resolve().parents[1]
GRAPH_DIR = ROOT / "graphs"
# One file per pinned ``subid identify`` call: the command line as typed at the
# repository root, ``# exit N``, then the exact stdout.  Tests, CI and the
# README read the example outputs from here only.
GOLDEN_DIR = ROOT / "tests" / "golden" / "cli"
GOLDEN_CLI = sorted(GOLDEN_DIR.glob("*.txt"))
# the same for ``subid verify`` calls, whose reports pin the oracle's numbers
GOLDEN_VERIFY = sorted((ROOT / "tests" / "golden" / "verify").glob("*.txt"))


def read_golden(path):
    """A golden file as (arguments after ``subid``, exit status, stdout)."""
    command, status, stdout = path.read_bytes().decode("utf-8").split("\n", 2)
    return command.split()[2:], int(status.removeprefix("# exit ")), stdout

# one line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the run summary so the verdicts survive output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def load_graph(name):
    return parse_graph((GRAPH_DIR / f"{name}.g").read_text()).graph


@pytest.fixture(scope="session")
def id_classic():
    return load_graph("id_classic")


@pytest.fixture(scope="session")
def medication():
    return load_graph("medication")


@pytest.fixture(scope="session")
def hedges():
    return load_graph("hedges")


@pytest.fixture(scope="session")
def recoverability():
    return load_graph("recoverability")


@pytest.fixture(scope="session")
def latent_selection():
    return load_graph("latent_selection")


@pytest.fixture(scope="session")
def demo_graph():
    return load_graph("demo")
