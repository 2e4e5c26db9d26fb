"""Shared fixtures and the per-criterion summary lines.

The acceptance suite (test_acceptance.py) carries one test per numbered
criterion; the terminal-summary hook below turns their outcomes into one
"criterion N: PASS/FAIL" line each, ending in the seconds of the test's
call phase, so the verdicts and their cost survive in captured pytest
output.
"""

import re

import pytest

from superw.pyramid import enumerate_pyramids, from_shift
from superw.tableau import Tableau
from superw.yangian import algebra_for

# flagship example used throughout: p = (2, 3, 4), minus/plus/minus rows
FLAG_SHIFT = [[0, 1, 1], [0, 0, 0], [1, 1, 0]]
FLAG_ELL = 4
FLAG_SIGNS = "101"

# four-row pyramid with a super-Serre index; brings the distant relations
PY4_SHIFT = [[0, 0, 1, 2], [0, 0, 1, 2], [0, 0, 0, 1], [1, 1, 1, 0]]
PY4_ELL = 4
PY4_SIGNS = "0101"

# short per-criterion annotations, filled in by the acceptance tests
ACCEPTANCE_DETAILS: dict[int, str] = {}


@pytest.fixture(scope="session")
def gl36():
    return from_shift(FLAG_SHIFT, FLAG_ELL, FLAG_SIGNS)


@pytest.fixture(scope="session")
def py4():
    return from_shift(PY4_SHIFT, PY4_ELL, PY4_SIGNS)


@pytest.fixture(scope="module")
def alg36(gl36):
    return algebra_for(gl36)


@pytest.fixture(scope="session")
def worked_tableau(gl36):
    # column-connected filling whose eigenvalue tables are frozen in the tests
    return Tableau.from_rows(gl36, [[-2, -2], [1, 1, 1], [3, -2, -2, -2]])


@pytest.fixture(scope="session")
def pyramids8():
    """Every pyramid with at most 8 boxes, over every sign word."""
    return list(enumerate_pyramids(8))


@pytest.fixture(scope="session")
def acceptance_details():
    return ACCEPTANCE_DETAILS


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_0*(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    seconds: dict[int, float] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", "") or "")
            if m:
                n = int(m.group(1))
                # a failed call outranks a passed setup report
                if outcomes.get(n) != "failed":
                    outcomes[n] = status
                if getattr(rep, "when", None) == "call":
                    seconds[n] = rep.duration
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in range(1, 11):
        status = outcomes.get(n)
        if status == "passed":
            line = f"criterion {n}: PASS"
            if n in ACCEPTANCE_DETAILS:
                line += f" ({ACCEPTANCE_DETAILS[n]})"
        elif status is None:
            line = f"criterion {n}: NOT RUN"
        else:
            line = f"criterion {n}: FAIL ({status})"
        if n in seconds:
            line += f" [{seconds[n]:.1f} s]"
        terminalreporter.write_line(line)
