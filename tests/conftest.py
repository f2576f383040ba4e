"""Shared test plumbing: a recorder that echoes acceptance-criterion
verdict lines into the terminal summary, one line per criterion, and the
hypothesis profiles.

HYPOTHESIS_PROFILE=ci selects a derandomized profile that prints the blob
to replay a failure, so a property run in CI is reproducible; without it
the default (randomized) profile runs."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_CRITERION_LINES = []


def _record(line: str) -> None:
    _CRITERION_LINES.append(line)
    print(line)


@pytest.fixture(scope="session")
def criterion_log():
    return _record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
