"""Shared test plumbing: a recorder that echoes acceptance-criterion
verdict lines into the terminal summary, one line per criterion, and the
hypothesis profiles.

HYPOTHESIS_PROFILE=ci selects a derandomized profile that prints the blob
to replay a failure, so a property run in CI is reproducible; without it
the default (randomized) profile runs.

The seeded pins (digests and values of seeded runs) hold bits that numpy
and scipy compute, and neither promises the same bits across versions:
`pinned_under` gives the message a failing pin prints, naming the versions
it was frozen under and the versions running."""

import importlib.metadata
import os

import numpy as np
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


@pytest.fixture(scope="session")
def pinned_under():
    def message(numpy: str, scipy: str) -> str:
        return (f"pinned under numpy {numpy} and scipy {scipy}; running numpy {np.__version__} and "
                f"scipy {importlib.metadata.version('scipy')}")

    return message


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
