"""Shared pytest configuration.

Collects the acceptance gate's per-criterion verdict lines and replays them
in the terminal summary, where pytest's output capture cannot hide them, and
builds the corpora that more than one test module reads.
"""

import random

import pytest

from generators import random_unsat_pair
from hornitp.engine import sat

acceptance_lines: list = []


@pytest.fixture(scope="session")
def unsat_pairs() -> tuple:
    """Criterion 6's corpus: the first 200 ``random_unsat_pair`` draws from
    ``Random(99)``.  Rejection sampling makes it cost tens of thousands of
    ``sat`` calls, so it is built once per session."""
    rng = random.Random(99)
    return tuple(random_unsat_pair(rng, sat) for _ in range(200))


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
