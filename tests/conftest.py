"""Shared pytest configuration.

Collects the acceptance gate's per-criterion verdict lines and replays them
in the terminal summary, where pytest's output capture cannot hide them,
builds the corpora that more than one test module reads, and records the
trees the solver labels.
"""

import random

import pytest

from generators import random_unsat_pair
from hornitp import solver
from hornitp.engine import sat

acceptance_lines: list = []


@pytest.fixture(scope="session")
def unsat_pairs() -> tuple:
    """Criterion 6's corpus: the first 200 ``random_unsat_pair`` draws from
    ``Random(99)``.  Rejection sampling makes it cost tens of thousands of
    ``sat`` calls, so it is built once per session."""
    rng = random.Random(99)
    return tuple(random_unsat_pair(rng, sat) for _ in range(200))


@pytest.fixture
def solved_trees(monkeypatch) -> list:
    """Every (tree problem, labels) that ``solver._label_tree_problem``
    returns during the test, in order: each tree that ``solve`` labels, and
    each that ``tree_interpolate`` labels before its final check."""
    trees = []
    label_tree_problem = solver._label_tree_problem

    def recording(tp, options):
        labels = label_tree_problem(tp, options)
        trees.append((tp, labels))
        return labels

    monkeypatch.setattr(solver, "_label_tree_problem", recording)
    return trees


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
