"""The planted-solution corpus: solve's verdict is the planted one, a safe
draw's labels pass verify_solution and an unsafe draw's counterexample is
model-checked."""

import random

import pytest

import conftest
from generators import planted_clause_set
from hornitp.errors import UnknownResult
from hornitp.horn import Valid, verify_solution
from hornitp.solver import Counterexample, Solved, solve
from hornitp.terms import FALSE, INT, REAL, TRUE
from test_solver import _assert_checked

DRAWS = 100  # each a safe set and its unsafe twin


def planted_verdicts(sort, draws):
    """Solve ``draws`` planted sets of ``sort`` and their unsafe twins from
    one seeded stream, asserting that each planted solution holds, that
    each verdict is the planted one and that each answer passes its check;
    return (safe draws solved with a non-trivial label, UnknownResult
    count)."""
    rng = random.Random(sort)
    labeled = unknown = 0
    for _ in range(draws):
        safe, unsafe, planted = planted_clause_set(rng, sort)
        assert isinstance(verify_solution(planted, safe), Valid)  # the generator's claim
        try:
            res = solve(safe)
        except UnknownResult:
            unknown += 1
        else:
            assert isinstance(res, Solved)
            assert isinstance(verify_solution(res.solution, safe), Valid)
            labeled += any(f is not TRUE and f is not FALSE
                           for _, f in res.solution.assignment.values())
        try:
            res = solve(unsafe)
        except UnknownResult:
            unknown += 1
        else:
            assert isinstance(res, Counterexample)
            _assert_checked(res, unsafe)
    return labeled, unknown


@pytest.mark.parametrize("sort", [INT, REAL])
def test_verdicts_are_the_planted_ones(sort):
    labeled, unknown = planted_verdicts(sort, DRAWS)
    conftest.acceptance_lines.append(
        f"PLANTED {sort}: {labeled}/{DRAWS} safe draws solved with a non-trivial label,"
        f" {unknown} UnknownResult over {2 * DRAWS} solves")
    assert 2 * labeled >= DRAWS
    assert sort == INT or unknown == 0
