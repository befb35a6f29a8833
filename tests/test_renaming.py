"""Propositional termination property and Horn renaming."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_prop_clauses
from hornitp import renaming
from hornitp.errors import ParseError, WrongFragment
from hornitp.renaming import (
    NonTerminating,
    PropClauseSet,
    Renaming,
    Terminating,
    compute_renaming,
    emit_dimacs,
    has_termination_property,
    is_horn,
    literal_graph,
    parse_dimacs,
    prop_dependence_acyclic,
    rename,
)

# the worked example: a=1 b=2 p=3 q=4 r=5 s=6
A, B, P, Q, R, S = 1, 2, 3, 4, 5, 6
EXAMPLE = [[-A, S], [A, -P], [P, -B], [B, P, R], [-P, Q]]


def _example():
    return PropClauseSet.make(EXAMPLE)


def _truth_value(clauses, model):
    return all(any((l > 0) == model[abs(l)] for l in c) for c in clauses)


class TestIsHorn:
    def test_example_not_horn(self):
        assert not is_horn(_example())  # b or p or r has three positives

    def test_empty_set_horn(self):
        assert is_horn(PropClauseSet.make([]))

    def test_renamed_example_horn(self):
        cs = _example()
        assert is_horn(rename(cs, compute_renaming(cs)))


class TestLiteralGraph:
    def test_edge_symmetry(self):
        rng = random.Random(12)
        for _ in range(50):
            clauses, n = random_prop_clauses(rng)
            succ = literal_graph(PropClauseSet.make(clauses, n))
            for l, outs in succ.items():
                for m in outs:
                    assert -l in succ[-m]

    def test_duplicate_literal_creates_edge(self):
        succ = literal_graph(PropClauseSet.make([[P, P]]))
        assert P in succ[-P]

    def test_unit_clause_creates_no_edge(self):
        succ = literal_graph(PropClauseSet.make([[P]]))
        assert all(not outs for outs in succ.values())


class TestTerminationProperty:
    def test_example_terminating_with_deterministic_order(self):
        result = has_termination_property(_example())
        assert isinstance(result, Terminating)
        pos = {l: i for i, l in enumerate(result.order)}
        # the order is compatible with the literal graph
        succ = literal_graph(_example())
        for l, outs in succ.items():
            for m in outs:
                assert pos[l] < pos[m]

    def test_mutual_dependence_nonterminating(self):
        result = has_termination_property(PropClauseSet.make([[P, -Q], [Q, -P]]))
        assert isinstance(result, NonTerminating)
        assert {abs(l) for l in result.cycle} == {P, Q}

    def test_tautology_nonterminating(self):
        result = has_termination_property(PropClauseSet.make([[P, -P]]))
        assert isinstance(result, NonTerminating)

    def test_horn_termination_iff_recursion_free(self):
        rng = random.Random(8)
        for _ in range(200):
            clauses, n = random_prop_clauses(rng, horn=True)
            cs = PropClauseSet.make(clauses, n)
            assert is_horn(cs)
            terminating = bool(has_termination_property(cs))
            assert terminating == prop_dependence_acyclic(cs)

    def test_long_horn_chain_dependence(self):
        # (n) and (i or not i+1): a dependence path through all 3,000
        # variables, walked without recursion; closing it with (n or not 1)
        # makes it one cycle
        n = 3000
        chain = [[n]] + [[i, -(i + 1)] for i in range(1, n)]
        assert prop_dependence_acyclic(PropClauseSet.make(chain, n))
        assert not prop_dependence_acyclic(PropClauseSet.make(chain[1:] + [[n, -1]], n))


    def test_cycle_matches_layered_peeling(self):
        # criterion 9's draws, and chains (i or not i+1) closed by
        # (n or not n-1), where peeling one layer per pass is quadratic
        rng = random.Random(7)
        sets = [PropClauseSet.make(*random_prop_clauses(rng)) for _ in range(400)]
        sets += [_closed_chain(n) for n in (2, 3, 50, 400)]
        cycles = 0
        for cs in sets:
            result, expected = has_termination_property(cs), _reference_cycle(cs)
            if expected is None:
                assert isinstance(result, Terminating)
            else:
                assert result == NonTerminating(expected)
                cycles += 1
        assert cycles >= 90

    def test_cycle_extraction_is_linear_on_a_closed_chain(self, monkeypatch):
        # the leftover literals are 1..n, -(n-1) and -n; 1..n-2 hang off the
        # cycle n-1 -> n -> n-1 in a path, which layered peeling trims one
        # literal per pass, intersecting every leftover successor set again
        class Counted(set):
            def __and__(self, other):
                calls.append(1)
                return set(self) & other

        calls = []
        graph = renaming.literal_graph
        monkeypatch.setattr(renaming, "literal_graph",
                            lambda cs: {l: Counted(m) for l, m in graph(cs).items()})
        n = 400
        assert has_termination_property(_closed_chain(n)) == NonTerminating((n - 1, n, n - 1))
        assert len(calls) <= 2 * (n + 2)


def _closed_chain(n):
    return PropClauseSet.make([[i, -(i + 1)] for i in range(1, n)] + [[n, -(n - 1)]], n)


def _reference_cycle(cs):
    """The literal cycle has_termination_property names, or None when the
    literal graph is acyclic: the leftover of Kahn's order is peeled one
    layer of literals without a leftover successor per pass."""
    succ = literal_graph(cs)
    indeg = {l: 0 for l in succ}
    for outs in succ.values():
        for m in outs:
            indeg[m] += 1
    ready = [l for l in succ if indeg[l] == 0]
    done = set()
    while ready:
        l = ready.pop()
        done.add(l)
        for m in succ[l]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    leftover = set(succ) - done
    if not leftover:
        return None
    while True:
        dead = {l for l in leftover if not (succ[l] & leftover)}
        if not dead:
            break
        leftover -= dead
    key = lambda l: (abs(l), 0 if l > 0 else 1)  # noqa: E731
    path, seen = [], {}
    l = min(leftover, key=key)
    while l not in seen:
        seen[l] = len(path)
        path.append(l)
        l = min(succ[l] & leftover, key=key)
    return tuple(path[seen[l]:] + [l])


class TestComputeRenaming:
    def test_example_renaming_set(self):
        ren = compute_renaming(_example())
        assert ren.variables == {A, P, Q, R, S}

    def test_renamed_example_matches_expected(self):
        cs = _example()
        renamed = rename(cs, compute_renaming(cs))
        expected = [[A, -S], [-A, P], [-P, -B], [B, -P, -R], [P, -Q]]
        got = [sorted(c.literals, key=abs) for c in renamed.clauses]
        assert got == [sorted(c, key=abs) for c in expected]

    def test_nonterminating_rejected(self):
        with pytest.raises(WrongFragment):
            compute_renaming(PropClauseSet.make([[P, -Q], [Q, -P]]))

    def test_recursion_free_horn_needs_no_renaming(self):
        # fact + definite clauses whose order places positives first
        cs = PropClauseSet.make([[P], [Q, -P]])
        ren = compute_renaming(cs)
        assert is_horn(rename(cs, ren))


class TestRename:
    def test_empty_set_identity(self):
        cs = _example()
        assert rename(cs, Renaming(frozenset())) == cs

    def test_involution(self):
        rng = random.Random(15)
        for _ in range(100):
            clauses, n = random_prop_clauses(rng)
            cs = PropClauseSet.make(clauses, n)
            ren = Renaming(frozenset(rng.sample(range(1, n + 1),
                                                rng.randint(0, n))))
            assert rename(rename(cs, ren), ren) == cs

    def test_satisfiability_preserved(self):
        rng = random.Random(16)
        for _ in range(60):
            clauses, n = random_prop_clauses(rng, max_vars=6)
            cs = PropClauseSet.make(clauses, n)
            ren = Renaming(frozenset(rng.sample(range(1, n + 1),
                                                rng.randint(0, n))))
            renamed = rename(cs, ren)
            models_before = sum(
                _truth_value(clauses, dict(zip(range(1, n + 1), bits)))
                for bits in itertools.product([False, True], repeat=n))
            models_after = sum(
                _truth_value([c.literals for c in renamed.clauses],
                             dict(zip(range(1, n + 1), bits)))
                for bits in itertools.product([False, True], repeat=n))
            assert models_before == models_after

    def test_terminating_implies_renamable_to_recursion_free_horn(self):
        rng = random.Random(21)
        checked = 0
        while checked < 100:
            clauses, n = random_prop_clauses(rng)
            cs = PropClauseSet.make(clauses, n)
            if not has_termination_property(cs):
                continue
            renamed = rename(cs, compute_renaming(cs))
            assert is_horn(renamed)
            assert prop_dependence_acyclic(renamed)
            checked += 1


class TestDimacs:
    def test_round_trip(self):
        cs = _example()
        assert parse_dimacs(emit_dimacs(cs)) == cs

    def test_header_variable_count_respected(self):
        cs = parse_dimacs("p cnf 9 1\n1 -2 0\n")
        assert cs.num_vars == 9

    def test_duplicates_preserved(self):
        cs = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
        assert cs.clauses[0].literals == (1, 1, -2)

    def test_comments_and_multiline_clauses(self):
        cs = parse_dimacs("c header\np cnf 3 2\n1 2\n3 0 -1\n-3 0\n")
        assert [c.literals for c in cs.clauses] == [(1, 2, 3), (-1, -3)]

    def test_malformed_header_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf x 1\n1 0\n")

    def test_junk_token_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 two 0\n")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(1, 5).flatmap(
    lambda v: st.sampled_from([v, -v])), min_size=1, max_size=4),
    min_size=0, max_size=6))
def test_involution_property(clause_lists):
    cs = PropClauseSet.make(clause_lists)
    full = Renaming(frozenset(range(1, cs.num_vars + 1)))
    assert rename(rename(cs, full), full) == cs
