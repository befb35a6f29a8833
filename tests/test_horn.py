"""Clause model: atoms, clause sets, solutions, verification."""

from fractions import Fraction

import pytest

import worked_examples as PE
from hornitp.errors import MissingSymbol, SortMismatch
from hornitp.horn import (
    ClauseSet,
    HornClause,
    RelationAtom,
    RelationSymbol,
    Solution,
    Valid,
    clause,
    rel_atom,
    verify_solution,
)
from hornitp.terms import INT, REAL, TRUE, LinearTerm, Var, cand, cnot, cor, eq, evaluate, ge, le


def instantiate(sol: Solution, h: HornClause):
    """The clause with every relation atom replaced by the solution formula."""
    premise = cand(h.constraint, *[sol.applied(a) for a in h.body])
    if h.head is None:
        return cnot(premise)
    return cor(cnot(premise), sol.applied(h.head))


class TestRelationAtom:
    def test_arity_mismatch(self):
        p = RelationSymbol("p", (INT, INT))
        with pytest.raises(SortMismatch):
            rel_atom(p, Var("x", INT))

    def test_real_term_for_int_argument(self):
        p = RelationSymbol("p", (INT,))
        with pytest.raises(SortMismatch):
            rel_atom(p, Var("r", REAL))

    def test_coercion_of_vars_and_constants(self):
        p = RelationSymbol("p", (INT, INT))
        a = rel_atom(p, Var("x", INT), 3)
        assert a.args[1] == LinearTerm.const(3)


class TestClauseSet:
    def test_symbols_collected(self):
        hc = PE.recursive_clauses()
        assert {s.name for s in hc.relations} == {f"r{i}" for i in range(1, 10)} | {"rf"}
        assert len(hc.clauses) == 12

    def test_explicit_relations_preserved(self):
        lonely = RelationSymbol("lonely", (INT,))
        hc = ClauseSet.make([clause()], relations=[lonely])
        assert lonely in hc.relations


class TestSolution:
    def test_parameter_count_checked(self):
        p = RelationSymbol("p", (INT, INT))
        with pytest.raises(SortMismatch):
            Solution({p: ([Var("x", INT)], TRUE)})

    def test_body_free_vars_checked(self):
        p = RelationSymbol("p", (INT,))
        stray = ge(LinearTerm.of(Var("y", INT)), 0)
        with pytest.raises(SortMismatch):
            Solution({p: ([Var("x", INT)], stray)})

    def test_applied_substitutes_arguments(self):
        p = RelationSymbol("p", (INT,))
        x, y = Var("x", INT), Var("y", INT)
        sol = Solution({p: ([x], ge(LinearTerm.of(x), 0))})
        out = sol.applied(rel_atom(p, LinearTerm.of(y) + 1))
        assert out == ge(LinearTerm.of(y) + 1, 0)

    def test_missing_symbol(self):
        p = RelationSymbol("p", (INT,))
        sol = Solution({})
        with pytest.raises(MissingSymbol):
            sol.applied(rel_atom(p, Var("x", INT)))


class TestVerifySolution:
    def test_known_solution_of_recursive_system(self):
        assert bool(verify_solution(PE.recursive_solution(), PE.recursive_clauses()))

    def test_known_solution_of_treelike_subset(self):
        assert bool(verify_solution(PE.treelike_solution(), PE.treelike_clauses()))

    def test_known_solution_of_unwinding(self):
        assert bool(verify_solution(PE.unwinding_solution(), PE.unwinding_clauses()))

    def test_all_true_fails_on_false_clause(self):
        hc = PE.treelike_clauses()
        trivial = Solution({
            sym: ([Var(f"a{i}", s) for i, s in enumerate(sym.arg_sorts)], TRUE)
            for sym in hc.relations})
        verdict = verify_solution(trivial, hc)
        assert not verdict
        assert verdict.clause.head is None  # the query clause must fail
        assert evaluate(instantiate(trivial, verdict.clause), verdict.model) is False

    def test_first_failing_clause_reported_with_model(self):
        p = RelationSymbol("p", (INT,))
        x = Var("x", INT)
        hc = ClauseSet.make([
            HornClause(ge(LinearTerm.of(x), 5), (), rel_atom(p, x)),
        ])
        wrong = Solution({p: ([x], le(LinearTerm.of(x), 0))})
        verdict = verify_solution(wrong, hc)
        assert not verdict
        assert verdict.model[x] >= 5


class TestInstantiate:
    def test_fact_clause_becomes_implication(self):
        p = RelationSymbol("p", (INT,))
        x = Var("x", INT)
        h = HornClause(ge(LinearTerm.of(x), 0), (), rel_atom(p, x))
        sol = Solution({p: ([x], ge(LinearTerm.of(x), 0))})
        inst = instantiate(sol, h)
        for v in (-2, 0, 7):
            assert evaluate(inst, {x: Fraction(v)})

    def test_false_head_becomes_negation(self):
        p = RelationSymbol("p", (INT,))
        x = Var("x", INT)
        h = HornClause(TRUE, (rel_atom(p, x),), None)
        sol = Solution({p: ([x], eq(LinearTerm.of(x), 3))})
        inst = instantiate(sol, h)
        assert evaluate(inst, {x: Fraction(2)})
        assert not evaluate(inst, {x: Fraction(3)})
