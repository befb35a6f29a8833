"""Clause file, solution file, and problem file parsing/printing."""

import pytest

import worked_examples as PE
from hornitp.chc import (
    parse_chc,
    parse_problem,
    parse_solution,
    print_chc,
    print_solution,
)
from hornitp.errors import ParseError, SortError, UndeclaredSymbol
from hornitp.horn import verify_solution
from hornitp.problems import DagProblem, SequenceProblem, TreeProblem

HEADER = "(set-logic HORN)\n(declare-fun p (Int) Bool)\n"


class TestParseChc:
    def test_full_example_file(self):
        with open("tests/data/increment_recursive.chc") as fh:
            hc = parse_chc(fh.read())
        assert {s.name for s in hc.relations} == \
            {f"r{i}" for i in range(1, 10)} | {"rf"}
        assert len(hc.clauses) == 12

    def test_empty_assertion_list(self):
        hc = parse_chc("(set-logic HORN)\n(check-sat)\n")
        assert len(hc.clauses) == 0

    def test_fact_and_query(self):
        hc = parse_chc(HEADER +
                       "(assert (forall ((x Int)) (=> true (p x))))\n"
                       "(assert (forall ((x Int)) (=> (p x) false)))\n")
        assert hc.clauses[0].head is not None
        assert hc.clauses[1].head is None

    def test_disjunctive_head_rejected(self):
        with pytest.raises(ParseError):
            parse_chc(HEADER +
                      "(assert (forall ((x Int)) (=> true (or (p x) (p x)))))\n")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(UndeclaredSymbol):
            parse_chc(HEADER + "(assert (forall ((x Int)) (=> (<= y 0) (p x))))\n")

    def test_undeclared_variable_reports_its_position(self):
        with pytest.raises(UndeclaredSymbol) as err:
            parse_chc(HEADER + "(assert (forall ((x Int))\n  (=> (p x) (p (+ x 1/2 y)))))\n")
        assert str(err.value) == "parse error at 4:25: undeclared variable 'y'"

    def test_sort_error_on_real_into_int(self):
        text = ("(set-logic HORN)\n(declare-fun p (Int) Bool)\n"
                "(assert (forall ((r Real)) (=> true (p r))))\n")
        with pytest.raises(SortError):
            parse_chc(text)

    def test_unknown_command_rejected(self):
        with pytest.raises(ParseError):
            parse_chc("(push 1)")


# (text, error class, message, line, col): every message and position a
# malformed clause file reports, so that a change to the reader or the term
# and constraint builders cannot move them
MALFORMED = [
    ("(set-logic HORN)\n(declare-fun p (Int) Bool\n(check-sat)\n",
     ParseError, "unbalanced '('", 2, 1),
    ("(set-logic HORN)\n(check-sat))\n", ParseError, "unbalanced ')'", 2, 12),
    ('(set-info :source "two\nlines")\n  (set-info :note "never closed)\n(check-sat)\n',
     ParseError, "unterminated string", 3, 19),
    ('(set-logic HORN)\n(set-info :source "say ""hi""\n" ; a comment\n)\n\t(push 1)\n',
     ParseError, "unknown command 'set-info'", 2, 1),
    ('(set-logic HORN) "say\n""\n""" \t(push 1)\n',
     ParseError, "expected a top-level command", 1, 18),
    ("(set-logic HORN)\n(push 1)\n", ParseError, "unknown command 'push'", 2, 1),
    (HEADER + "(assert (forall ((x Int))\n"
              "  (=> (and (p x) (or (<= x 1) (<= (* 1/0 x) 3))) false)))\n",
     ParseError, "malformed number '1/0'", 4, 38),
    (HEADER + "(assert (forall ((x Int)) (=> (<= (+ (* 2/0 x) (f x)) 0) false)))\n",
     ParseError, "malformed number '2/0'", 3, 41),
    (HEADER + "(assert (forall ((x Int)) (=> (<= (* 2/0 (f x)) 0) false)))\n",
     ParseError, "unknown term operator 'f'", 3, 42),
    (HEADER + "(assert (forall ((x Bool)) (=> (p x) false)))\n",
     ParseError, "unknown sort Bool", 3, 21),
    (HEADER + "(assert (forall ((r Real)) (=> true (p r))))\n",
     SortError, "Real-sorted term passed for Int argument of p", 3, 37),
    (HEADER + "(assert (forall ((x Int)) (=> (and (p x) (<= (* x x) 0)) false)))\n",
     ParseError, "'*' needs a constant factor", 3, 46),
    (HEADER + "(assert (forall ((x Int)) (=> (p x) false) (p x)))\n",
     ParseError, "malformed forall", 3, 9),
    (HEADER + "(assert (forall ((x Int) x) (=> (p x) false)))\n",
     ParseError, "malformed variable declaration", 3, 26),
    (HEADER + "(assert (forall ((x Int)) (=> (p x) (p x) false)))\n",
     ParseError, "'=>' takes a body and a head", 3, 27),
    (HEADER + "(assert (forall ((x Int)) (=> (p x) (<= (* x x) 0))))\n",
     ParseError, "clause head must be a declared relation atom or 'false', got '<='", 3, 38),
    (HEADER + "(assert (forall ((x Int)) (=> (not (p x) x) false)))\n",
     ParseError, "'not' takes one argument", 3, 31),
    (HEADER + "(assert (forall ((x Int)) (=> (and (<= x 0) 5) false)))\n",
     ParseError, "unexpected constraint atom '5'", 3, 45),
]


class TestErrorPositions:
    def test_deeply_nested_sort_is_a_parse_error(self):
        # the message quotes the whole 3,000-deep sort expression
        deep = "(" * 3000 + "Int" + ")" * 3000
        with pytest.raises(ParseError) as err:
            parse_chc(f"(set-logic HORN)\n(declare-fun p ({deep}) Bool)\n")
        assert str(err.value) == f"parse error at 2:17: unknown sort {deep}"

    @pytest.mark.parametrize("text,cls,message,line,col", MALFORMED,
                             ids=[case[2] for case in MALFORMED])
    def test_message_and_position(self, text, cls, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_chc(text)
        assert type(err.value) is cls
        assert str(err.value) == f"parse error at {line}:{col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)


class TestRoundTrip:
    @pytest.mark.parametrize("make", [PE.recursive_clauses, PE.treelike_clauses,
                                      PE.unwinding_clauses])
    def test_print_parse_structural_fixpoint(self, make):
        hc = make()
        text = print_chc(hc)
        hc2 = parse_chc(text)
        assert print_chc(hc2) == text
        assert parse_chc(print_chc(hc2)) == hc2


class TestSolutions:
    def test_solution_files_verify(self):
        for stem in ("increment_recursive", "increment_treelike",
                     "increment_unwound"):
            with open(f"tests/data/{stem}.chc") as fh:
                hc = parse_chc(fh.read())
            with open(f"tests/data/{stem}.sol") as fh:
                sol = parse_solution(fh.read(), hc)
            assert bool(verify_solution(sol, hc)), stem

    def test_print_solution_round_trip(self):
        hc = PE.treelike_clauses()
        sol = PE.treelike_solution()
        text = print_solution(sol)
        assert print_solution(parse_solution(text, hc)) == text

    def test_undeclared_relation_rejected(self):
        hc = PE.treelike_clauses()
        with pytest.raises(UndeclaredSymbol):
            parse_solution("(define-rel nosuch ((x Int)) true)", hc)

    def test_undeclared_relation_reports_its_position(self):
        hc = PE.treelike_clauses()
        with pytest.raises(UndeclaredSymbol) as err:
            parse_solution("\n  (define-rel nosuch ((x Int)) true)", hc)
        assert str(err.value) == "parse error at 2:15: undeclared relation 'nosuch'"

    def test_wrong_parameter_sorts_rejected(self):
        hc = PE.treelike_clauses()
        with pytest.raises(SortError):
            parse_solution("(define-rel r1 ((x Int)) true)", hc)


class TestProblems:
    def test_binary(self):
        kind, (a, b) = parse_problem(
            "(binary (vars (x Int)) (A (<= 0 x)) (B (<= x -1)))")
        assert kind == "binary"

    def test_sequence(self):
        sp = parse_problem("(sequence (vars (x Int)) (<= 0 x) (<= x -1))")
        assert isinstance(sp, SequenceProblem) and len(sp.parts) == 2

    def test_tree(self):
        tp = parse_problem(
            "(tree (vars (x Int)) (nodes (a (<= 0 x)) (root (<= x -1)))"
            " (edges (root a)) (root root))")
        assert isinstance(tp, TreeProblem) and tp.root == "root"

    def test_dag(self):
        dp = parse_problem(
            "(dag (vars (x Int)) (nodes (en true) (m true) (ex true))"
            " (edges (en m (<= 0 x)) (m ex (<= x -1)))"
            " (entry en) (exit ex) (allowed (m x)))")
        assert isinstance(dp, DagProblem)
        assert dp.allowed_vars("m") == {next(iter(dp.allowed["m"]))}

    def test_dag_cycle_rejected_at_its_edges(self):
        with pytest.raises(ParseError) as err:
            parse_problem(
                "(dag (vars (x Int)) (nodes (en true) (a true) (b true) (ex true))\n"
                " (edges (en a (<= 0 x)) (a b true) (b a true) (b ex (<= x -1)))\n"
                " (entry en) (exit ex))")
        assert str(err.value) == "parse error at 2:2: the edge relation has a cycle"

    def test_missing_vars_section_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("(sequence (<= 0 1))")
