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
from hornitp.cli import main
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


TREE_NODES = "(tree (vars (x Int))\n (nodes (a true) (b true) (c (<= x 0)))\n"
DAG_NODES = "(dag (vars (x Int))\n (nodes (s true) (m true) (t false))\n"

# (kind, text, message, line, col): every shape error a problem file can
# report.  The first rows are the rules a problem type enforces when it is
# built, reported in its words at the declaration of the node they name, or
# at the (edges ...) section, or at the problem; the rest are the rules only
# the reader can check: sections, undeclared names at their token, duplicate
# node names and duplicate edges, which a type would keep once
MALFORMED_PROBLEMS = [
    ("sequence", "(sequence (vars (x Int)))",
     "a sequence problem needs at least one part", 1, 1),
    ("tree", TREE_NODES + " (edges (a b) (a c) (c a))\n (root a))",
     "root 'a' has a parent", 2, 9),
    ("tree", TREE_NODES + " (edges (a b) (a c) (b c))\n (root a))",
     "node 'c' has two parents", 2, 27),
    ("tree", TREE_NODES + " (edges (a c))\n (root a))",
     "node 'b' has no parent", 2, 18),
    ("tree", TREE_NODES + " (edges (b c) (c b))\n (root a))",
     "edges form a cycle", 3, 2),
    ("dag", DAG_NODES + " (edges (s m true) (m t true) (m s true))\n (entry s) (exit t))",
     "entry 's' has an incoming edge", 2, 9),
    ("dag", DAG_NODES + " (edges (s m true) (m t true) (t m true))\n (entry s) (exit t))",
     "exit 't' has an outgoing edge", 2, 27),
    ("dag", DAG_NODES + " (edges (s t true))\n (entry s) (exit t))",
     "node 'm' touches no edge", 2, 18),
    ("dag", "(dag (vars (x Int))\n (nodes (s true) (m true) (n true) (t false))\n"
            " (edges (s m true) (m n true) (n m true) (m t true))\n (entry s) (exit t))",
     "the edge relation has a cycle", 3, 2),
    ("tree", "(tree (vars (x Int))) (tree (vars (x Int)))",
     "expected a single problem expression", 1, 1),
    ("sequence", "(sequence (<= 0 1))",
     "problem must start with a (vars ...) declaration", 1, 1),
    ("tree", "\n  (forest (vars (x Int)))", "unknown problem kind 'forest'", 2, 3),
    ("binary", "(binary (vars (x Int)) (A (<= x 0)))",
     "binary problem needs (B <constraint>)", 1, 1),
    ("tree", TREE_NODES + " edges (root a))", "expected a (key ...) section", 3, 2),
    ("tree", TREE_NODES + " (nodes (d true)) (edges) (root a))",
     "duplicate section 'nodes'", 3, 2),
    ("tree", TREE_NODES + " (root a))", "problem needs a (edges ...) section", 1, 1),
    ("tree", TREE_NODES + " (edges (a b) (a c))\n (root a b))", "expected (root name)", 4, 2),
    ("dag", DAG_NODES + " (edges (s m true) (m t true))\n (entry s) (exit z))",
     "undeclared node 'z'", 4, 18),
    ("tree", TREE_NODES + " (edges (a b) (a z))\n (root a))", "undeclared node 'z'", 3, 18),
    ("tree", "(tree (vars (x Int))\n (nodes (a (<= y 0)))\n (edges)\n (root a))",
     "undeclared variable 'y'", 2, 16),
    ("dag", DAG_NODES + " (edges (s m true) (m t true))\n (entry s) (exit t) (allowed (m x y)))",
     "undeclared variable 'y'", 4, 35),
    ("tree", "(tree (vars (x Int))\n (nodes (a true) (a false))\n (edges)\n (root a))",
     "duplicate node 'a'", 2, 18),
    ("tree", "(tree (vars (x Int))\n (nodes (a true) (b))\n (edges)\n (root a))",
     "expected (name constraint)", 2, 18),
    ("tree", TREE_NODES + " (edges a)\n (root a))", "expected an edge (parent child)", 3, 9),
    ("tree", TREE_NODES + " (edges (a b c))\n (root a))", "expected (parent child)", 3, 9),
    ("dag", DAG_NODES + " (edges (s m))\n (entry s) (exit t))", "expected (u v constraint)", 3, 9),
    ("dag", DAG_NODES + " (edges (s m true) (m t true))\n (entry s) (exit t) (allowed ()))",
     "expected (node var ...)", 4, 30),
    ("tree", TREE_NODES + " (edges (a b) (a c) (a b))\n (root a))",
     "duplicate edge 'a' -> 'b'", 3, 21),
    ("dag", DAG_NODES + " (edges (s m true) (m t true) (s m (<= x 0)))\n (entry s) (exit t))",
     "duplicate edge 's' -> 'm'", 3, 31),
]


class TestProblemErrors:
    @pytest.mark.parametrize("kind,text,message,line,col", MALFORMED_PROBLEMS,
                             ids=[f"{case[0]}: {case[2]}" for case in MALFORMED_PROBLEMS])
    def test_message_and_position(self, kind, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert str(err.value) == f"parse error at {line}:{col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    def test_encode_reports_the_type_error(self, capsys, tmp_path):
        kind, text, message, line, col = MALFORMED_PROBLEMS[3]  # node 'b' has no parent
        path = tmp_path / "p.tree"
        path.write_text(text)
        code = main(["encode", str(path), "--kind", kind])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == f'(error "parse error at {line}:{col}: {message}")\n'
        assert "internal:" not in out + err and "Traceback" not in err
