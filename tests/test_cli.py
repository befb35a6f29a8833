"""Command-line interface: subcommands, exit codes, output modes."""

import shlex
import sys
from dataclasses import fields

import pytest

from generators import chain_clauses
from hornitp import chc, cli, solver
from hornitp.cli import main
from hornitp.horn import verify_solution
from hornitp.sexpr import parse_all, parse_one
from hornitp.solver import SolverOptions
from hornitp.terms import TRUE

TREELIKE = "tests/data/increment_treelike.chc"
RECURSIVE = "tests/data/increment_recursive.chc"
UNWOUND = "tests/data/increment_unwound.chc"
CNF = "tests/data/renaming_example.cnf"

UNSOLVABLE = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (<= 0 x) (p x))))
(assert (forall ((x Int)) (=> (and (p x) (<= 5 x)) false)))
(check-sat)
"""

# p(x) <- x = 2y; false <- p(x), x = 2z + 1: no interpolant without
# divisibility, so branching runs out of depth
PARITY = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (= x (* 2 y)) (p x))))
(assert (forall ((x Int) (z Int)) (=> (and (p x) (= x (+ (* 2 z) 1))) false)))
(check-sat)
"""

SEQ_PROBLEM = "(sequence (vars (x Int)) (<= 0 x) (<= x -1))"

STRAY_DAG_NODE = ("(dag (vars (x Int)) (nodes (s true) (t false) (u true)) "
                  "(edges (s t (<= x 0))) (entry s) (exit t))")


def _cones_text(n):
    """One query over n symbols with two facts each: 2^n derivation cones
    below one query clause, in a set that is not linear."""
    xs = " ".join(f"(x{i} Int)" for i in range(n))
    facts = [f"(assert (forall ((x Int)) (=> (= x {v}) (q{i} x))))"
             for i in range(n) for v in (0, 1)]
    body = " ".join(f"(q{i} x{i})" for i in range(n))
    return "\n".join([
        "(set-logic HORN)",
        *(f"(declare-fun q{i} (Int) Bool)" for i in range(n)),
        *facts,
        f"(assert (forall ({xs}) (=> (and {body} (< x0 0)) false)))",
        "(check-sat)"]) + "\n"


def deep_query(levels: int) -> str:
    """A satisfiable query whose constraint nests and/or 2 * levels deep."""
    c = "(<= x 0)"
    for k in range(1, levels + 1):
        c = f"(and (<= x {k}) (or (>= x {-k}) {c}))"
    return f"(set-logic HORN)\n(assert (forall ((x Int)) (=> {c} false)))\n(check-sat)\n"


def deep_negation(levels: int) -> str:
    """A satisfiable query whose constraint is ``(<= x 0)`` under ``levels``
    nested ``not``s; an even count reads as the atom itself."""
    c = "(<= x 0)"
    for _ in range(levels):
        c = f"(not {c})"
    return f"(set-logic HORN)\n(assert (forall ((x Int)) (=> {c} false)))\n(check-sat)\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_human_report(self, capsys):
        code, out, _ = run(capsys, "classify", TREELIKE)
        assert code == 0
        assert "treeLike: true" in out and "recursionFree: true" in out

    def test_sexpr_report_parses(self, capsys):
        code, out, _ = run(capsys, "--output", "sexpr", "classify", TREELIKE)
        assert code == 0
        assert parse_one(out)[0] == "classification"


class TestSolve:
    def test_sat_solution_verifies(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", TREELIKE)
        assert code == 0
        assert out.splitlines()[0] == "sat"
        body = "\n".join(l for l in out.splitlines() if not l.startswith(";"))
        with open(TREELIKE) as fh:
            hc = chc.parse_chc(fh.read())
        sol = chc.parse_solution(body[len("sat"):], hc)
        assert bool(verify_solution(sol, hc))

    def test_unsat_counterexample(self, capsys, tmp_path):
        path = tmp_path / "bad.chc"
        path.write_text(UNSOLVABLE)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 1
        assert out.splitlines()[0] == "unsat"
        assert "witness model" in out

    def test_unsat_sexpr_counterexample(self, capsys, tmp_path):
        path = tmp_path / "bad.chc"
        path.write_text(UNSOLVABLE)
        code, out, _ = run(capsys, "--output", "sexpr", "solve", str(path))
        assert code == 1
        node = parse_one(out.splitlines()[1])
        assert node[0] == "counterexample"

        def clause_labels(n):
            if type(n) is str:
                return set()
            found = set()
            if n and n[0] == "clause":
                found.add(int(n[1]))
            for item in n:
                found |= clause_labels(item)
            return found

        # clause indices refer to input order, 1-based
        assert clause_labels(node) == {1, 2}

    def test_recursive_set_is_a_fault(self, capsys):
        code, out, err = run(capsys, "solve", RECURSIVE)
        assert code == 2
        assert out.startswith("(error")
        assert "RecursiveSystem" in err

    def test_solve_then_verify_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", UNWOUND)
        assert code == 0
        sol_path = tmp_path / "out.sol"
        sol_path.write_text(
            "\n".join(l for l in out.splitlines()[1:] if not l.startswith(";")))
        code, out, _ = run(capsys, "verify", UNWOUND, "--solution", str(sol_path))
        assert code == 0 and out.strip() == "valid"

    def test_backend_flag(self, capsys):
        backend = f"{shlex.quote(sys.executable)} tests/backends/good_backend.py"
        code, out, _ = run(capsys, "--backend", backend, "solve", TREELIKE)
        assert code == 0 and out.splitlines()[0] == "sat"

    def test_backend_env_variable(self, capsys, monkeypatch):
        backend = f"{shlex.quote(sys.executable)} tests/backends/good_backend.py"
        monkeypatch.setenv("HORNITP_BACKEND", backend)
        code, out, _ = run(capsys, "solve", TREELIKE)
        assert code == 0 and out.splitlines()[0] == "sat"

    def test_nonpositive_budget_rejected(self, capsys):
        code, out, _ = run(capsys, "--cube-limit", "0", "solve", TREELIKE)
        assert code == 2 and out.startswith("(error")

    def test_every_budget_is_a_flag(self):
        budgets = [f.name for f in fields(SolverOptions) if f.name != "interpolate"]
        assert budgets
        for k, name in enumerate(budgets):
            value = 7 + k
            args = cli._build_parser().parse_args(
                [f"--{name.replace('_', '-')}", str(value), "solve", TREELIKE])
            assert getattr(cli._budgets(args), name) == value

    def test_cone_budget_fault_says_what_it_counted(self, capsys, tmp_path):
        # one query over 14 symbols with two facts each: 2^14 derivation
        # cones, over the default cube limit of 10,000
        path = tmp_path / "cones.chc"
        path.write_text(_cones_text(14))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2 and "CubeLimitExceeded" in err
        assert out == ('(error "CubeLimitExceeded: derivation cones below one query clause'
                       ' would exceed 10000 (--cube-limit)")\n')

    def test_cone_budget_follows_the_cube_limit_flag(self, capsys, tmp_path):
        # 2^2 derivation cones: solved by default, refused over --cube-limit 3
        path = tmp_path / "cones.chc"
        path.write_text(_cones_text(2))
        code, out, _ = run(capsys, "solve", str(path))
        assert (code, out.splitlines()[0]) == (0, "sat")
        code, out, err = run(capsys, "--cube-limit", "3", "solve", str(path))
        assert code == 2 and "CubeLimitExceeded" in err
        assert out == ('(error "CubeLimitExceeded: derivation cones below one query clause'
                       ' would exceed 3 (--cube-limit)")\n')

    @pytest.mark.parametrize("backend", [None, "(interpolant (>= p#0 0))"],
                             ids=["engine", "backend"])
    def test_gates_keep_the_run_cube_limit(self, capsys, tmp_path, backend):
        # 14 two-way ors in the query: 16,384 cubes, over the default limit
        # of 10,000; the cone's labeling and verify_solution, and with a
        # backend check_interpolant, must read the run's limit
        k = 14
        ys = " ".join(f"(y{i} Int)" for i in range(k))
        ors = " ".join(f"(or (<= y{i} 0) (>= y{i} 2))" for i in range(k))
        path = tmp_path / "ors.chc"
        path.write_text("\n".join([
            "(set-logic HORN)",
            "(declare-fun p (Int) Bool)",
            "(assert (forall ((x Int)) (=> (>= x 0) (p x))))",
            f"(assert (forall ((x Int) {ys}) (=> (and {ors} (p x) (< x 0)) false)))",
            "(check-sat)"]) + "\n")
        flags = ["--cube-limit", "20000"]
        if backend is not None:
            flags += ["--backend", f"{shlex.quote(sys.executable)} tests/backends/reply_backend.py "
                                   f"{shlex.quote(backend)}"]
        code, out, err = run(capsys, *flags, "solve", str(path))
        assert (code, out.splitlines()[0]) == (0, "sat"), err

    def test_branch_depth_fault_names_its_flag(self, capsys, tmp_path):
        path = tmp_path / "parity.chc"
        path.write_text(PARITY)
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2 and "UnknownResult" in err
        (line,) = out.splitlines()
        assert line.startswith("(error") and "(--branch-depth)" in line


class TestBackendLifetime:
    @staticmethod
    def _recording(tmp_path):
        marker = tmp_path / "closed"
        return marker, (f"{shlex.quote(sys.executable)} tests/backends/recording_backend.py "
                        f"{shlex.quote(str(marker))}")

    def test_backend_closed_after_solve(self, capsys, tmp_path):
        marker, backend = self._recording(tmp_path)
        code, out, _ = run(capsys, "--backend", backend, "solve", TREELIKE)
        assert code == 0 and out.splitlines()[0] == "sat"
        assert marker.read_text() == "closed\n"

    def test_backend_closed_when_solve_raises(self, capsys, tmp_path, monkeypatch):
        def fail(hc, options):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "solve", fail)
        marker, backend = self._recording(tmp_path)
        code, _, _ = run(capsys, "--backend", backend, "solve", TREELIKE)
        assert code == 2
        assert marker.read_text() == "closed\n"


class TestVerify:
    def test_invalid_solution_names_failing_clause(self, capsys, tmp_path):
        with open(TREELIKE) as fh:
            hc = chc.parse_chc(fh.read())
        trivial = "\n".join(
            f"(define-rel {s.name} ({' '.join(f'(x{i} Int)' for i in range(s.arity))}) true)"
            for s in sorted(hc.relations, key=lambda s: s.name))
        path = tmp_path / "trivial.sol"
        path.write_text(trivial)
        code, out, _ = run(capsys, "verify", TREELIKE, "--solution", str(path))
        assert code == 1
        assert out.splitlines()[0] == "invalid"
        assert "failing clause" in out and "countermodel" in out

    @pytest.mark.parametrize("mode", ["human", "sexpr"])
    def test_solution_nested_600_deep_on_a_compound_argument(self, capsys, tmp_path, mode):
        # p's body nests and/or 600 deep; p(x + 1) is a compound argument,
        # so it is substituted, past the recursion limit of a recursive walk
        nest = "(<= x 0)"
        for k in range(1, 301):
            nest = f"(and (<= x {k}) (or (>= x {-k}) {nest}))"
        sol = tmp_path / "deep.sol"
        sol.write_text(f"(define-rel p ((x Int)) {nest})\n")
        for bound, expected in ((">= x 300", 0), (">= x 0", 1)):
            path = tmp_path / "deep_verify.chc"
            path.write_text("(set-logic HORN)\n(declare-fun p (Int) Bool)\n"
                            "(assert (forall ((x Int)) (=> (= x 0) (p x))))\n"
                            f"(assert (forall ((x Int)) (=> (and (p (+ x 1)) ({bound})) false)))\n"
                            "(check-sat)\n")
            code, out, _ = run(capsys, "--output", mode, "verify", str(path),
                               "--solution", str(sol))
            assert code == expected and "(error" not in out
            if expected == 0:
                assert out == "valid\n"
            elif mode == "sexpr":
                assert out.startswith("invalid\n(failing-clause 2 ")
            else:
                assert out.startswith("invalid\n; failing clause 2: ")

    def test_budget_flags_reach_verify_solution(self, capsys, monkeypatch):
        seen = {}

        def spy(sol, hc, branch_depth, cube_limit):
            seen.update(branch_depth=branch_depth, cube_limit=cube_limit)
            return verify_solution(sol, hc, branch_depth, cube_limit)

        monkeypatch.setattr(cli, "verify_solution", spy)
        code, out, _ = run(capsys, "--branch-depth", "7", "--cube-limit", "900",
                           "verify", UNWOUND, "--solution", "tests/data/increment_unwound.sol")
        assert code == 0 and out.strip() == "valid"
        assert seen == {"branch_depth": 7, "cube_limit": 900}

    def test_cube_limit_stops_verify(self, capsys):
        code, out, err = run(capsys, "--cube-limit", "1", "verify", UNWOUND,
                             "--solution", "tests/data/increment_unwound.sol")
        assert code == 2 and out.startswith("(error")
        assert "CubeLimitExceeded" in err and "(--cube-limit)" in out


class TestExpand:
    def test_expansion_is_constraint(self, capsys):
        code, out, _ = run(capsys, "expand", TREELIKE)
        assert code == 0
        parse_one(out)

    def test_long_chain(self, capsys, tmp_path):
        path = tmp_path / "chain.chc"
        path.write_text(chc.print_chc(chain_clauses(1200, unsat=True)))
        code, out, _ = run(capsys, "expand", str(path))
        assert code == 0 and "y~1201" in out
        parse_one(out)

    def test_expansion_limit_fault(self, capsys):
        code, out, err = run(capsys, "--expansion-limit", "3", "expand", TREELIKE)
        assert code == 2 and "ExpansionLimitExceeded" in err
        assert "(--expansion-limit)" in out


class TestEncode:
    def test_sequence_encoding_solves(self, capsys, tmp_path):
        path = tmp_path / "p.seq"
        path.write_text(SEQ_PROBLEM)
        code, out, _ = run(capsys, "encode", str(path), "--kind", "sequence")
        assert code == 0
        enc = tmp_path / "p.chc"
        enc.write_text(out)
        code, out, _ = run(capsys, "solve", str(enc))
        assert code == 0 and out.splitlines()[0] == "sat"

    def test_tree_symbols_named_by_node_position(self, capsys, tmp_path):
        path = tmp_path / "p.tree"
        path.write_text("(tree (vars (x Int) (y Int)) (nodes (b (>= x 0)) (a (<= (- x y) 0))"
                        " (r (< y 0))) (edges (r a) (r b)) (root r))")
        code, out, _ = run(capsys, "encode", str(path), "--kind", "tree")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("(declare-fun")] == [
            "(declare-fun p0 (Int) Bool)", "(declare-fun p1 (Int Int) Bool)",
            "(declare-fun p2 () Bool)"]

    @pytest.mark.parametrize("b, verdict", [("(<= 1 x)", "sat"), ("(<= 0 x)", "unsat")])
    def test_binary_encoding_solves(self, capsys, tmp_path, b, verdict):
        # A = x <= 0: the set is solvable exactly when A and B conflict
        path = tmp_path / "p.bin"
        path.write_text(f"(binary (vars (x Int)) (A (<= x 0)) (B {b}))")
        code, out, _ = run(capsys, "encode", str(path), "--kind", "binary")
        assert code == 0
        enc = tmp_path / "p.chc"
        enc.write_text(out)
        code, out, _ = run(capsys, "solve", str(enc))
        assert (code, out.splitlines()[0]) == ((0, "sat") if verdict == "sat" else (1, "unsat"))

    @pytest.mark.parametrize("bound, verdict", [(3, "sat"), (7, "unsat")])
    def test_dag_encoding_checks_the_target_label(self, capsys, tmp_path, bound, verdict):
        # m's label x <= 5 makes its guard clause, false <- s, x <= bound,
        # not x <= 5, and x >= 10 on the edge out of m keeps t unreachable:
        # the set is solvable exactly when bound <= 5.  Five clauses: the
        # entry fact, two edges, m's guard and the exit query
        path = tmp_path / "p.dag"
        path.write_text(f"(dag (vars (x Int)) (nodes (s true) (m (<= x 5)) (t true)) "
                        f"(edges (s m (<= x {bound})) (m t (>= x 10))) (entry s) (exit t))")
        code, out, _ = run(capsys, "encode", str(path), "--kind", "dag")
        assert code == 0 and out.count("(assert ") == 5
        enc = tmp_path / "p.chc"
        enc.write_text(out)
        code, out, _ = run(capsys, "solve", str(enc))
        assert (code, out.splitlines()[0]) == ((0, "sat") if verdict == "sat" else (1, "unsat"))

    def test_kind_mismatch_is_fault(self, capsys, tmp_path):
        path = tmp_path / "p.seq"
        path.write_text(SEQ_PROBLEM)
        code, out, _ = run(capsys, "encode", str(path), "--kind", "tree")
        assert code == 2 and out.startswith("(error")


    @pytest.mark.parametrize("kind, text", [
        ("tree", "(tree (vars (x Int)) (edges) (root a))"),
        ("tree", "(tree (vars (x Int)) (nodes (a (<= x 0))) (edges) (root))"),
        ("tree", "(tree (vars (x Int)) (nodes (a (<= x 0))) (edges (a 9)) (root a))"),
        ("tree", "(tree (vars (x Int)) (nodes (a (<= x 0))) (edges) (root b))"),
        ("tree", "(tree (vars (x Int)) (nodes (a true) (b true) (c true)) "
                 "(edges (a c) (b c) (a b)) (root a))"),
        ("tree", "(tree (vars (x Int)) (nodes (a true) (b true) (c true)) "
                 "(edges (b c) (c b)) (root a))"),
        ("dag", "(dag (vars (x Int)) (nodes (s true) (t false)) (edges (s t (<= x 0))) "
                "(entry s) (exit t) (allowed (s z)))"),
        ("dag", "(dag (vars (x Int)) (nodes (s true) (t false)) "
                "(edges (s t (<= x 0)) (t s true)) (entry s) (exit t))"),
        ("dag", "(dag (vars (x Int)) (nodes (s true) (t false) (u true)) "
                "(edges (s t (<= x 0)) (t u true)) (entry s) (exit t))"),
        ("dag", "(dag (vars (x Int)) (nodes (s true) (m true) (n true) (t false)) "
                "(edges (s m true) (m n true) (n m true) (m t true)) (entry s) (exit t))"),
        ("dag", STRAY_DAG_NODE),
        ("sequence", "(sequence (vars (x Int)))"),
    ])
    def test_malformed_problem_is_parse_error(self, capsys, tmp_path, kind, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        code, out, err = run(capsys, "encode", str(path), "--kind", kind)
        assert code == 2 and out.startswith('(error "parse error')
        assert "Traceback" not in err


    def test_node_without_edges_is_parse_error_at_the_node(self, capsys, tmp_path):
        path = tmp_path / "p.dag"
        path.write_text(STRAY_DAG_NODE)
        code, out, _ = run(capsys, "encode", str(path), "--kind", "dag")
        assert code == 2
        assert out == '(error "parse error at 1:47: node \'u\' touches no edge")\n'


class TestRenameHorn:
    def test_terminating_output(self, capsys):
        code, out, _ = run(capsys, "rename-horn", CNF)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "TERMINATING"
        assert lines[1] == "; renaming: 1 3 4 5 6"
        assert any(l.startswith("p cnf 6") for l in lines)

    def test_sexpr_output(self, capsys):
        code, out, _ = run(capsys, "--output", "sexpr", "rename-horn", CNF)
        assert code == 0
        assert parse_one(out.splitlines()[0])[0] == "terminating"

    def test_nonterminating_exit_one(self, capsys, tmp_path):
        path = tmp_path / "cyc.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n2 -1 0\n")
        code, out, _ = run(capsys, "rename-horn", str(path))
        assert code == 1 and out.splitlines()[0] == "NONTERMINATING"

    def test_nonterminating_sexpr_output(self, capsys, tmp_path):
        path = tmp_path / "cyc.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n2 -1 0\n")
        code, out, _ = run(capsys, "--output", "sexpr", "rename-horn", str(path))
        assert code == 1
        form = parse_one(out)
        assert form[0] == "nonterminating" and form[1][0] == "cycle" and len(form[1]) > 1

    def test_chc_format_rejected(self, capsys):
        code, out, _ = run(capsys, "--format", "chc", "rename-horn", CNF)
        assert code == 2 and out.startswith("(error")


class TestFaults:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", "/nonexistent.chc")
        assert code == 2 and out.startswith("(error") and err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "junk.chc"
        path.write_text("(this is not horn")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 2 and out.startswith("(error")

    def test_error_line_with_quotes_parses_back(self, capsys, tmp_path):
        path = tmp_path / "quote.chc"
        path.write_text(UNSOLVABLE.replace("(p x))))", '(|a"b| x))))', 1))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        (node,) = parse_all(out)
        assert node[0] == "error" and len(node) == 2
        message = node[1][1:-1]
        assert message.startswith("parse error at 3:") and """'|a"b|'""" in message
        assert err == message + "\n"

    def test_dimacs_format_rejected_for_solve(self, capsys):
        code, out, _ = run(capsys, "--format", "dimacs", "solve", TREELIKE)
        assert code == 2 and out.startswith("(error")

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("unexpected")

        monkeypatch.setitem(cli._COMMANDS, "classify", crash)
        code, out, err = run(capsys, "classify", TREELIKE)
        assert code == 2
        assert out == '(error "internal: RuntimeError: unexpected")\n'
        assert "RuntimeError" in err

    def test_labeling_bug_is_a_failed_verification(self, capsys, monkeypatch):
        # solve labels its cone trees without check_tree: a too-weak
        # labeling must stop at verify_solution as a fault, not a verdict
        label_tree_problem = solver._label_tree_problem

        def weakened(tp, options):
            return {v: c if v == tp.root else TRUE
                    for v, c in label_tree_problem(tp, options).items()}

        monkeypatch.setattr(solver, "_label_tree_problem", weakened)
        code, out, err = run(capsys, "solve", TREELIKE)
        assert code == 2
        assert out.startswith('(error "SolverInternalError: computed solution failed verification')
        assert "failed verification" in err

    @pytest.mark.parametrize("mode", ["human", "sexpr"])
    def test_deeply_nested_constraint_prints_its_verdict(self, capsys, tmp_path, mode):
        path = tmp_path / "deep.chc"
        path.write_text(deep_query(125))
        code, out, _ = run(capsys, "--output", mode, "solve", str(path))
        assert code == 1
        assert out.startswith("unsat\n") and "(error" not in out
        if mode == "human":
            assert out.count("(and (x - ") == 125

    @pytest.mark.parametrize("mode", ["human", "sexpr"])
    def test_and_or_nested_600_deep_prints_its_verdict(self, capsys, tmp_path, mode):
        # past the recursion limit of a recursive negation normal form,
        # expansion to cubes or evaluation under the counterexample's model
        path = tmp_path / "deep600.chc"
        path.write_text(deep_query(300))
        code, out, _ = run(capsys, "--output", mode, "solve", str(path))
        assert code == 1
        assert out.startswith("unsat\n") and "(error" not in out
        if mode == "human":
            assert out.count("(and (x - ") == 300

    @pytest.mark.parametrize("mode", ["human", "sexpr"])
    def test_deeply_nested_negation_prints_its_verdict(self, capsys, tmp_path, mode):
        # 3,000 levels: far past the recursion limit of a recursive reader
        path = tmp_path / "deep_not.chc"
        path.write_text(deep_negation(3000))
        code, out, _ = run(capsys, "--output", mode, "solve", str(path))
        assert code == 1
        assert out.startswith("unsat\n") and "(error" not in out

    def test_failed_rendering_prints_only_the_error(self, capsys, monkeypatch):
        def boom(sol):
            raise RuntimeError("cannot render")

        monkeypatch.setattr(chc, "print_solution", boom)
        code, out, _ = run(capsys, "solve", TREELIKE)
        assert code == 2
        assert out == '(error "internal: RuntimeError: cannot render")\n'
