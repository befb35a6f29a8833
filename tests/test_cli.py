"""Command-line interface: subcommands, exit codes, output modes."""

import shlex
import sys

import pytest

from hornitp import chc, cli
from hornitp.cli import main
from hornitp.horn import verify_solution
from hornitp.sexpr import parse_one

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

SEQ_PROBLEM = "(sequence (vars (x Int)) (<= 0 x) (<= x -1))"


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
        node = parse_one(out)
        assert node.items[0].value == "classification"


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
        assert node.items[0].value == "counterexample"

        def clause_labels(n):
            if n.is_atom:
                return set()
            found = set()
            if n.items and n.items[0].is_atom and n.items[0].value == "clause":
                found.add(int(n.items[1].value))
            for item in n.items:
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

    def test_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "--jobs", "4", "solve", TREELIKE)
        assert code == 0 and out.splitlines()[0] == "sat"

    def test_nonpositive_budget_rejected(self, capsys):
        code, out, _ = run(capsys, "--cube-limit", "0", "solve", TREELIKE)
        assert code == 2 and out.startswith("(error")


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
        assert "CubeLimitExceeded" in err


class TestExpand:
    def test_expansion_is_constraint(self, capsys):
        code, out, _ = run(capsys, "expand", TREELIKE)
        assert code == 0
        parse_one(out)

    def test_expansion_limit_fault(self, capsys):
        code, out, err = run(capsys, "--expansion-limit", "3", "expand", TREELIKE)
        assert code == 2 and "ExpansionLimitExceeded" in err


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

    def test_kind_mismatch_is_fault(self, capsys, tmp_path):
        path = tmp_path / "p.seq"
        path.write_text(SEQ_PROBLEM)
        code, out, _ = run(capsys, "encode", str(path), "--kind", "tree")
        assert code == 2 and out.startswith("(error")


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
        node = parse_one(out.splitlines()[0])
        assert node.items[0].value == "terminating"

    def test_nonterminating_exit_one(self, capsys, tmp_path):
        path = tmp_path / "cyc.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n2 -1 0\n")
        code, out, _ = run(capsys, "rename-horn", str(path))
        assert code == 1 and out.splitlines()[0] == "NONTERMINATING"

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
