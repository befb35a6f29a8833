"""Command-line front end.

Subcommands: ``classify``, ``solve``, ``verify``, ``expand``, ``encode``,
``rename-horn``.  Clause files use the HORN exchange subset, propositional
input uses DIMACS CNF (see :mod:`hornitp.chc` and :mod:`hornitp.renaming`).
Exit codes: 0 for sat/valid/terminating results, 1 for
unsat/invalid/nonterminating results, 2 for faults and exceeded limits
(reported as an ``(error ...)`` line on stdout, details on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import traceback

from . import chc, renaming
from .analysis import classify
from .backend import Backend, external_interpolant
from .encodings import (
    binary_to_horn,
    dag_problem_to_horn,
    sequence_to_horn,
    tree_problem_to_horn,
)
from .errors import HornitpError, ParseError
from .horn import ClauseSet, Solution, verify_solution
from .problems import DagProblem, SequenceProblem, TreeProblem
from .sexpr import constraint_str, model_str, number_str
from .solver import Counterexample, DerivationTree, Solved, SolverOptions, expand, solve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornitp",
        description="Solve recursion-free constrained Horn clauses over "
                    "linear arithmetic by interpolation; decide and perform "
                    "Horn renaming of propositional clause sets.")
    parser.add_argument("--format", choices=["chc", "dimacs"], default=None,
                        help="input format (default: chc, dimacs for rename-horn)")
    parser.add_argument("--output", choices=["human", "sexpr"], default="human")
    parser.add_argument("--cube-limit", type=int, default=None, metavar="N")
    parser.add_argument("--expansion-limit", type=int, default=None, metavar="N")
    parser.add_argument("--branch-depth", type=int, default=None, metavar="N")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--backend", default=None, metavar="CMD",
                        help="external interpolation command "
                             "(default: $HORNITP_BACKEND)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("classify", "report the syntactic fragment"),
                        ("solve", "solve the clause set"),
                        ("verify", "check a solution file against the clauses"),
                        ("expand", "print the clause-set expansion"),
                        ("encode", "translate a problem file into clauses"),
                        ("rename-horn", "decide/perform Horn renaming (DIMACS)")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="input path ('-' for stdin)")
        if name == "verify":
            p.add_argument("--solution", required=True, metavar="FILE")
        if name == "encode":
            p.add_argument("--kind", required=True,
                           choices=["binary", "sequence", "tree", "dag"])
    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _budgets(args) -> SolverOptions:
    options = SolverOptions(jobs=args.jobs)
    for flag, field in (("cube_limit", "cube_limit"),
                        ("expansion_limit", "expansion_limit"),
                        ("branch_depth", "branch_depth")):
        value = getattr(args, flag)
        if value is not None:
            if value <= 0:
                raise HornitpError(f"--{flag.replace('_', '-')} must be positive")
            setattr(options, field, value)
    if args.jobs <= 0:
        raise HornitpError("--jobs must be positive")
    return options


@contextlib.contextmanager
def _options(args):
    """Solver options with the configured backend, closed when the block ends."""
    options = _budgets(args)
    backend_cmd = args.backend or os.environ.get("HORNITP_BACKEND")
    with contextlib.ExitStack() as stack:
        if backend_cmd:
            handle = stack.enter_context(Backend(backend_cmd))

            def delegated(a, b, branch_depth, cube_limit):
                return external_interpolant(a, b, handle)

            options.interpolate = delegated
        yield options


def _clauses(args) -> ClauseSet:
    if args.format == "dimacs":
        raise HornitpError(f"subcommand {args.command!r} requires --format chc")
    return chc.parse_chc(_read(args.file))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    report = classify(_clauses(args))
    if args.output == "sexpr":
        fields = report.as_text().replace(":", "").splitlines()
        print("(classification " + " ".join(f"({f})" for f in fields) + ")")
    else:
        print(report.as_text())
    return 0


def _derivation_sexpr(tree: DerivationTree, index: dict) -> str:
    inner = " ".join(_derivation_sexpr(c, index) for c in tree.children)
    label = index[id(tree.clause)]
    return f"(clause {label} {inner})" if inner else f"(clause {label})"


def _print_counterexample(cx: Counterexample, hc: ClauseSet, mode: str):
    index = {id(h): i + 1 for i, h in enumerate(hc.clauses)}
    print("unsat")
    if mode == "sexpr":
        print(f"(counterexample {model_str(cx.model)} "
              f"{_derivation_sexpr(cx.tree, index)})")
        return
    print("; derivation of false (clause numbers refer to input order):")

    def walk(t: DerivationTree, depth: int):
        print(";" + "  " * (depth + 1) + f"clause {index[id(t.clause)]}: {t.clause!r}")
        for c in t.children:
            walk(c, depth + 1)

    walk(cx.tree, 0)
    assignment = ", ".join(f"{v.name} = {number_str(val)}"
                           for v, val in sorted(cx.model.items()))
    print(f"; witness model: {assignment}")


def _cmd_solve(args) -> int:
    hc = _clauses(args)
    with _options(args) as options:
        result = solve(hc, options)
    if isinstance(result, Solved):
        print("sat")
        if args.output == "human":
            print("; the clause set is solvable; a verified solution:")
        sys.stdout.write(chc.print_solution(result.solution))
        return 0
    _print_counterexample(result, hc, args.output)
    return 1


def _cmd_verify(args) -> int:
    hc = _clauses(args)
    sol = chc.parse_solution(_read(args.solution), hc)
    options = _budgets(args)
    verdict = verify_solution(sol, hc, options.branch_depth, options.cube_limit)
    if verdict:
        print("valid")
        return 0
    print("invalid")
    index = {id(h): i + 1 for i, h in enumerate(hc.clauses)}
    if args.output == "sexpr":
        print(f"(failing-clause {index[id(verdict.clause)]} {model_str(verdict.model)})")
    else:
        print(f"; failing clause {index[id(verdict.clause)]}: {verdict.clause!r}")
        assignment = ", ".join(f"{v.name} = {number_str(val)}"
                               for v, val in sorted(verdict.model.items()))
        print(f"; countermodel: {assignment}")
    return 1


def _cmd_expand(args) -> int:
    hc = _clauses(args)
    print(constraint_str(expand(hc, _budgets(args).expansion_limit)))
    return 0


def _cmd_encode(args) -> int:
    problem = chc.parse_problem(_read(args.file))
    kinds = {SequenceProblem: "sequence", TreeProblem: "tree", DagProblem: "dag"}
    actual = ("binary" if isinstance(problem, tuple) else kinds[type(problem)])
    if actual != args.kind:
        raise HornitpError(f"--kind {args.kind} given, but the file holds a "
                           f"{actual} problem")
    if actual == "binary":
        hc = binary_to_horn(*problem[1])
    elif actual == "sequence":
        hc = sequence_to_horn(problem)
    elif actual == "tree":
        hc = tree_problem_to_horn(problem)
    else:
        hc = dag_problem_to_horn(problem)
    sys.stdout.write(chc.print_chc(hc))
    return 0


def _cmd_rename_horn(args) -> int:
    if args.format == "chc":
        raise HornitpError("rename-horn requires --format dimacs")
    cs = renaming.parse_dimacs(_read(args.file))
    result = renaming.has_termination_property(cs)
    if not result:
        cycle = " ".join(str(l) for l in result.cycle)
        if args.output == "sexpr":
            print(f"(nonterminating (cycle {cycle}))")
        else:
            print("NONTERMINATING")
            print(f"; literal cycle: {cycle}")
        return 1
    ren = renaming.compute_renaming(cs)
    variables = " ".join(str(v) for v in sorted(ren.variables))
    renamed = renaming.emit_dimacs(renaming.rename(cs, ren))
    if args.output == "sexpr":
        print(f"(terminating (renaming {variables}))")
    else:
        print("TERMINATING")
        print(f"; renaming: {variables}")
    sys.stdout.write(renamed)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "expand": _cmd_expand,
    "encode": _cmd_encode,
    "rename-horn": _cmd_rename_horn,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f'(error "{exc}")')
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HornitpError as exc:
        print(f'(error "{type(exc).__name__}: {exc}")')
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f'(error "{exc}")')
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: never exit 1 for it
        print(f'(error "internal: {type(exc).__name__}: {exc}")')
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
