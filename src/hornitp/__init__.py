"""Solver for recursion-free constrained Horn clauses over linear
arithmetic, built on certificate-producing Craig interpolation, plus a
Horn-renaming decision procedure for propositional clause sets."""

from .analysis import FragmentReport, classify, connected_components, normalize
from .chc import parse_chc, parse_problem, parse_solution, print_chc, print_solution
from .engine import Interpolant, binary_interpolant, check_interpolant, entails, sat
from .errors import HornitpError
from .horn import (
    ClauseSet,
    HornClause,
    RelationAtom,
    RelationSymbol,
    Solution,
    clause,
    rel_atom,
    verify_solution,
)
from .problems import (
    DagProblem,
    SequenceProblem,
    TreeProblem,
    check_dag,
    check_sequence,
    check_tree,
)
from .solver import (
    Counterexample,
    Solved,
    SolverOptions,
    dag_interpolate,
    expand,
    find_counterexample,
    sequence_interpolants,
    solve,
    tree_interpolate,
)

__version__ = "0.1.0"

__all__ = [
    "ClauseSet", "Counterexample", "DagProblem", "FragmentReport",
    "HornClause", "HornitpError", "Interpolant", "RelationAtom",
    "RelationSymbol", "SequenceProblem", "Solution", "Solved",
    "SolverOptions", "TreeProblem", "binary_interpolant", "check_dag",
    "check_interpolant", "check_sequence", "check_tree", "classify",
    "clause", "connected_components", "dag_interpolate", "entails",
    "expand", "find_counterexample", "normalize", "parse_chc",
    "parse_problem", "parse_solution", "print_chc", "print_solution",
    "rel_atom", "sat", "sequence_interpolants", "solve",
    "tree_interpolate", "verify_solution",
]
