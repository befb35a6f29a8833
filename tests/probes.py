"""Scaling probes: inputs at the sizes where a recursion limit, a lost budget
or a super-linear walk shows as a failure or a timeout.

Run ``python tests/probes.py`` from a checkout: it puts the checkout's
``src/`` first on the path, for itself and for the ``hornitp`` runs it
starts (``python -m hornitp.cli``), so it tests the working tree whether or
not a copy of the package is installed.  Each row of PROBES (name, timeout
in seconds, function) runs in its own process group in a temporary
directory, killed whole at its timeout, so a hang inside C code or a
``hornitp`` run ends there too; a ``hornitp`` run has 60 s and its row 10 s
more to start.
One line per probe gives its wall time; the exit code is 1 if any failed.
"""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / d) for d in ("src", "perfbench", "tests")]

from generators import diamond, ladder
from test_planted import planted_verdicts
from workloads import chain_text, pair_text

from hornitp import (TreeProblem, binary_interpolant, chc, check_interpolant, classify, engine,
                     lp, parse_problem, solver, verify_solution)
from hornitp.encodings import tree_problem_to_horn
from hornitp.errors import CubeLimitExceeded, ExpansionLimitExceeded, ParseError, UndeclaredSymbol
from hornitp.renaming import (PropClauseSet, compute_renaming, is_horn, prop_dependence_acyclic,
                              rename)
from hornitp.terms import (INT, REAL, LinearTerm, Var, cand, cnot, cor, eq, evaluate, free_vars,
                           ge, le, to_dnf)


def expect(error, call, *args, says=""):
    """The ``error`` that ``call(*args)`` raises, whose message holds ``says``."""
    try:
        call(*args)
    except error as exc:
        assert says in str(exc), exc
        return exc
    raise AssertionError(f"{call.__name__} ended without {error.__name__}")


def hornitp(*args, code=0, first_line=None) -> str:
    """The output of ``hornitp``, after checking its exit code and first line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "hornitp.cli", *args], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == code and first_line in (None, run.stdout.partition("\n")[0]), \
        (args, run.returncode, run.stdout[:300], run.stderr[-300:])
    return run.stdout


def long_chain(n):
    """300-, 1,200- and 2,400-step chains: TreeProblem's iterative layout,
    derivation-cone enumeration, the per-node certificate label checks and the
    alias-free normal form (one LP equality per step, y = x + 1, which
    decide_rational substitutes away before the tableau; no binding
    equalities) at lengths where a recursion limit or a quadratic or cubic
    regression shows as a failure or a timeout."""
    result = solver.solve(chc.parse_chc(chain_text(n, False)))
    assert isinstance(result, solver.Solved), result


def counterexample_chain():
    """A 1,200-step chain that ends in a counterexample (read off the
    refuting model by an explicit-stack walk, so no recursion limit), from
    solve and again from find_counterexample, which returns solve's, its
    expansion and a 4,800-step one's (numbered by an explicit-stack walk,
    each conjunct gathered once), and a 1,200-node path through
    tree_problem_to_horn, at sizes where a recursion limit or a quadratic or
    cubic regression shows as a failure or a timeout."""
    hc = chc.parse_chc(chain_text(1200, True))
    for cx in solver.solve(hc), solver.find_counterexample(hc):
        assert isinstance(cx, solver.Counterexample), cx
        assert evaluate(cx.constraint, cx.model)
    for n, count in (1200, 2402), (4800, 9602):
        expansion = solver.expand(chc.parse_chc(chain_text(n, True)))
        assert len(free_vars(expansion)) == count, len(free_vars(expansion))
    n = 1200
    xs = [LinearTerm.of(Var(f"x{i}", INT)) for i in range(n + 1)]
    tp = TreeProblem(tuple(range(n)), frozenset((i, i + 1) for i in range(n - 1)),
                     {i: eq(xs[i], xs[i + 1] + 1) for i in range(n)}, 0)
    assert len(tree_problem_to_horn(tp).clauses) == n + 1


def linear_dag_ladder():
    """ladder(n) from tests/generators.py: a linear set with 2^n derivations
    of false that stays not tree-like after its duplicate clauses are
    merged, labeled through its derivation cones, one path each, like every
    other component; each cone is a case split counted against
    --cube-limit, so ladder(14), with 16,384 cones below one query clause,
    stops before any cone is built at the default limit of 10,000, where a
    lost budget shows as a timeout."""
    result = solver.solve(ladder(8))
    assert isinstance(result, solver.Solved), result
    assert verify_solution(result.solution, ladder(8))
    result = solver.solve(ladder(8, unsafe=True))
    assert isinstance(result, solver.Counterexample), result
    expect(CubeLimitExceeded, solver.solve, ladder(14), says="(--cube-limit)")


def cone_duplication():
    """diamond(n) from tests/generators.py: p(i+1) uses p(i) twice, so
    making it body-disjoint duplicates 2^(n+1) clauses;
    body_disjoint_transform walks a work list once, so diamond(15) gives its
    65,536 clauses in about a second and diamond(16) stops at the
    100,000-clause expansion budget, where a rescan per copy or a fixpoint
    over recounted occurrences shows as a timeout."""
    out, _, origins = solver.body_disjoint_transform(diamond(15))
    assert len(out.clauses) == len(origins) == 65536, len(out.clauses)
    assert classify(out).body_disjoint
    expect(ExpansionLimitExceeded, solver.body_disjoint_transform, diamond(16),
           says="--expansion-limit")


def binary_cube_budget():
    """2,048 cubes a side over 11 Int variables, each side within the
    default cube budget: binary_interpolant bounds the product of their cube
    counts, one LP per choice, and refuses its 4.2M choices before the first
    LP, where a lost bound shows as a timeout."""
    xs = [LinearTerm.of(Var(f"x{i}", INT)) for i in range(11)]
    a = cand(*[cor(le(x, -1), ge(x, 5)) for x in xs])
    b = cand(*[cor(cand(ge(x, 0), le(x, 1)), cand(ge(x, 3), le(x, 4))) for x in xs])
    expect(CubeLimitExceeded, binary_interpolant, a, b, says="--cube-limit")


def reader_scan():
    """The reader is one findall scan of one pattern, or a token scan with
    strings read by str.find: a 1 MB comment line, a 2,400-step chain and
    1 MB unterminated strings (plain and full of "" escapes) read in linear
    time, and an error in the last clause of the chain is placed in linear
    time, where a super-linear scan or a backtracking pattern shows as a
    timeout."""
    assert not chc.parse_chc("; " + "x" * 1_000_000 + "\n(set-logic HORN)\n(check-sat)\n").clauses
    hc = chc.parse_chc(chain_text(2400, False))
    assert len(hc.clauses) == 2402, len(hc.clauses)
    for body in "y" * 1_000_000, '""' * 500_000:
        expect(ParseError, chc.parse_chc, '(set-logic HORN)\n(set-info :x "' + body + ")\n",
               says="unterminated string")
    # the position of an error is found after the reader is done, by a
    # second scan that stops at its token
    lines = chain_text(2400, False).split("\n")
    col = lines[-3].rindex("(< x ") + 4
    lines[-3] = lines[-3][:col - 1] + "z" + lines[-3][col:]
    exc = expect(UndeclaredSymbol, chc.parse_chc, "\n".join(lines))
    assert (exc.line, exc.col) == (len(lines) - 2, col), (exc.line, exc.col)


def deep_nests_cli():
    """and/or nested 600 deep (the tests' deep_query(300)) through the CLI in
    both output modes: negation normal form, the expansion to cubes and
    evaluation walk with explicit stacks, so a recursion limit shows here as
    an internal error (exit 2) and a super-linear walk as a timeout."""
    c = "(<= x 0)"
    for k in range(1, 301):
        c = f"(and (<= x {k}) (or (>= x {-k}) {c}))"
    Path("deep600.chc").write_text(
        f"(set-logic HORN)\n(assert (forall ((x Int)) (=> {c} false)))\n(check-sat)\n")
    for mode in "human", "sexpr":
        out = hornitp("--output", mode, "solve", "deep600.chc", code=1, first_line="unsat")
        assert "(error" not in out, out[:300]


def deep_nests_dnf():
    """The same walks on a 3,000-deep nest through to_dnf and evaluate."""
    x = Var("x", INT)
    c = le(LinearTerm.of(x), 0)
    for k in range(1, 1501):
        c = cand(le(LinearTerm.of(x), k), cor(ge(LinearTerm.of(x), -k), c))
    cubes = to_dnf(c)
    assert len(cubes) == 1501, len(cubes)
    assert evaluate(c, {x: Fraction(-1501)}) and not evaluate(cnot(c), {x: Fraction(-1501)})


def alternating_negation_nest():
    """A 20,000-level (not (and (<= x k) ...)) nest read by parse_chc: the
    reader carries each node's polarity down and negates no subtree it has
    built, so a reader that negates built subtrees shows up here as a
    timeout; to_dnf expands the negation normal form it reads until the cube
    budget stops it, and evaluate reads it correctly."""
    n = 20000
    nest = "(<= x 0)"
    for k in range(1, n + 1):
        nest = f"(not (and (<= x {k}) {nest}))"
    hc = chc.parse_chc(f"(set-logic HORN)\n(assert (forall ((x Int)) (=> {nest} false)))\n"
                       "(check-sat)\n")
    (clause,) = hc.clauses
    c = clause.constraint
    expect(CubeLimitExceeded, to_dnf, c, 100)
    x = Var("x", INT)
    for value in -1, 0, 1, 10000, n + 1:
        want = value <= 0
        for k in range(1, n + 1):
            want = not (value <= k and want)
        assert evaluate(c, {x: Fraction(value)}) is want, value


def propositional_chain():
    """The 20,000-variable Horn chain of (n) and (i or not i+1), its clauses
    in reverse order: prop_dependence_acyclic walks its 20,000-step
    dependence path with an explicit stack, before and after renaming, so a
    recursion limit shows as an error and a super-linear walk as a timeout."""
    cs = PropClauseSet.make([[i, -(i + 1)] for i in range(19999, 0, -1)] + [[20000]], 20000)
    assert prop_dependence_acyclic(cs)
    renamed = rename(cs, compute_renaming(cs))
    assert is_horn(renamed) and prop_dependence_acyclic(renamed)


def propositional_chain_cli():
    """rename-horn decides and renames the same chain, in DIMACS form."""
    clauses = "".join(f"{i} -{i + 1} 0\n" for i in range(19999, 0, -1))
    Path("chain20000.cnf").write_text(f"p cnf 20000 20000\n{clauses}20000 0\n")
    hornitp("rename-horn", "chain20000.cnf", first_line="TERMINATING")


def problem_shapes():
    """A 40,000-part sequence and a 40,000-node path DAG through encode, and
    the 40,000-variable chain (i or not i+1) closed by (n or not n-1)
    through rename-horn: each problem's variable condition comes from its
    own layout, built once, and the cycle is trimmed by one reverse-Kahn
    pass, so a per-index union, an edge scan per node or layered peeling
    shows here as a timeout."""
    n = 40000
    xs = " ".join(f"(x{i} Int)" for i in range(n + 1))
    parts = " ".join(f"(= x{i + 1} (+ x{i} 1))" for i in range(n))
    Path("sequence.txt").write_text(f"(sequence (vars {xs}) {parts})\n")
    xs = " ".join(f"(x{i} Int)" for i in range(n))
    nodes = " ".join(f"(n{i} true)" for i in range(n))
    edges = " ".join(f"(n{i} n{i + 1} (= x{i + 1} (+ x{i} 1)))" for i in range(n - 1))
    Path("dag.txt").write_text(f"(dag (vars {xs}) (nodes {nodes}) (edges {edges}) "
                               f"(entry n0) (exit n{n - 1}))\n")
    clauses = "".join(f"{i} -{i + 1} 0\n" for i in range(1, n))
    Path("closed.cnf").write_text(f"p cnf {n} {n}\n{clauses}{n} -{n - 1} 0\n")
    for kind, asserts in ("sequence", 40002), ("dag", 40001):
        out = hornitp("encode", "--kind", kind, f"{kind}.txt")
        assert sum(line.startswith("(assert") for line in out.split("\n")) == asserts
    hornitp("rename-horn", "closed.cnf", code=1, first_line="NONTERMINATING")


def bound_pair_fast_path():
    """1,000 benchmark pairs (A bounds a shared term from above, B from
    below): decide_rational refutes crossing bounds on one form and its
    negation without the simplex, so the tableau runs on under a quarter of
    their LPs (587 of 4,953); a lost fast path fails here, and every
    interpolant must still pass check_interpolant."""
    rng = random.Random(11)
    pairs = [parse_problem(pair_text(rng))[1] for _ in range(1000)]
    lps, tableaus, decide, simplex = [], [], lp.decide_rational, lp._simplex
    engine.decide_rational = lambda atoms: lps.append(atoms) or decide(atoms)
    lp._simplex = lambda split: tableaus.append(split) or simplex(split)
    itps = [binary_interpolant(a, b) for a, b in pairs]
    engine.decide_rational, lp._simplex = decide, simplex
    failures = [f for (a, b), itp in zip(pairs, itps) for f in check_interpolant(a, b, itp.formula)]
    assert not failures, failures
    assert 4 * len(tableaus) < len(lps), (len(tableaus), len(lps))


def equality_elimination():
    """decide_rational substitutes unit-coefficient equalities away before
    the tableau: chain_text(4800, False) solves, and the largest LP of
    chain_text(2400, False) (4,803 atoms, one step equality each) and of
    diamond(11) (8,191 atoms) reaches lp._simplex with at most 4 rows, or
    not at all.  A lost elimination shows here as a failure, thousands of
    rows; a quadratic substitution as a timeout."""
    result = solver.solve(chc.parse_chc(chain_text(4800, False)))
    assert isinstance(result, solver.Solved), result
    for hc in chc.parse_chc(chain_text(2400, False)), diamond(11):
        sizes, decide, simplex = [], lp.decide_rational, lp._simplex
        engine.decide_rational = lambda atoms: sizes.append([len(atoms)]) or decide(atoms)
        lp._simplex = lambda split: sizes[-1].append(len(split)) or simplex(split)
        result = solver.solve(hc)
        engine.decide_rational, lp._simplex = decide, simplex
        assert isinstance(result, solver.Solved), result
        atoms, *rows = max(sizes)
        assert sum(rows) <= 4, (atoms, rows)


def one_gate_per_answer():
    """solve labels its cone trees without check_tree, and verify_solution
    is its gate: ladder(12), safe and unsafe, each makes under 5,000 LPs
    (2^12 cones, one label_tree LP each, and the answer's check), and
    diamond(13) under 100.  A check_tree per cone shows here as about
    110,000 and 16,400 LPs."""
    decide = engine.decide_rational
    for hc, verdict, most in ((ladder(12), solver.Solved, 5000),
                              (ladder(12, unsafe=True), solver.Counterexample, 5000),
                              (diamond(13), solver.Solved, 100)):
        lps = []
        engine.decide_rational = lambda atoms: lps.append(None) or decide(atoms)
        result = solver.solve(hc)
        engine.decide_rational = decide
        assert isinstance(result, verdict), result
        assert len(lps) < most, len(lps)


def planted_corpus():
    """1,000 draws each of Int and Real through planted_verdicts in
    tests/test_planted.py, each a safe set and its unsafe twin: every
    verdict must be the planted one, or, for Int only, UnknownResult, and
    every answer must pass its check; one line per sort prints how many
    verdicts agree and how many were UnknownResult."""
    for sort in INT, REAL:
        labeled, unknown = planted_verdicts(sort, 1000)
        print(f"planted {sort}: {2000 - unknown} of 2000 verdicts are the planted one,"
              f" {unknown} UnknownResult, {labeled} of 1000 safe draws with a non-trivial"
              " label", flush=True)
        assert sort == INT or unknown == 0


PROBES = [  # (name, timeout in seconds, function)
    ("long chain, 300 steps", 120, partial(long_chain, 300)),
    ("long chain, 1,200 steps", 300, partial(long_chain, 1200)),
    ("long chain, 2,400 steps", 60, partial(long_chain, 2400)),
    ("long counterexample chain and tree encoding", 120, counterexample_chain),
    ("linear DAG ladder", 120, linear_dag_ladder),
    ("cone duplication", 60, cone_duplication),
    ("binary cube budget", 60, binary_cube_budget),
    ("reader scan", 60, reader_scan),
    ("deep constraint nests, hornitp solve", 2 * 60 + 10, deep_nests_cli),
    ("deep constraint nests, to_dnf", 120, deep_nests_dnf),
    ("alternating negation nest", 60, alternating_negation_nest),
    ("propositional chain", 60, propositional_chain),
    ("propositional chain, hornitp rename-horn", 60 + 10, propositional_chain_cli),
    ("problem shapes", 3 * 60 + 10, problem_shapes),
    ("bound-pair fast path", 60, bound_pair_fast_path),
    ("equality elimination", 60, equality_elimination),
    ("one gate per answer, ladder and diamond", 120, one_gate_per_answer),
    ("planted corpus, 1,000 Int and Real draws", 180, planted_corpus),
]


def in_own_group(probe):
    """Run ``probe`` as the leader of a new process group."""
    os.setpgrp()
    probe()


def main() -> int:
    if not __debug__:
        sys.exit("the probes check with assert: run them without -O")
    spawn = multiprocessing.get_context("spawn")
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # where the probes write their input files
        for name, timeout, probe in PROBES:
            process = spawn.Process(target=in_own_group, args=(probe,))
            start = time.perf_counter()
            process.start()
            process.join(timeout)
            if process.is_alive():
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:  # not yet leading its own group
                    process.kill()
                process.join()
                verdict = f"TIMEOUT after {timeout} s"
            else:
                verdict = "ok" if process.exitcode == 0 else f"FAILED (exit {process.exitcode})"
            failed += verdict != "ok"
            print(f"{name:<45} {time.perf_counter() - start:7.2f} s  {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
