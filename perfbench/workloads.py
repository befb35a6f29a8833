"""Seeded input generators for the four benchmark workloads.

Every input is text produced here from the workload seed: clause sets in
the CHC exchange format (``chain``, ``random``, ``components``) and binary
interpolation problems in the ``(binary ...)`` problem format (``pairs``).
Each case carries the verdict it must get, fixed by construction, except
for ``random``, whose reference comes from the expansion oracle
``sat(expand(hc))`` (see ``random_reference``).

Workloads yield batches; a run always finishes the batch it started, so
every run measures whole batches of a fixed composition.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

SOLVED = "Solved"
COUNTEREXAMPLE = "Counterexample"
INTERPOLANT = "Interpolant"


@dataclass(frozen=True)
class Case:
    """One request: ``kind`` is "chc" (parse_chc then solve) or "binary"
    (parse_problem untimed, then binary_interpolant); ``expected`` is the
    verdict the reply must have."""

    name: str
    kind: str
    text: str
    expected: str


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------


def lin(parts, const=0) -> str:
    """SMT-LIB text of sum(c * v for c, v in parts) + const."""
    pieces = [v if c == 1 else f"(* {c} {v})" for c, v in parts]
    if const or not pieces:
        pieces.append(str(const))
    return pieces[0] if len(pieces) == 1 else "(+ " + " ".join(pieces) + ")"


def conj(items) -> str:
    items = list(items)
    if not items:
        return "true"
    return items[0] if len(items) == 1 else "(and " + " ".join(items) + ")"


def disj(items) -> str:
    items = list(items)
    return items[0] if len(items) == 1 else "(or " + " ".join(items) + ")"


def assertion(var_names, premise, head, sort="Int") -> str:
    inner = f"(=> {premise} {head})"
    if var_names:
        decls = " ".join(f"({v} {sort})" for v in sorted(var_names))
        inner = f"(forall ({decls}) {inner})"
    return f"(assert {inner})"


def chc_text(declarations, assertions, sort="Int") -> str:
    lines = ["(set-logic HORN)"]
    for name, arity in declarations:
        lines.append(f"(declare-fun {name} ({' '.join([sort] * arity)}) Bool)")
    lines.extend(assertions)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# chain: linear chains p0(x) <- x=c, p_{i+1}(y) <- p_i(x) & y=x+k
# ---------------------------------------------------------------------------

CHAIN_LENGTHS = range(1, 9)


def chain_text(n: int, unsat: bool, start: int = 0, step: int = 1,
               prefix: str = "p", x: str = "x", y: str = "y",
               disjunctive: bool = False) -> str:
    """Chain of n steps.  The sat variant's query ``x < start`` is never
    reached; the unsat variant's ``x >= start + step*n`` is reached by the
    one derivation.  ``disjunctive`` makes each step ``y=x+1 or y=x+2``."""
    rel = [f"{prefix}{i}" for i in range(n + 1)]
    out = [assertion([x], f"(= {x} {start})", f"({rel[0]} {x})")]
    for i in range(n):
        if disjunctive:
            update = f"(or (= {y} (+ {x} 1)) (= {y} (+ {x} 2)))"
        else:
            update = f"(= {y} {lin([(1, x)], step)})"
        out.append(assertion([x, y], f"(and ({rel[i]} {x}) {update})",
                             f"({rel[i + 1]} {y})"))
    query = f"(>= {x} {start + step * n})" if unsat else f"(< {x} {start})"
    out.append(assertion([x], f"(and ({rel[n]} {x}) {query})", "false"))
    return chc_text([(r, 1) for r in rel], out)


def chain_batches(seed: int):
    """Rounds of 20 cases: every length in CHAIN_LENGTHS, sat and unsat,
    in seeded order with seeded start, step and names."""
    rng = random.Random(f"chain:{seed}")
    while True:
        batch = []
        for n in CHAIN_LENGTHS:
            for unsat in (False, True):
                text = chain_text(n, unsat, start=rng.randint(-5, 5),
                                  step=rng.randint(1, 3),
                                  prefix=rng.choice(["p", "q", "inv", "loc"]),
                                  x=rng.choice(["x", "a", "s"]),
                                  y=rng.choice(["y", "b", "t"]))
                batch.append(Case(f"chain-{n}-{'unsat' if unsat else 'sat'}", "chc",
                                  text, COUNTEREXAMPLE if unsat else SOLVED))
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# random: small sets from the tests' random_clause_set distribution
# ---------------------------------------------------------------------------

_POOL = ["v0", "v1", "v2", "v3"]
_COEFFS = [c for c in range(-3, 4) if c]


def _random_term(rng, used: set) -> str:
    # draw order matches tests/generators.random_term
    const = rng.randint(-3, 3)
    parts = []
    for v in rng.sample(_POOL, rng.randint(1, 2)):
        parts.append((rng.choice(_COEFFS), v))
        used.add(v)
    return lin(parts, const)


def _random_cube(rng, used: set) -> list:
    # draw order matches tests/generators.random_cube
    out = []
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(["<=", ">=", "=", "distinct"])
        t = _random_term(rng, used)
        out.append(f"(not (= {t} 0))" if op == "distinct" else f"({op} {t} 0)")
    return out


def random_clause_set(rng: random.Random, n_clauses: int = 0, sort: str = "Int"):
    """Recursion-free clause set: at most 5 symbols, 8 clauses, arity 3,
    coefficients in [-3, 3], bodies over strictly lower symbols.  Makes the
    same draws as tests/generators.random_clause_set, so one seed gives the
    same clause set as there; a nonzero ``n_clauses`` fixes the clause
    count instead of drawing it.

    Returns (CHC text, whether solving it duplicates derivation cones, that
    is, whether the set is neither linear nor body-disjoint)."""
    n_syms = rng.randint(1, 5)
    symbols = [(f"q{i}", rng.randint(0, 3)) for i in range(n_syms)]

    def random_atom(sym, used):
        name, arity = sym
        if arity == 0:
            return name
        args = []
        for _ in range(arity):
            base = rng.choice(_POOL)
            used.add(base)
            args.append(base if rng.random() < 0.7 else lin([(1, base)], rng.randint(-2, 2)))
        return f"({name} {' '.join(args)})"

    assertions = []
    body_symbols: list = []
    nonlinear = False
    for _ in range(n_clauses or rng.randint(1, 8)):
        used: set = set()
        if rng.random() < 0.25:
            chosen = rng.sample(symbols, rng.randint(1, min(2, n_syms)))
            body = [random_atom(s, used) for s in chosen]
            head = "false"
        else:
            hi = rng.randrange(n_syms)
            head = random_atom(symbols[hi], used)
            lower = symbols[:hi]
            chosen = rng.sample(lower, rng.randint(0, min(2, len(lower))))
            body = [random_atom(s, used) for s in chosen]
        body_symbols += chosen
        nonlinear = nonlinear or len(chosen) > 1
        cube = _random_cube(rng, used)
        assertions.append(assertion(used, conj(cube + body), head, sort))
    shared = len(set(body_symbols)) < len(body_symbols)
    return chc_text(symbols, assertions, sort), nonlinear and shared


# The workload draws Real-sorted sets of 1 to 8 clauses, the same number of
# each size in every batch, and redraws a set of more than 3 clauses that is
# neither linear nor body-disjoint.  Measured on 16,000 such draws and
# 4,000 of the tests' Int distribution: integer branching ends in
# UnknownResult about once in 3,000 Int sets (the divisibility wall, probed
# on the pairs workload), and sets that need cone duplication take up to
# 0.3 s at 3 clauses but up to 70 s from 5 clauses on, so one of them can
# fill a run.  Every other fragment stays under 0.6 s at 8 clauses.
RANDOM_SORT = "Real"
RANDOM_SIZES = range(1, 9)
RANDOM_MAX_DUPLICATING = 3
RANDOM_PER_SIZE = 10
RANDOM_BATCH = RANDOM_PER_SIZE * len(RANDOM_SIZES)


def random_stream(seed: int):
    """Endless stream of (index, text) for the ``random`` workload; each run
    of RANDOM_BATCH indices holds RANDOM_PER_SIZE sets of every size."""
    rng = random.Random(f"random:{seed}")
    i = 0
    while True:
        size = RANDOM_SIZES[i // RANDOM_PER_SIZE % len(RANDOM_SIZES)]
        text, duplicating = random_clause_set(rng, size, RANDOM_SORT)
        if duplicating and size > RANDOM_MAX_DUPLICATING:
            continue
        yield i, text
        i += 1


def random_batches(seed: int, reference):
    """Batches of one RANDOM_BATCH stretch of the stream each;
    ``reference(index, text)`` returns the expected verdict, or None when
    the oracle cannot decide (such a set has no reference and is left out)."""
    batch = []
    for i, text in random_stream(seed):
        expected = reference(i, text)
        if expected is not None:
            batch.append(Case(f"random-{i}", "chc", text, expected))
        if (i + 1) % RANDOM_BATCH == 0:
            yield batch
            batch = []


# ---------------------------------------------------------------------------
# pairs: disjunctive A/B pairs separated by one atom over <= 3 Int vars
# ---------------------------------------------------------------------------

PAIR_VARS = ["u", "v", "w"]
PAIRS_BATCH = 200


def _pair_atom(rng) -> str:
    parts = [(rng.choice(_COEFFS), v)
             for v in rng.sample(PAIR_VARS, rng.randint(1, 2))]
    op = rng.choice(["<=", "<=", "<", "=", "distinct"])
    t = lin(parts, rng.randint(-4, 4))
    return f"(not (= {t} 0))" if op == "distinct" else f"({op} {t} 0)"


BOUNDED_PARITY_SHARE = 0.05


def pair_text(rng: random.Random) -> str:
    """A and B are disjunctions of 1-3 cubes.  Each A cube holds
    ``t <= c - d`` and each B cube ``t >= c + 1 + d`` for one separating
    term t, so A & B is unsat over the rationals by construction.

    BOUNDED_PARITY_SHARE of the pairs instead say that u is even and in a
    short range against u odd: unsat only over the integers, decided by a
    few integer branches (unbounded, this is the parity wall)."""
    decls = " ".join(f"({v} Int)" for v in PAIR_VARS)
    if rng.random() < BOUNDED_PARITY_SHARE:
        lo = rng.randint(-4, 4)
        even, odd = "(= u (* 2 v))", "(= u (+ (* 2 w) 1))"
        if rng.random() < 0.5:
            even, odd = odd, even
        a = f"(and {even} (<= {lo} u) (<= u {lo + 2 * rng.randint(1, 3)}))"
        return f"(binary (vars {decls}) (A {a}) (B {odd}))"
    sep = lin([(rng.choice(_COEFFS), v)
               for v in sorted(rng.sample(PAIR_VARS, rng.randint(1, 2)))])
    c = rng.randint(-5, 5)

    def side(bound):
        cubes = []
        for _ in range(rng.randint(1, 3)):
            atoms = [bound(rng.randint(0, 2))]
            atoms += [_pair_atom(rng) for _ in range(rng.randint(0, 2))]
            rng.shuffle(atoms)
            cubes.append(conj(atoms))
        return disj(cubes)

    a = side(lambda d: f"(<= {sep} {c - d})")
    b = side(lambda d: f"(>= {sep} {c + 1 + d})")
    return f"(binary (vars {decls}) (A {a}) (B {b}))"


def pairs_batches(seed: int):
    rng = random.Random(f"pairs:{seed}")
    k = 0
    while True:
        batch = []
        for _ in range(PAIRS_BATCH):
            batch.append(Case(f"pair-{k}", "binary", pair_text(rng), INTERPOLANT))
            k += 1
        yield batch


# ---------------------------------------------------------------------------
# components: renamed copies of the increment examples in one clause set
# ---------------------------------------------------------------------------

TREELIKE_COPIES = 2
_TOKEN = re.compile(r"[^\s()]+|[()]|\s+")


def _renamed(text: str, prefix: str):
    """(declarations, assertions) of a CHC file with every relation symbol
    renamed to prefix + name."""
    declared = set(re.findall(r"\(declare-fun (\S+)", text))
    decls, asserts = [], []
    for line in text.splitlines():
        if not line.startswith(("(declare-fun", "(assert")):
            continue
        line = "".join(prefix + t if t in declared else t
                       for t in _TOKEN.findall(line))
        (decls if line.startswith("(declare-fun") else asserts).append(line)
    return decls, asserts


def components_text(rng: random.Random) -> str:
    """TREELIKE_COPIES copies of increment_treelike (nonlinear, tree-like)
    and one of increment_unwound (body-disjoint with shared heads), each
    its own component; assertions of different copies are interleaved in
    seeded order, each copy keeping its own clause order."""
    treelike = (DATA / "increment_treelike.chc").read_text()
    unwound = (DATA / "increment_unwound.chc").read_text()
    tag = rng.choice(["c", "k", "m"])
    copies = [_renamed(treelike, f"{tag}{j}_") for j in range(TREELIKE_COPIES)]
    copies.append(_renamed(unwound, f"{tag}u_"))
    decls = [d for ds, _ in copies for d in ds]
    queues = [list(asserts) for _, asserts in copies]
    order = [j for j, q in enumerate(queues) for _ in q]
    rng.shuffle(order)
    asserts = [queues[j].pop(0) for j in order]
    return "\n".join(["(set-logic HORN)", *decls, *asserts, "(check-sat)"]) + "\n"


def components_batches(seed: int):
    rng = random.Random(f"components:{seed}")
    k = 0
    while True:
        yield [Case(f"components-{k}", "chc", components_text(rng), SOLVED)]
        k += 1


# ---------------------------------------------------------------------------
# known walls: inputs that end in a budget error today
# ---------------------------------------------------------------------------

# two choices per step: 2^16 derivation cubes exceed the DNF cube budget
DISJUNCTIVE_CHAIN = Case("disjunctive-chain-16", "chc",
                         chain_text(16, False, disjunctive=True), SOLVED)
# integer divisibility: branching on fractional values never settles parity
PARITY_PAIR = Case("parity-pair", "binary",
                   "(binary (vars (x Int) (y Int) (z Int)) (A (= x (* 2 y)))"
                   " (B (= x (+ (* 2 z) 1))))", INTERPOLANT)
