"""Seeded random generators shared by the property and acceptance tests."""

import random

from hornitp.horn import ClauseSet, HornClause, RelationSymbol, rel_atom
from hornitp.lp import Unsat
from hornitp.terms import INT, TRUE, LinearTerm, Var, cand, cnot, cor, eq, ge, le, lt, ne


def random_term(rng: random.Random, variables, max_vars: int = 2,
                max_coeff: int = 3) -> LinearTerm:
    t = LinearTerm.const(rng.randint(-max_coeff, max_coeff))
    for v in rng.sample(variables, rng.randint(1, min(max_vars, len(variables)))):
        c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        t = t + LinearTerm.of(v).scale(c)
    return t


def random_cube(rng: random.Random, variables, max_atoms: int = 2):
    parts = [rng.choice([le, ge, eq, ne])(random_term(rng, variables), 0)
             for _ in range(rng.randint(0, max_atoms))]
    return cand(*parts)


def random_constraint(rng: random.Random, variables, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        rel = rng.choice([le, lt, eq, ne])
        return rel(random_term(rng, variables), random_term(rng, variables))
    shape = rng.choice(["and", "or", "not"])
    if shape == "not":
        return cnot(random_constraint(rng, variables, depth - 1))
    parts = [random_constraint(rng, variables, depth - 1)
             for _ in range(rng.randint(1, 3))]
    return (cand if shape == "and" else cor)(*parts)


def random_clause_set(rng: random.Random) -> ClauseSet:
    """Recursion-free clause set: at most 5 symbols, 8 clauses, arity 3,
    coefficients in [-3, 3].  Bodies only use strictly lower symbols, which
    guarantees an acyclic head-to-body dependence."""
    n_syms = rng.randint(1, 5)
    symbols = [RelationSymbol(f"q{i}", tuple([INT] * rng.randint(0, 3)))
               for i in range(n_syms)]
    pool = [Var(f"v{i}", INT) for i in range(4)]

    def random_atom(sym):
        args = []
        for _ in range(sym.arity):
            base = LinearTerm.of(rng.choice(pool))
            args.append(base if rng.random() < 0.7 else base + rng.randint(-2, 2))
        return rel_atom(sym, *args)

    clauses = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.25:
            body = [random_atom(s)
                    for s in rng.sample(symbols, rng.randint(1, min(2, n_syms)))]
            clauses.append(HornClause(random_cube(rng, pool), tuple(body), None))
        else:
            hi = rng.randrange(n_syms)
            head = random_atom(symbols[hi])
            lower = symbols[:hi]
            n_body = rng.randint(0, min(2, len(lower)))
            body = [random_atom(s) for s in rng.sample(lower, n_body)]
            clauses.append(HornClause(random_cube(rng, pool), tuple(body), head))
    return ClauseSet.make(clauses, symbols)


def chain_clauses(n: int, name=lambda i: f"p{i}", unsat: bool = False) -> ClauseSet:
    """Solvable linear chain of n steps over symbols name(0)..name(n):
    x = 0 -> p0(x), pi(x) and y = x + 1 -> p(i+1)(y), pn(x) and x < 0 ->
    false.  With ``unsat`` the query is x >= n, which the one derivation
    reaches."""
    x, y = Var("x", INT), Var("y", INT)
    tx, ty = LinearTerm.of(x), LinearTerm.of(y)
    symbols = [RelationSymbol(name(i), (INT,)) for i in range(n + 1)]
    clauses = [HornClause(eq(tx, 0), (), rel_atom(symbols[0], tx))]
    for i in range(n):
        clauses.append(HornClause(eq(ty, tx + 1), (rel_atom(symbols[i], tx),),
                                  rel_atom(symbols[i + 1], ty)))
    query = ge(tx, n) if unsat else lt(tx, 0)
    clauses.append(HornClause(query, (rel_atom(symbols[n], tx),), None))
    return ClauseSet.make(clauses)


def ladder(n: int, unsafe: bool = False) -> ClauseSet:
    """Linear set with 2^n derivations of false: x = 0 -> p0(x); step i
    has a_i(y) <- p(i-1)(x) and y = x + 1, b_i(y) <- p(i-1)(x) and
    y = x + 2, p_i(x) <- a_i(x) and p_i(x) <- b_i(x); the query is
    p_n(x) and x < 0 -> false, or x >= 2n with ``unsafe``, which the
    all-b derivation reaches.  It stays not tree-like after merging
    duplicate clauses."""
    x, y = Var("x", INT), Var("y", INT)
    tx, ty = LinearTerm.of(x), LinearTerm.of(y)
    p = [RelationSymbol(f"p{i}", (INT,)) for i in range(n + 1)]
    clauses = [HornClause(eq(tx, 0), (), rel_atom(p[0], tx))]
    for i in range(1, n + 1):
        for step, name in ((1, "a"), (2, "b")):
            s = RelationSymbol(f"{name}{i}", (INT,))
            clauses.append(HornClause(eq(ty, tx + step), (rel_atom(p[i - 1], tx),),
                                      rel_atom(s, ty)))
            clauses.append(HornClause(TRUE, (rel_atom(s, tx),), rel_atom(p[i], tx)))
    query = ge(tx, 2 * n) if unsafe else lt(tx, 0)
    clauses.append(HornClause(query, (rel_atom(p[n], tx),), None))
    return ClauseSet.make(clauses)


def diamond(n: int) -> ClauseSet:
    """Solvable set that is not body-disjoint, with one derivation of false
    of 2^(n+1) - 1 clause instances: x = 0 -> p0(x),
    p(i)(x) and p(i)(y) and z = x + y + 1 -> p(i+1)(z), and
    p_n(x) and x < 0 -> false."""
    x, y, z = Var("x", INT), Var("y", INT), Var("z", INT)
    tx, ty, tz = LinearTerm.of(x), LinearTerm.of(y), LinearTerm.of(z)
    p = [RelationSymbol(f"p{i}", (INT,)) for i in range(n + 1)]
    clauses = [HornClause(eq(tx, 0), (), rel_atom(p[0], tx))]
    for i in range(n):
        clauses.append(HornClause(eq(tz, tx + ty + 1),
                                  (rel_atom(p[i], tx), rel_atom(p[i], ty)),
                                  rel_atom(p[i + 1], tz)))
    clauses.append(HornClause(lt(tx, 0), (rel_atom(p[n], tx),), None))
    return ClauseSet.make(clauses)


def random_unsat_pair(rng: random.Random, sat_fn):
    """Random (A, B) with A and B individually satisfiable but jointly
    unsatisfiable, over at most 3 shared variables."""
    from hornitp.errors import UnknownResult

    pool = [Var(n, INT) for n in ("u", "v", "w")]
    while True:
        a = random_constraint(rng, pool, depth=rng.randint(1, 2))
        b = random_constraint(rng, pool, depth=rng.randint(1, 2))
        try:
            if isinstance(sat_fn(a), Unsat) or isinstance(sat_fn(b), Unsat):
                continue
            if isinstance(sat_fn(cand(a, b)), Unsat):
                return a, b
        except UnknownResult:
            continue


def random_prop_clauses(rng: random.Random, max_vars: int = 8,
                        max_clauses: int = 8, horn: bool = False):
    """Random propositional clause set as (literal lists, variable count)."""
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        variables = rng.sample(range(1, n + 1), k=min(width, n))
        if horn:
            lits = [-v for v in variables]
            if rng.random() < 0.8:
                lits[0] = -lits[0]
        else:
            lits = [v if rng.random() < 0.5 else -v for v in variables]
        clauses.append(lits)
    return clauses, n
