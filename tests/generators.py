"""Seeded random generators shared by the property and acceptance tests."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

from hornitp.horn import ClauseSet, HornClause, RelationSymbol, Solution, rel_atom
from hornitp.lp import Unsat
from hornitp.terms import INT, TRUE, LinearTerm, Var, cand, cnot, cor, eq, ge, gt, le, lt, ne


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


PLANTED_SHAPES = ("chain", "tree", "shared heads", "diamond", "linear DAG")


def _planted_shape(rng: random.Random, kind: str) -> list:
    """Per symbol, bottom-up, the bodies of its defining clauses as lists of
    lower symbol indices; [] is a fact."""
    if kind == "chain":
        return [[[]]] + [[[i]] for i in range(rng.randint(1, 4))]
    if kind == "tree":  # each symbol in one body
        defs = [[[]] for _ in range(rng.randint(2, 4))]
        pool = list(range(len(defs)))
        while len(pool) > 1:
            defs.append([pool[:2]])
            pool = pool[2:] + [len(defs) - 1]
        return defs
    if kind == "shared heads":  # body-disjoint, two symbols defined twice
        return [[[], []], [[]], [[0], [1]], [[]], [[2, 3]]]
    if kind == "diamond":  # one symbol twice in one body
        return [[[]]] + [[[i, i]] for i in range(rng.randint(1, 2))]
    defs = [[[]]]  # linear DAG: each layer forks from the last symbol and joins
    for _ in range(rng.randint(1, 2)):
        base = len(defs) - 1
        defs += [[[base]], [[base]], [[base + 1], [base + 2]]]
    return defs


def _directions(arity: int) -> list:
    """A label's template: bounds on each argument and, for two arguments,
    on their difference and their sum."""
    return [(1,)] if arity == 1 else [(1, 0), (0, 1), (1, -1), (1, 1)]


def _dot(d, v):
    return sum(a * b for a, b in zip(d, v))


def _cube(points, sort: str) -> tuple:
    """The template cube of ``points``: per direction its (least, greatest)
    value over them, widened to ints for Int."""
    cube = []
    for d in _directions(len(points[0])):
        values = [_dot(d, v) for v in points]
        lo, hi = min(values), max(values)
        cube.append((math.floor(lo), math.ceil(hi)) if sort == INT else (lo, hi))
    return tuple(cube)


def _vertices(cube: tuple) -> list:
    """The vertices of a template cube: where two of its bounding lines
    meet inside all the others."""
    if len(cube) == 1:
        return [(cube[0][0],), (cube[0][1],)]
    dirs = _directions(2)
    lines = [(d, b) for d, bounds in zip(dirs, cube) for b in bounds]
    points = set()
    for (d, b), (e, c) in combinations(lines, 2):
        det = d[0] * e[1] - d[1] * e[0]
        if det:
            v = (Fraction(b * e[1] - c * d[1], det), Fraction(d[0] * c - e[0] * b, det))
            if all(lo <= _dot(f, v) <= hi for f, (lo, hi) in zip(dirs, cube)):
                points.add(v)
    return sorted(points)


def _bounded(t: LinearTerm, lo, hi, strict: bool = False):
    """lo <= t <= hi, either bound None for none, < instead with ``strict``."""
    if lo is not None and lo == hi and not strict:
        return eq(t, lo)
    parts = [] if lo is None else [(gt if strict else ge)(t, lo)]
    return cand(*parts, *([] if hi is None else [(lt if strict else le)(t, hi)]))


def _planted_fact(rng: random.Random, num, ys: list) -> tuple:
    """(constraint, vertices): ys in an interval, a box, or on a diagonal
    segment y0 = y1 + c, each a point when its width is 0."""
    a, w = num(-6, 6), num(0, 4)
    if len(ys) == 1:
        return _bounded(LinearTerm.of(ys[0]), a, a + w), [(a,), (a + w,)]
    if rng.random() < 0.5:
        b, v = num(-6, 6), num(0, 4)
        return (cand(_bounded(LinearTerm.of(ys[0]), a, a + w),
                     _bounded(LinearTerm.of(ys[1]), b, b + v)),
                list(product((a, a + w), (b, b + v))))
    c = num(-3, 3)
    return (cand(eq(LinearTerm.of(ys[0]) - LinearTerm.of(ys[1]), c),
                 _bounded(LinearTerm.of(ys[1]), a, a + w)),
            [(a + c, a), (a + w + c, a + w)])


def _planted_step(rng: random.Random, num, xs: list, ys: list) -> tuple:
    """(constraint, map): y_j = the sum of c * x over one argument of each
    body atom (j = 0) or one or two arguments (j > 0), plus a constant,
    where xs holds each body atom's arguments; map takes their values,
    concatenated, to the ys'."""
    flat = [x for atom_xs in xs for x in atom_xs]
    rows = []
    for j in range(len(ys)):
        used = ([rng.choice(atom_xs) for atom_xs in xs] if j == 0 else
                rng.sample(flat, rng.randint(1, min(2, len(flat)))))
        rows.append(([(flat.index(x), rng.choice((1, 1, -1, 2))) for x in used], num(-3, 3)))
    constraint = cand(*[eq(LinearTerm.of(y), LinearTerm.make([(flat[i], c) for i, c in row], d))
                        for y, (row, d) in zip(ys, rows)])
    return constraint, lambda v: tuple(sum(c * v[i] for i, c in row) + d for row, d in rows)


def _planted_query(rng: random.Random, num, unit, strict: bool, label: list,
                   witness: tuple) -> tuple:
    """(direction, bounds, twin bounds): bounds on the direction's term that
    no cube of ``label`` meets, and the same with the bound on the
    witness's side moved onto it."""
    k = rng.randrange(len(_directions(len(witness))))
    d = _directions(len(witness))[k]
    spans = sorted(c[k] for c in label)
    if len(spans) == 2 and spans[1][0] - spans[0][1] >= 2 * unit:  # the gap
        inner = 0 if strict else unit
        lo, hi = spans[0][1] + inner, spans[1][0] - inner
    elif rng.random() < 0.5:  # above the label
        lo, hi = max(s for _, s in spans) + (0 if strict else num(1, 3)), None
    else:  # below it
        lo, hi = None, spans[0][0] - (0 if strict else num(1, 3))
    at, shift = _dot(d, witness), unit if strict else 0
    below = hi is None or (lo is not None and at < hi)
    return d, (lo, hi), (at - shift, hi) if below else (lo, at + shift)


def planted_clause_set(rng: random.Random, sort: str = INT) -> tuple:
    """(safe set, unsafe twin, planted solution of the safe set), drawn over
    one or two of PLANTED_SHAPES with arguments of ``sort``.

    Each symbol has one or two arguments.  A fact bounds them as
    _planted_fact says, and every other clause maps its body's arguments
    affinely onto its head's.  A symbol's planted label is a DNF of at most
    two cubes, each bounding it along _directions: a fact's cube bounds its
    vertices, and a clause's image of a choice of its body's cubes bounds
    the images of their vertices, so the label holds of every derivation
    and the planted solution is one.  Each shape's top symbol gets a query
    that contradicts its label but not true: beyond the label's bounds
    along one direction, or in a gap between its two cubes.  The unsafe
    twin moves one constant of the first query so that the derivation
    taking every symbol's first clause, from the first vertex of its fact,
    reaches false.  Constants are ints for Int and multiples of 1/2 for
    Real, and only Real queries may be strict.
    """
    unit = 1 if sort == INT else Fraction(1, 2)

    def num(lo, hi):
        return rng.randint(lo, hi) * unit

    symbols: list = []
    clauses: list = []
    cubes: list = []  # per symbol, its label's cubes
    witness: list = []  # per symbol, its arguments in the planted derivation
    queries: list = []  # (symbol, direction, strict, bounds, twin bounds)
    for _ in range(1 if rng.random() < 0.75 else 2):  # independent components
        offset = len(symbols)
        for bodies in _planted_shape(rng, rng.choice(PLANTED_SHAPES)):
            p = len(symbols)
            symbols.append(RelationSymbol(f"p{p}", (sort,) * rng.randint(1, 2)))
            ys = [Var(f"y{j}", sort) for j in range(symbols[p].arity)]
            images: list = []  # per clause, the cubes of its images
            for body in bodies:
                body = [offset + b for b in body]
                if not body:
                    constraint, vertices = _planted_fact(rng, num, ys)
                    images.append([_cube(vertices, sort)])
                    atoms, point = [], vertices[0]
                else:
                    xs = [[Var(f"x{i}_{j}", sort) for j in range(symbols[b].arity)]
                          for i, b in enumerate(body)]
                    constraint, step = _planted_step(rng, num, xs, ys)
                    images.append([_cube([step(sum(vs, ())) for vs in product(*map(_vertices, c))],
                                         sort) for c in product(*[cubes[b] for b in body])])
                    atoms = [rel_atom(symbols[b], *atom_xs) for b, atom_xs in zip(body, xs)]
                    point = step(sum([witness[b] for b in body], ()))
                clauses.append(HornClause(constraint, tuple(atoms), rel_atom(symbols[p], *ys)))
                if len(images) == 1:
                    witness.append(point)
            label = list(dict.fromkeys(c for image in images for c in image))
            while len(label) > 2:  # the last two cubes become one that holds both
                label[-2:] = [tuple((min(a[0], b[0]), max(a[1], b[1]))
                                    for a, b in zip(label[-2], label[-1]))]
            cubes.append(label)
        strict = sort != INT and rng.random() < 0.5
        queries.append((p, strict, *_planted_query(rng, num, unit, strict, cubes[p], witness[p])))
    sets = []
    for twin in False, True:
        out = list(clauses)
        for k, (p, strict, d, bounds, twin_bounds) in enumerate(queries):
            xs = [Var(f"x{j}", sort) for j in range(symbols[p].arity)]
            lo, hi = twin_bounds if twin and k == 0 else bounds
            out.append(HornClause(_bounded(LinearTerm.make(zip(xs, d)), lo, hi, strict),
                                  (rel_atom(symbols[p], *xs),), None))
        sets.append(ClauseSet.make(out, symbols))
    planted = {}
    for sym, label in zip(symbols, cubes):
        params = [Var(f"a{j}", sort) for j in range(sym.arity)]
        planted[sym] = (params, cor(*[cand(*[_bounded(LinearTerm.make(zip(params, d)), *span)
                                            for d, span in zip(_directions(sym.arity), c)])
                                      for c in label]))
    return sets[0], sets[1], Solution(planted)
