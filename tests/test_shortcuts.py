"""The decision gates' exact shortcuts, each against a copy of the code it
replaced kept in this file: canonical negation and the =/!= halves built
without canonicalising again, the explicit-stack to_dnf and evaluate on
constraints built in negation normal form, Solution.applied's renaming and
FarkasCertificate.is_valid's one-dict sum."""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from generators import random_constraint, random_term
from hornitp import chc
from hornitp.engine import sat_cube
from hornitp.errors import CubeLimitExceeded
from hornitp.horn import RelationSymbol, Solution, rel_atom
from hornitp.lp import FarkasCertificate, Sat, Unsat, decide_rational
from hornitp.sexpr import parse_with, read_constraint
from hornitp.terms import (
    EQ,
    FALSE,
    INT,
    LE,
    LT,
    NE,
    REAL,
    TRUE,
    CAnd,
    CAtom,
    COr,
    Cube,
    LinearTerm,
    Var,
    _atom_cubes,
    _canonical_atom,
    cand,
    cnot,
    cor,
    evaluate,
    ge,
    le,
    substitute,
    to_dnf,
    weighted_sum,
)

ROOT = Path(__file__).resolve().parent.parent
CHC_FILES = (sorted((ROOT / "tests" / "data").rglob("*.chc"))
             + sorted((ROOT / "perfbench" / "data").glob("*.chc")))


def _typed_term(t):
    """t with the type of every coefficient and of the constant, so that an
    int and an equal Fraction compare unequal."""
    return tuple((v, type(c), c) for v, c in t.coeffs), type(t.constant), t.constant


def _typed(a):
    return a if a is True or a is False else (a.rel, _typed_term(a.term))


def _typed_atoms(c):
    out, stack = [], [c]
    while stack:
        c = stack.pop()
        if type(c) is CAtom:
            out.append(_typed(c.atom))
        elif c is not TRUE and c is not FALSE:
            stack += c.args
    return out


def _typed_cubes(cubes):
    return [[_typed(a) for a in cube] for cube in cubes]


# ---------------------------------------------------------------------------
# The replaced code
# ---------------------------------------------------------------------------

_REF_NEGATED = {LE: LT, LT: LE, EQ: NE, NE: EQ}


@dataclass(frozen=True)
class CNot:
    """The negation node constraints had before cnot built their negation
    normal form; only the references below read it."""

    arg: object


def _ref_negated(a):
    t = a.term
    return _canonical_atom(t.scale(-1) if a.rel in (LE, LT) else t, _REF_NEGATED[a.rel])


def _ref_atom_cubes(a):
    if a.rel == NE:
        lo = _canonical_atom(a.term, LT)
        hi = _canonical_atom(a.term.scale(-1), LT)
        out = []
        for alt in (lo, hi):
            if alt is True:
                return [[]]
            if alt is not False:
                out.append([alt])
        return out
    if a.rel == EQ:
        lo = _canonical_atom(a.term, LE)
        hi = _canonical_atom(a.term.scale(-1), LE)
        cube = []
        for half in (lo, hi):
            if half is False:
                return []
            if half is not True:
                cube.append(half)
        return [cube]
    return [[a]]


def _ref_nnf(c, neg):
    if c is TRUE:
        return FALSE if neg else TRUE
    if c is FALSE:
        return TRUE if neg else FALSE
    if isinstance(c, CNot):
        return _ref_nnf(c.arg, not neg)
    if isinstance(c, CAtom):
        if not neg:
            return c
        na = _ref_negated(c.atom)
        if na is True:
            return TRUE
        if na is False:
            return FALSE
        return CAtom(na)
    parts = [_ref_nnf(a, neg) for a in c.args]
    if isinstance(c, CAnd):
        return cor(*parts) if neg else cand(*parts)
    return cand(*parts) if neg else cor(*parts)


def _ref_to_dnf(c, limit):
    def go(c):
        if c is TRUE:
            return [[]]
        if c is FALSE:
            return []
        if isinstance(c, CAtom):
            return _ref_atom_cubes(c.atom)
        if isinstance(c, COr):
            out = []
            for a in c.args:
                out.extend(go(a))
                if len(out) > limit:
                    raise CubeLimitExceeded(limit)
            return out
        acc = [[]]
        for a in c.args:
            alts = go(a)
            if len(acc) * len(alts) > limit:
                raise CubeLimitExceeded(limit)
            acc = [x + y for x in acc for y in alts]
        return acc

    return [list(dict.fromkeys(raw)) for raw in go(_ref_nnf(c, False))]


def _ref_evaluate(c, model):
    if c is TRUE:
        return True
    if c is FALSE:
        return False
    if isinstance(c, CAtom):
        return c.atom.holds(model)
    if isinstance(c, CNot):
        return not _ref_evaluate(c.arg, model)
    if isinstance(c, CAnd):
        return all(_ref_evaluate(a, model) for a in c.args)
    return any(_ref_evaluate(a, model) for a in c.args)


def _ref_applied(sol, a):
    params, body = sol.assignment[a.symbol]
    return substitute(body, {p: t for p, t in zip(params, a.args)})


def _ref_is_valid(cert):
    if any(lam < 0 for _, lam in cert.multipliers):
        return False
    total = weighted_sum((cert.atoms[i].term, lam) for i, lam in cert.multipliers)
    if total.coeffs:
        return False
    strict = any(cert.atoms[i].rel == LT and lam > 0 for i, lam in cert.multipliers)
    if strict != cert.strict:
        return False
    return total.constant > 0 or (total.constant == 0 and strict)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

POOL = [Var("a", INT), Var("b", INT), Var("c", INT), Var("r", REAL), Var("s", REAL)]
COEFFS = [1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
CONSTANTS = [0, 1, -1, 5, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 6)]


def _canonical_atoms(rng, count):
    """Canonical atoms over Int, Real and mixed variables with int and
    fractional coefficients and constants, each relation alike."""
    out = []
    while len(out) < count:
        sorts = rng.choice([POOL[:3], POOL[3:], POOL])
        coeffs = {v: rng.choice(COEFFS) for v in rng.sample(sorts, rng.randint(1, len(sorts)))}
        a = _canonical_atom(LinearTerm.make(coeffs, rng.choice(CONSTANTS)),
                            rng.choice([LE, LT, EQ, NE]))
        if a is not True and a is not False:
            out.append(a)
    return out


def _deep_nest(levels):
    """``deep_query``'s constraint: and/or nested 2 * levels deep."""
    x = LinearTerm.of(POOL[0])
    c = le(x, 0)
    for k in range(1, levels + 1):
        c = cand(le(x, k), cor(ge(x, -k), c))
    return c


def _deep_and_not_nest(levels):
    """and/not/or/not nested 4 * levels deep, read from text, whose negation
    normal form is one conjunction of 2 * levels + 1 atoms."""
    text = "(<= a 0)"
    for k in range(1, levels + 1):
        text = f"(and (<= a {k}) (not (or (not {text}) (<= b {-k}))))"
    names = {v.name: v for v in POOL}
    return parse_with(text, lambda forms: read_constraint(forms, 0, names))


def _hostile_constraints(rng):
    """(built, raw): negation towers, deep nests and a wide disjunction
    built through cand, cor and cnot; and and/or nodes built directly, with
    true, false, repeated and same-kind arguments that cand and cor would
    have folded away."""
    atoms = [CAtom(a) for a in _canonical_atoms(rng, 12)]
    built = [_deep_nest(60), cnot(_deep_nest(40))]
    c = atoms[0]
    for k in range(200):
        c = cnot(c) if k % 3 else cnot(cand(c, atoms[k % 12]))
    built.append(c)
    built.append(cor(*(cand(a, b) for a in atoms[:5] for b in atoms[5:9])))
    raw = []
    for _ in range(60):
        parts = [rng.choice(atoms + [TRUE, FALSE]) for _ in range(rng.randint(0, 4))]
        kind = rng.choice([CAnd, COr])
        node = kind(tuple(parts))
        if rng.random() < 0.5:
            node = kind((node, rng.choice(atoms), node))
        raw.append(rng.choice([node, CAnd((node, COr((node, rng.choice(atoms)))))]))
    return built, raw


def _chc_constraints():
    out = []
    for path in CHC_FILES:
        out += [h.constraint for h in chc.parse_chc(path.read_text()).clauses]
    return out


def _random_stream_constraints(seed, count):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    stream = workloads.random_stream(seed)
    out = []
    for _ in range(count):
        hc = chc.parse_chc(next(stream)[1])
        out += [h.constraint for h in hc.clauses]
        # a gate's shape: premises and a negated conclusion
        out.append(cand(*(h.constraint for h in hc.clauses[:2]),
                        cnot(hc.clauses[-1].constraint)))
    return out


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAtomShortcuts:
    def test_negated_matches_canonicalisation(self):
        atoms = _canonical_atoms(random.Random(3), 3000)
        for a in atoms:
            assert _typed(a.negated()) == _typed(_ref_negated(a)), a
        rels = {a.rel for a in atoms}
        sorts = {frozenset(v.sort for v in a.vars) for a in atoms}
        fractional = sum(type(a.term.constant) is not int for a in atoms)
        assert rels == {LE, LT, EQ, NE} and len(sorts) == 3 and fractional > 100

    def test_atom_cubes_match_canonicalisation(self):
        for a in _canonical_atoms(random.Random(5), 3000):
            assert _typed_cubes(_atom_cubes(a)) == _typed_cubes(_ref_atom_cubes(a)), a

    def test_term_negation_keeps_representation(self):
        rng = random.Random(7)
        for _ in range(500):
            t = LinearTerm.make({v: rng.choice(COEFFS) for v in rng.sample(POOL, 2)},
                                rng.choice(CONSTANTS))
            assert _typed_term(-t) == _typed_term(t.scale(-1))


class TestToDnf:
    @staticmethod
    def _agree(c, ref=None, limits=range(9)):
        """to_dnf(c) gives the reference's cubes for ``ref``, by default c,
        at each limit, or both raise CubeLimitExceeded."""
        for limit in (*limits, 10_000):
            try:
                want = _ref_to_dnf(c if ref is None else ref, limit)
            except CubeLimitExceeded:
                with pytest.raises(CubeLimitExceeded):
                    to_dnf(c, limit)
                continue
            assert _typed_cubes([cube.atoms for cube in to_dnf(c, limit)]) == _typed_cubes(want), c

    def test_chc_files(self):
        constraints = _chc_constraints()
        assert len(constraints) > 40
        for c in constraints:
            self._agree(c)
            self._agree(cnot(c), CNot(c))

    def test_random_stream_sets(self):
        for c in _random_stream_constraints(3, 150):
            self._agree(c)

    def test_random_constraints(self):
        rng = random.Random(11)
        for _ in range(400):
            self._agree(random_constraint(rng, POOL[:3] + POOL[3:4], depth=4))

    def test_hostile_nests(self):
        rng = random.Random(13)
        built, raw = _hostile_constraints(rng)
        for c in built:
            self._agree(c)
            self._agree(cnot(c), CNot(c))
        # to_dnf expands a directly built node as it stands, with no rebuild
        # by cand and cor first: its cubes are equivalent to the reference's,
        # not equal; cnot rebuilds it, so its negation's cubes are equal
        seen = {True: 0, False: 0}
        sat = {True: 0, False: 0}
        for c in raw:
            cubes = [cube.atoms for cube in to_dnf(c)]
            want = _ref_to_dnf(c, 10_000)
            for _ in range(20):
                m = {v: Fraction(rng.randint(-8, 8), 1 if v.sort == INT else rng.choice([1, 2, 3]))
                     for v in POOL}
                holds = evaluate(c, m)
                assert any(all(a.holds(m) for a in cube) for cube in cubes) is holds, (c, m)
                assert any(all(a.holds(m) for a in cube) for cube in want) is holds, (c, m)
                seen[holds] += 1
            feasible = any(isinstance(sat_cube(Cube(cube)), Sat) for cube in cubes)
            assert feasible == any(isinstance(sat_cube(Cube(tuple(cube))), Sat) for cube in want)
            sat[feasible] += 1
            self._agree(cnot(c), CNot(c))
        assert min(seen.values()) > 100 and min(sat.values()) > 5, (seen, sat)

    def test_3000_deep_nests_expand_without_recursion(self):
        # the walk reaches the innermost and/or before the cube count grows
        with pytest.raises(CubeLimitExceeded):
            to_dnf(_deep_nest(1500), 100)
        (cube,) = to_dnf(_deep_and_not_nest(750), 1)
        assert len(cube) == 1501


class TestEvaluate:
    def test_matches_recursive_evaluation(self):
        rng = random.Random(17)
        built, raw = _hostile_constraints(rng)
        built += _chc_constraints() + [random_constraint(rng, POOL, depth=4) for _ in range(300)]
        # a built constraint's negation reads its atoms in the same order,
        # as the reference reads them under CNot; a negated Int atom is the
        # complement only at integer values, so those models give Int
        # variables integers
        pairs = [(c, c) for c in built + raw] + [(cnot(c), CNot(c)) for c in built]
        checked = missing = 0
        for c, ref in pairs:
            for _ in range(4):
                model = {v: Fraction(rng.randint(-8, 8),
                                     rng.choice([1, 1, 2]) if ref is c or v.sort == REAL else 1)
                         for v in POOL if rng.random() < 0.9}
                try:
                    want = _ref_evaluate(ref, model)
                except KeyError:
                    # the same atoms are read, in the same order
                    with pytest.raises(KeyError):
                        evaluate(c, model)
                    missing += 1
                    continue
                assert evaluate(c, model) is want, c
                checked += 1
        assert checked > 1000 and missing > 100

    def test_3000_deep_nest(self):
        c = _deep_nest(1500)
        x = POOL[0]
        # below -1500 every or is decided by its innermost argument
        assert evaluate(c, {x: Fraction(-1501)})
        assert not evaluate(cnot(c), {x: Fraction(-1501)})
        assert not evaluate(c, {x: Fraction(1501)})
        assert evaluate(_deep_and_not_nest(750), {x: Fraction(0), POOL[1]: Fraction(0)})


class TestSolutionApplied:
    def test_matches_substitution(self):
        rng = random.Random(19)
        i1, i2, r1 = Var("i1", INT), Var("i2", INT), Var("r1", REAL)
        sym = RelationSymbol("p", (INT, INT, REAL))
        args_pool = [Var(f"u{k}", INT) for k in range(3)] + [Var(f"w{k}", REAL) for k in range(2)]
        renamed = 0
        for _ in range(600):
            body = random_constraint(rng, [i1, i2, r1], depth=3)
            sol = Solution({sym: ([i1, i2, r1], body)})
            ints, reals = args_pool[:3], args_pool[3:]
            kind = rng.choice(["vars", "vars", "repeated", "compound", "int-in-real", "const"])
            if kind == "vars":
                args = rng.sample(ints, 2) + [rng.choice(reals)]
            elif kind == "repeated":
                u = rng.choice(ints)
                args = [u, u, rng.choice(reals)]
            elif kind == "compound":
                args = [random_term(rng, ints), rng.choice(ints), rng.choice(reals)]
            elif kind == "int-in-real":
                args = rng.sample(ints, 3)
            else:
                args = [rng.randint(-3, 3), rng.choice(ints), rng.choice(reals)]
            a = rel_atom(sym, *args)
            got, want = sol.applied(a), _ref_applied(sol, a)
            assert got == want and repr(got) == repr(want), (body, args)
            assert _typed_atoms(got) == _typed_atoms(want)
            renamed += kind == "vars"
        assert renamed > 100


class TestCertificateValidity:
    def test_matches_weighted_sum_form(self):
        rng = random.Random(29)
        pool = [Var(f"c{i}", INT) for i in range(3)] + [Var("q", REAL)]
        certs = []
        while len(certs) < 150:
            atoms = []
            for _ in range(rng.randint(2, 6)):
                rel = rng.choice([LE, LT, EQ])
                a = _canonical_atom(random_term(rng, pool) + rng.choice(CONSTANTS), rel)
                if a is not True and a is not False:
                    atoms.append(a)
            res = decide_rational(atoms)
            if isinstance(res, Unsat):
                certs.append(res.certificate)
        seen = {"valid": 0, "invalid": 0}
        for cert in certs:
            variants = [cert, FarkasCertificate(cert.atoms, cert.multipliers, not cert.strict,
                                                cert.origins)]
            for k in (Fraction(1, 3), Fraction(7, 2), Fraction(4, 2)):
                variants.append(FarkasCertificate(
                    cert.atoms, tuple((i, lam * k) for i, lam in cert.multipliers),
                    cert.strict, cert.origins))
            mults = list(cert.multipliers)
            j = rng.randrange(len(mults))
            for lam in (-mults[j][1], 0, Fraction(mults[j][1], 3), mults[j][1] + 1):
                changed = mults[:j] + [(mults[j][0], lam)] + mults[j + 1:]
                for strict in (False, True):
                    variants.append(FarkasCertificate(cert.atoms, tuple(changed), strict,
                                                      cert.origins))
            for v in variants:
                want = _ref_is_valid(v)
                assert v.is_valid() is want, v
                seen["valid" if want else "invalid"] += 1
        assert seen["valid"] > 300 and seen["invalid"] > 1000
