"""Constraint language: terms, canonical atoms, DNF, evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_constraint
from test_shortcuts import CNot, _chc_constraints, _ref_nnf
from hornitp.errors import CubeLimitExceeded, SortMismatch
from hornitp.sexpr import parse_with, read_constraint, read_number
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
    LinearAtom,
    LinearTerm,
    Var,
    _atom_cubes,
    _canonical_atom,
    atom,
    cand,
    cnot,
    cor,
    eq,
    evaluate,
    free_vars,
    ge,
    le,
    lt,
    ne,
    rename_injective,
    substitute,
    to_dnf,
    weighted_sum,
)

X = Var("x", INT)
Y = Var("y", INT)
RES = Var("res", INT)
TX = LinearTerm.of(X)
TY = LinearTerm.of(Y)


class TestValueTypes:
    """Var, LinearTerm, LinearAtom and RelationSymbol are tuples: their hash
    is the tuple's, so set and dict iteration orders match a dataclass's."""

    def _values(self):
        from hornitp.horn import RelationSymbol

        term = TX - 2 * TY + 3
        a = LinearAtom(term, LE)
        return [(X, ("x", INT)), (Var("r", REAL), ("r", REAL)),
                (term, (term.coeffs, term.constant)), (a, (term, LE)),
                (RelationSymbol("p", (INT, REAL)), ("p", (INT, REAL))),
                (RelationSymbol("q"), ("q", ()))]

    def test_hash_is_the_field_tuple_hash(self):
        for value, fields in self._values():
            assert hash(value) == hash(fields)

    def test_var_sorts_by_name_then_sort(self):
        vs = [Var("y", INT), Var("x", REAL), Var("x", INT), Var("a", REAL)]
        assert sorted(vs) == [Var("a", REAL), Var("x", INT), Var("x", REAL), Var("y", INT)]

    def test_attributes_are_read_only(self):
        for value, _ in self._values():
            for attr in ("name", "sort", "coeffs", "term", "arg_sorts"):
                with pytest.raises(AttributeError):
                    setattr(value, attr, None)

    def test_arithmetic_is_term_arithmetic(self):
        t1, t2 = TX + 1, 2 * TY
        assert t1 + t2 == LinearTerm.make({X: 1, Y: 2}, 1)
        assert 2 * t1 == t1 * 2 == LinearTerm.make({X: 2}, 2)
        assert Fraction(1, 2) * t2 == TY
        assert t1 - t2 == LinearTerm.make({X: 1, Y: -2}, 1)
        assert 1 + t1 == t1 + 1 == LinearTerm.make({X: 1}, 2)
        for t in (t1 + t2, 2 * t1, t1 * 2, 1 + t1):
            assert isinstance(t, LinearTerm) and len(t) == 2


class TestLinearTerm:
    def test_no_zero_coefficients_stored(self):
        t = TX + TY - TX
        assert t.coeffs == ((Y, Fraction(1)),)

    def test_exact_rational_arithmetic(self):
        t = TX.scale(Fraction(1, 3)) + TX.scale(Fraction(2, 3))
        assert t == TX

    def test_evaluate(self):
        t = TX.scale(2) + TY.scale(-3) + 5
        assert t.evaluate({X: Fraction(1), Y: Fraction(2)}) == 1

    def test_substituted_real_into_int_rejected(self):
        r = Var("r", REAL)
        with pytest.raises(SortMismatch):
            (TX + 1).substituted({X: LinearTerm.of(r)})


class TestCanonicalAtoms:
    def test_equality_positive_leading_coefficient(self):
        a = eq(-TX + TY)
        b = eq(TX - TY)
        assert a == b

    def test_coprime_integer_coefficients(self):
        assert le(TX.scale(4) - TY.scale(6), 2) == le(TX.scale(2) - TY.scale(3), 1)

    def test_int_tightening_floor(self):
        # 2x <= 1 over Int means x <= 0
        assert le(TX.scale(2), 1) == le(TX, 0)

    def test_int_tightening_strict_to_nonstrict(self):
        # x < 1 over Int means x <= 0
        assert lt(TX, 1) == le(TX, 0)

    def test_ground_atoms_fold(self):
        assert le(LinearTerm.const(0), 1) is TRUE
        assert lt(LinearTerm.const(3), 1) is FALSE
        assert eq(TX - TX) is TRUE

    def test_nonintegral_int_equation_folds(self):
        assert eq(TX.scale(2), 1) is FALSE
        assert ne(TX.scale(2), 1) is TRUE


class TestFreeVarsSubstitute:
    def test_free_vars_of_clause_body(self):
        # body constraint of a guarded transition plus a frame condition
        xp = Var("x'", INT)
        c = cand(ge(LinearTerm.of(xp), 0), le(TX - LinearTerm.of(RES), 0))
        assert free_vars(c) == {xp, X, RES}

    def test_free_vars_trivial(self):
        assert free_vars(TRUE) == frozenset()
        assert free_vars(cand(ge(TX, 0), cnot(eq(TY - TX)))) == {X, Y}

    def test_substitute_constant_fold(self):
        c = eq(LinearTerm.of(RES) - TX - 1)
        assert substitute(c, {X: LinearTerm.const(0)}) == eq(LinearTerm.of(RES) - 1)

    def test_substitute_identity(self):
        c = cor(le(TX, 0), ne(TY, 1))
        assert substitute(c, {}) == c

    def test_substitute_renaming(self):
        rec, n, tmp = Var("rec", INT), Var("n", INT), Var("tmp", INT)
        c = eq(LinearTerm.of(rec) - LinearTerm.of(n) - 1)
        out = substitute(c, {n: LinearTerm.of(tmp)})
        assert out == eq(LinearTerm.of(rec) - LinearTerm.of(tmp) - 1)

    def test_substitute_composes(self):
        c = le(TX.scale(2) + TY, 3)
        s1 = {X: TY + 1}
        s2 = {Y: LinearTerm.const(2)}
        combined = {X: (TY + 1).substituted(s2), Y: LinearTerm.const(2)}
        assert substitute(substitute(c, s1), s2) == substitute(c, combined)


def _recursive_substitute(c, sigma):
    """terms.substitute as a recursion over the constraint."""
    if not sigma or c is TRUE or c is FALSE:
        return c
    if isinstance(c, CAtom):
        return atom(c.atom.term.substituted(sigma), c.atom.rel)
    parts = [_recursive_substitute(a, sigma) for a in c.args]
    return cand(*parts) if isinstance(c, CAnd) else cor(*parts)


class TestSubstituteIterative:
    POOL = [X, Y, RES, Var("r", REAL)]

    def _sigma(self, rng):
        """Terms for some pool variables: constants that fold atoms to true
        or false, sums and renamings, now and then a Real term for an Int."""
        sigma = {}
        for v in rng.sample(self.POOL, rng.randint(0, len(self.POOL))):
            kind = rng.random()
            if kind < 0.3:
                sigma[v] = LinearTerm.const(rng.randint(-2, 2))
            elif kind < 0.95:
                w = rng.choice([X, Y, RES])
                sigma[v] = LinearTerm.of(w).scale(rng.choice([1, -1, 2])) + rng.randint(-1, 1)
            else:
                sigma[v] = LinearTerm.of(self.POOL[3]) + 1
        return sigma

    def _raw(self, rng, depth):
        """A constraint built with the constructors, so true, false,
        repeated and same-kind arguments survive until substitute rebuilds it."""
        k = rng.random()
        if depth == 0 or k < 0.3:
            return rng.choice([TRUE, FALSE, random_constraint(rng, self.POOL[:3], 1)])
        if k < 0.45:
            return cnot(self._raw(rng, depth - 1))
        args = [self._raw(rng, depth - 1) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            args.append(args[0])
        return (CAnd if k < 0.75 else COr)(tuple(args))

    def _outcome(self, fn, c, sigma):
        try:
            return fn(c, sigma)
        except SortMismatch as exc:
            return ("SortMismatch", str(exc))

    def test_matches_recursive(self):
        rng = random.Random(23)
        for i in range(3000):
            c = (random_constraint(rng, self.POOL, rng.randint(0, 4)) if i % 2
                 else self._raw(rng, rng.randint(0, 4)))
            sigma = self._sigma(rng)
            expected = self._outcome(_recursive_substitute, c, sigma)
            out = self._outcome(substitute, c, sigma)
            assert out == expected
            if expected is TRUE or expected is FALSE:
                assert out is expected

    def test_deep_nest(self):
        # and/or 6,000 deep: past the recursion limit for a recursive walk
        c = le(TX, 0)
        for k in range(1, 3001):
            c = cand(le(TX, k), cor(ge(TX, -k), c))
        out = substitute(c, {X: TY + 1})
        assert free_vars(out) == {Y}
        for y in (-3002, -3001, -1, 0, 2999, 3000):
            assert evaluate(out, {Y: Fraction(y)}) == evaluate(c, {X: Fraction(y + 1)})
        # not/and alternating 6,000 deep, read in negation normal form
        text = "(<= x 0)"
        for k in range(1, 3001):
            text = f"(not (and (<= x {k}) {text}))"
        c = parse_with(text, lambda forms: read_constraint(forms, 0, {"x": X}))
        out = substitute(c, {X: TY + 1})
        for y in (-3002, -1, 0, 1, 3000):
            assert evaluate(out, {Y: Fraction(y)}) == evaluate(c, {X: Fraction(y + 1)})


class TestToDnf:
    def test_single_atom(self):
        cubes = to_dnf(ge(TX, 0))
        assert len(cubes) == 1
        assert list(cubes[0].atoms) == [le(-TX, 0).atom]

    def test_disequality_split(self):
        cubes = to_dnf(ne(LinearTerm.of(RES) - TX - 1))
        assert len(cubes) == 2

    def test_distribution_count(self):
        a, b, c, d = (le(LinearTerm.of(Var(n, INT)), 0) for n in "abcd")
        cubes = to_dnf(cand(cor(a, b), cor(c, d)))
        assert len(cubes) == 4

    def test_no_ne_atoms_or_negations(self):
        rng = random.Random(5)
        pool = [X, Y, RES]
        for _ in range(100):
            c = random_constraint(rng, pool)
            for cube in to_dnf(c):
                assert all(a.rel in (LE, LT, EQ) for a in cube.atoms)

    def test_empty_and_or_built_directly(self):
        # an and of nothing is true and an or of nothing false, as evaluate reads them
        a = le(TX, 0)
        assert [cube.atoms for cube in to_dnf(CAnd(()))] == [()]
        assert to_dnf(COr(())) == [] and to_dnf(CAnd((a, COr(())))) == []
        assert [cube.atoms for cube in to_dnf(COr((CAnd(()), a)))] == [(), (a.atom,)]
        assert evaluate(CAnd(()), {}) and not evaluate(COr(()), {})

    def test_cube_limit(self):
        big = cand(*(cor(le(TX, i), le(TY, i)) for i in range(20)))
        with pytest.raises(CubeLimitExceeded):
            to_dnf(big, limit=100)

    def test_dnf_equivalent_on_sample_grid(self):
        rng = random.Random(11)
        pool = [X, Y]
        points = [{X: Fraction(i, d), Y: Fraction(j, d)}
                  for i in range(-3, 4) for j in range(-3, 4) for d in (1, 2)]
        for _ in range(60):
            c = random_constraint(rng, pool)
            cubes = to_dnf(c)
            for m in points:
                expected = evaluate(c, m)
                got = any(all(a.holds(m) for a in cube.atoms) for cube in cubes)
                # integer tightening may strengthen atoms at non-integer points
                if all(v.denominator == 1 for v in m.values()):
                    assert got == expected, (c, m)


def _assert_nnf(c):
    """c holds only atoms, and/or nodes and true/false; an and/or has two or
    more distinct arguments, none of them constant or of its own kind."""
    stack = [c]
    while stack:
        c = stack.pop()
        if type(c) is CAtom or c is TRUE or c is FALSE:
            continue
        assert type(c) is CAnd or type(c) is COr, c
        assert len(set(c.args)) == len(c.args) > 1, c
        assert not any(a is TRUE or a is FALSE or type(a) is type(c) for a in c.args), c
        stack += c.args


class TestNegationNormalForm:
    """Every constraint is built in negation normal form, which lets to_dnf
    expand it without rewriting it first."""

    R = Var("r", REAL)

    def _constraints(self, rng):
        """random_constraint draws, their substitutions and injective
        renamings, and the constraints read from the repository's .chc files."""
        ints = [X, Y, RES]
        out = []
        for _ in range(400):
            c = random_constraint(rng, ints + [self.R], depth=4)
            sigma = {v: LinearTerm.of(rng.choice(ints)).scale(rng.choice([1, -2]))
                     + rng.randint(-1, 1) for v in rng.sample(ints, 2)}
            sigma[self.R] = LinearTerm.const(rng.randint(-1, 1)) if rng.random() < 0.5 else TX
            ren = dict(zip(ints, rng.sample(ints, 3)))
            ren[self.R] = Var("r2", REAL)
            out += [c, substitute(c, sigma), rename_injective(c, ren)]
        return out + _chc_constraints()

    def test_built_constraints_are_in_nnf(self):
        rng = random.Random(59)
        constraints = self._constraints(rng)
        compound = 0
        for c in constraints:
            n = cnot(c)
            _assert_nnf(c)
            _assert_nnf(n)
            assert cnot(n) == c, c
            # the negation pass to_dnf made before each expansion gives cnot's result
            assert n == _ref_nnf(CNot(c), False), c
            for _ in range(5):
                m = {v: Fraction(rng.randint(-6, 6), 1 if v.sort == INT else rng.choice([1, 2, 3]))
                     for v in free_vars(c)}
                assert evaluate(n, m) == (not evaluate(c, m)), (c, m)
            compound += type(c) is CAnd or type(c) is COr
        assert len(constraints) > 1200 and compound > 250, (len(constraints), compound)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3))
def test_atom_negation_is_complement(a, b, d, x):
    t = TX.scale(a) + Fraction(b, d)
    c = le(t, 0)
    if c in (TRUE, FALSE):
        return
    m = {X: Fraction(x)}
    assert evaluate(c, m) != evaluate(cnot(c), m)


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5))
def test_evaluate_respects_structure(x, y):
    m = {X: Fraction(x), Y: Fraction(y)}
    c1, c2 = le(TX - TY, 0), ne(TX, 1)
    assert evaluate(cand(c1, c2), m) == (evaluate(c1, m) and evaluate(c2, m))
    assert evaluate(cor(c1, c2), m) == (evaluate(c1, m) or evaluate(c2, m))
    assert evaluate(cnot(c1), m) == (not evaluate(c1, m))


# ---------------------------------------------------------------------------
# Coefficient representation: ints where integral, Fractions otherwise
# ---------------------------------------------------------------------------


def _reference_canonical_atom(term, rel):
    """_canonical_atom over Fractions throughout: scale by the lcm of the
    denominators, divide by the gcd, flip = and != to a positive leading
    coefficient, then tighten all-Int atoms."""
    coeffs = [(v, Fraction(c)) for v, c in term.coeffs]
    const = Fraction(term.constant)
    if not coeffs:
        return {LE: const <= 0, LT: const < 0, EQ: const == 0, NE: const != 0}[rel]
    denom_lcm = 1
    for _, c in coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    coeffs = [(v, c * denom_lcm) for v, c in coeffs]
    const *= denom_lcm
    g = 0
    for _, c in coeffs:
        g = math.gcd(g, int(c))
    if g > 1:
        coeffs = [(v, c / g) for v, c in coeffs]
        const /= g
    if rel in (EQ, NE) and coeffs[0][1] < 0:
        coeffs = [(v, -c) for v, c in coeffs]
        const = -const
    if all(v.sort == INT for v, _ in coeffs):
        if rel == LE:
            const = Fraction(math.ceil(const))
        elif rel == LT:
            const = Fraction(math.floor(const) + 1)
            rel = LE
        elif const.denominator != 1:
            return rel == NE
    return LinearAtom(LinearTerm(tuple(coeffs), const), rel)


_REL_HOLDS = {LE: lambda x: x <= 0, LT: lambda x: x < 0,
              EQ: lambda x: x == 0, NE: lambda x: x != 0}


def _random_rational_term(rng, pool):
    coeffs = {v: Fraction(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]),
                          rng.choice([1, 1, 2, 3, 4, 6]))
              for v in rng.sample(pool, rng.randint(0, len(pool)))}
    return LinearTerm.make(coeffs, Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5])))


def _assert_representation(t: LinearTerm):
    for c in [c for _, c in t.coeffs] + [t.constant]:
        assert not isinstance(c, float), t
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (t, c)


class TestIntegerRepresentation:
    def test_canonical_atom_matches_fraction_reference(self):
        rng = random.Random(41)
        ints = [Var(f"i{k}", INT) for k in range(3)]
        reals = [Var(f"r{k}", REAL) for k in range(3)]
        folded = 0
        for trial in range(1500):
            pool = rng.choice([ints, reals, ints[:2] + reals[:1]])
            term, rel = _random_rational_term(rng, pool), rng.choice([LE, LT, EQ, NE])
            got, want = _canonical_atom(term, rel), _reference_canonical_atom(term, rel)
            assert got == want, (trial, term, rel)
            if isinstance(got, bool):
                folded += 1
                continue
            assert all(type(c) is int for _, c in got.term.coeffs), got
            _assert_representation(got.term)
            for _ in range(4):
                m = {v: Fraction(rng.randint(-6, 6), 1 if v.sort == INT else rng.choice([1, 2, 3]))
                     for v in pool}
                assert got.holds(m) == want.holds(m) == _REL_HOLDS[rel](term.evaluate(m)), \
                    (trial, term, rel, m)
        assert 50 < folded < 1000

    def test_operations_keep_ints_and_proper_fractions(self):
        rng = random.Random(43)
        pool = [Var("a", INT), Var("b", INT), Var("c", REAL), Var("d", REAL)]
        for _ in range(300):
            s, t = _random_rational_term(rng, pool), _random_rational_term(rng, pool)
            k = rng.choice([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3)])
            sigma = {v: _random_rational_term(rng, pool[2:]) for v in pool[2:]
                     if rng.random() < 0.5}
            for out in (LinearTerm.make(dict(s.coeffs), s.constant), s.scale(k), s * k,
                        s + t, s - t, -s, s + k, s - k,
                        weighted_sum([(s, k), (t, Fraction(3, 2)), (s, 2)]),
                        s.substituted(sigma), t.substituted({})):
                _assert_representation(out)
        # sums of proper fractions that cancel come back as ints
        half = LinearTerm.of(pool[2]).scale(Fraction(1, 2))
        whole = half + half + Fraction(1, 2) + Fraction(1, 2)
        assert whole.coeffs == ((pool[2], 1),) and type(whole.coeffs[0][1]) is int
        assert type(whole.constant) is int

    def test_parsed_numbers_are_ints_where_integral(self):
        for text, value in (("3", 3), ("-4", -4), ("6/3", 2), ("2.0", 2), ("0", 0)):
            got = parse_with(text, lambda forms: read_number(forms, 0))
            assert type(got) is int and got == value, text
        for text, value in (("1/2", Fraction(1, 2)), ("-0.25", Fraction(-1, 4))):
            got = parse_with(text, lambda forms: read_number(forms, 0))
            assert type(got) is Fraction and got == value, text

    def test_parsed_constraints_keep_ints_and_proper_fractions(self):
        variables = {"x": X, "y": Y, "r": Var("r", REAL)}
        texts = ["(<= (* 2/4 x) 3/1)", "(= (+ (* 1.5 r) (* 1/2 r) y) 6.0)",
                 "(< (- (* 3 x) (* 2/3 r) 7) 1/3)", "(and (<= 0 x) (< (* 4/2 y) 10))"]
        seen = 0
        for text in texts:
            c = parse_with(text, lambda forms: read_constraint(forms, 0, variables))
            for cube in to_dnf(c):
                for a in cube.atoms:
                    _assert_representation(a.term)
                    seen += 1
        assert seen >= 5


def _ref_cand(*args):
    flat = []
    for a in args:
        if a is TRUE:
            continue
        if a is FALSE:
            return FALSE
        if isinstance(a, CAnd):
            flat.extend(x for x in a.args if x not in flat)
        elif a not in flat:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return CAnd(tuple(flat))


def _ref_cor(*args):
    flat = []
    for a in args:
        if a is FALSE:
            continue
        if a is TRUE:
            return TRUE
        if isinstance(a, COr):
            flat.extend(x for x in a.args if x not in flat)
        elif a not in flat:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return COr(tuple(flat))


def _ref_raw_cubes(c):
    """to_dnf's cubes before deduplication, as atom lists."""
    def go(c):
        if c is TRUE:
            return [[]]
        if c is FALSE:
            return []
        if isinstance(c, CAtom):
            return _atom_cubes(c.atom)
        if isinstance(c, COr):
            return [cube for a in c.args for cube in go(a)]
        acc = [[]]
        for a in c.args:
            acc = [x + y for x in acc for y in go(a)]
        return acc

    return go(_ref_nnf(c, False))


def _ref_dedup(raw):
    seen = []
    for a in raw:
        if a not in seen:
            seen.append(a)
    return seen


class TestHashDedup:
    def test_cand_cor_match_list_dedup_in_order(self):
        rng = random.Random(47)
        atoms = [le(TX, 0), lt(TY, 1), eq(TX - TY), ne(TX, 2), le(TX + TY, 3)]
        pool = atoms + [TRUE, FALSE]
        for _ in range(200):
            a, b = rng.sample(atoms, 2)
            pool.append(rng.choice([cand, cor, _ref_cand, _ref_cor])(a, b, rng.choice(atoms)))
        repeated = 0
        for _ in range(2000):
            args = [rng.choice(pool[:7] if rng.random() < 0.5 else pool)
                    for _ in range(rng.randint(0, 6))]
            repeated += any(a == b for i, a in enumerate(args) for b in args[i + 1:]
                            if a is not TRUE and a is not FALSE)
            for new, ref in ((cand, _ref_cand), (cor, _ref_cor)):
                got, want = new(*args), ref(*args)
                assert got == want and repr(got) == repr(want), args
        assert repeated > 200

    def test_deep_nesting_hashes_without_recursion(self):
        # and/or nested 600 deep, and its negation: each level's hash is
        # stored at construction, with the value the generated __hash__ gives
        c = le(TX, 0)
        for k in range(1, 301):
            c = CAnd((le(TX, k), COr((ge(TX, -k), c))))
        n = cnot(c)
        assert hash(c) == hash((c.args,)) and hash(n) == hash((n.args,))
        assert cand(n, c, n) == CAnd((n,) + c.args)
        assert cor(le(TY, 0), n) == COr((le(TY, 0),) + n.args)

    def test_to_dnf_cubes_match_list_dedup_in_order(self):
        rng = random.Random(53)
        pool = [X, Y]
        repeated = 0
        for _ in range(300):
            c = random_constraint(rng, pool, depth=3)
            c = cand(c, cor(c, random_constraint(rng, pool)))
            raw = _ref_raw_cubes(c)
            want = [tuple(_ref_dedup(r)) for r in raw]
            assert [cube.atoms for cube in to_dnf(c)] == want, c
            repeated += any(len(w) < len(r) for w, r in zip(want, raw))
        assert repeated > 20
