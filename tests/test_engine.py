"""Satisfiability lifting, entailment, and binary interpolation."""

import random
from fractions import Fraction

import pytest

from generators import random_constraint, random_unsat_pair
from hornitp import engine
from hornitp.engine import (
    DEFAULT_BRANCH_DEPTH,
    _branch_cuts,
    _fractional_int,
    binary_interpolant,
    check_interpolant,
    entails,
    label_tree,
    sat,
    sat_cube,
)
from hornitp.errors import CubeLimitExceeded, NotUnsat, UnknownResult
from hornitp.lp import Sat, Unsat, decide_rational
from hornitp.terms import (
    FALSE,
    INT,
    LE,
    LT,
    REAL,
    TRUE,
    Cube,
    LinearTerm,
    Var,
    atom,
    cand,
    cor,
    eq,
    evaluate,
    free_vars,
    ge,
    le,
    lt,
    ne,
    to_dnf,
    weighted_sum,
)

X = Var("x", INT)
N = Var("n", INT)
REC = Var("rec", INT)
TX = LinearTerm.of(X)
TN = LinearTerm.of(N)
TREC = LinearTerm.of(REC)


class TestSat:
    def test_false_unsat(self):
        assert isinstance(sat(FALSE), Unsat)

    def test_true_sat(self):
        assert isinstance(sat(TRUE), Sat)

    def test_self_disequality_unsat(self):
        assert isinstance(sat(cand(ge(TX, 0), ne(TX - TX + 1, 1))), Unsat)

    def test_model_completion_covers_free_vars(self):
        res = sat(cor(ge(TX, 0), le(TN, 5)))
        assert isinstance(res, Sat)
        assert {X, N} <= set(res.model)

    def test_sat_cube_model_is_integral_for_int_vars(self):
        cube = Cube((le(TX.scale(2), 5).atom, le(-TX, 0).atom))
        res = sat_cube(cube)
        assert isinstance(res, Sat)
        assert res.model[X].denominator == 1

    def test_sat_cube_model_names_exactly_the_cube_vars(self):
        # decide_rational values every variable of the atoms it is given,
        # branching cuts included, so sat_cube's model needs no completion
        rng = random.Random(5)
        pool = [X, N, Var("r", REAL)]
        satisfiable = branched = 0
        for _ in range(1500):
            for cube in to_dnf(random_constraint(rng, pool)):
                try:
                    res = sat_cube(cube)
                except UnknownResult:  # an unbounded Int branch; no model
                    continue
                if isinstance(res, Sat):
                    satisfiable += 1
                    assert res.model.keys() == cube.vars
                    branched += _fractional_int(decide_rational(cube.atoms).model) is not None
        assert satisfiable >= 1000 and branched >= 100

    def test_sat_cube_finds_the_small_integer_model(self):
        # n = -1, x = 0, r = 1 satisfies the cube.  The first LP gives
        # x = -1/4: the cut x <= -1 leads away from every model without
        # end, so the search must try x >= 0, the side of the rounded value
        r = Var("r", REAL)
        tr = LinearTerm.of(r)
        cube = Cube((le(TN + 1, 0).atom, lt(-2 * tr - 3 * TX, 0).atom,
                     eq(2 * TN + 2 * tr - TX, 0).atom))
        assert evaluate(cand(*[atom(a.term, a.rel) for a in cube.atoms]),
                        {N: Fraction(-1), X: Fraction(0), r: Fraction(1)})
        res = sat_cube(cube)
        assert isinstance(res, Sat) and all(a.holds(res.model) for a in cube.atoms)

    def test_integer_only_unsat_has_no_certificate(self):
        # 2x = 1 is rationally satisfiable but has no integer solution;
        # canonicalisation already detects the non-integral constant
        assert isinstance(sat(eq(TX.scale(2), 1)), Unsat)

    def test_branching_establishes_integer_unsat(self):
        # 0 <= 3x <= 2 and x != 0 has rational but no integer solutions
        c = cand(le(TX.scale(3), 2), ge(TX.scale(3), 0), ne(TX, 0))
        assert isinstance(sat(c), Unsat)

    def test_unknown_on_unbounded_parity(self):
        z, w = Var("z", INT), Var("w", INT)
        c = cand(eq(TX.scale(2) - LinearTerm.of(z)),
                 eq(LinearTerm.of(z) - LinearTerm.of(w).scale(2) - 1))
        with pytest.raises(UnknownResult):
            sat(c)


class TestEntails:
    def test_bound_weakening(self):
        assert entails([ge(TX, 1)], ge(TX, 0))

    def test_free_variable_not_entailed(self):
        assert not entails([], ge(TX, 0))

    def test_disjunctive_premise(self):
        premise = cor(le(TN, -1), cand(eq(TREC, 1), eq(TN, 0)))
        edge = cand(eq(TN - LinearTerm.of(Var("n9", INT))),
                    eq(TREC - LinearTerm.of(Var("rec9", INT))))
        goal = cor(le(LinearTerm.of(Var("n9", INT)), -1),
                   cand(eq(LinearTerm.of(Var("rec9", INT)), 1),
                        eq(LinearTerm.of(Var("n9", INT)), 0)))
        assert entails([premise, edge], goal)


class TestBinaryInterpolant:
    def test_simple_bound_pair(self):
        a, b = ge(TX, 0), le(TX, -1)
        itp = binary_interpolant(a, b)
        assert check_interpolant(a, b, itp.formula) == []
        assert free_vars(itp.formula) <= {X}

    def test_false_left_side(self):
        assert binary_interpolant(FALSE, TRUE).formula is FALSE

    def test_true_right_side_unsat_left(self):
        assert binary_interpolant(cand(ge(TX, 1), le(TX, 0)), TRUE).formula is FALSE

    def test_satisfiable_pair_raises_with_model(self):
        with pytest.raises(NotUnsat) as exc:
            binary_interpolant(ge(TX, 0), ge(TX, 1))
        model = exc.value.model
        assert evaluate(cand(ge(TX, 0), ge(TX, 1)), model)

    def test_variable_condition_excludes_local_vars(self):
        y = Var("y", INT)
        a = cand(le(TX - LinearTerm.of(y), 0), le(LinearTerm.of(y), 5))
        b = ge(TX, 7)
        itp = binary_interpolant(a, b)
        assert free_vars(itp.formula) <= {X}
        assert check_interpolant(a, b, itp.formula) == []

    def test_integer_cut_interpolant(self):
        # A forces x even in [0,2], B forces x odd in [0,2]; only integer
        # branching separates them
        y, z = Var("y", INT), Var("z", INT)
        a = cand(eq(TX - LinearTerm.of(y).scale(2)), ge(TX, 0), le(TX, 2))
        b = cand(eq(TX - LinearTerm.of(z).scale(2) - 1), ge(TX, 0), le(TX, 2))
        itp = binary_interpolant(a, b)
        assert check_interpolant(a, b, itp.formula) == []

    def test_contract_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(50):
            a, b = random_unsat_pair(rng, sat)
            try:
                itp = binary_interpolant(a, b)
            except UnknownResult:
                continue
            assert check_interpolant(a, b, itp.formula) == []

    def test_check_interpolant_reports_failures(self):
        a, b = ge(TX, 0), le(TX, -1)
        y = Var("y", INT)
        assert "variable-condition" in check_interpolant(a, b, ge(LinearTerm.of(y), 0))
        assert "left-entailment" in check_interpolant(a, b, ge(TX, 1))
        assert "right-contradiction" in check_interpolant(a, b, TRUE)


# ---------------------------------------------------------------------------
# Reference: binary interpolation one cube pair at a time, each pair with its
# own branch and bound; label_tree on the two-node tree gives the same formulas
# ---------------------------------------------------------------------------


def _reference_cert_interpolant(cert, n_a):
    a_side = [(cert.atoms[i], lam) for i, lam in cert.multipliers if cert.origins[i] < n_a]
    s = weighted_sum((a.term, lam) for a, lam in a_side)
    strict = any(a.rel == LT for a, _ in a_side)
    return atom(s, LT if strict else LE)


def _reference_interpolate_cubes(a_atoms, b_atoms, depth, cuts):
    res = decide_rational(a_atoms + b_atoms)
    if isinstance(res, Unsat):
        return _reference_cert_interpolant(res.certificate, len(a_atoms))
    frac = _fractional_int(res.model)
    if frac is None:
        raise NotUnsat(res.model)
    if depth <= 0:
        raise UnknownResult("integer branching depth exhausted during interpolation")
    v, val = frac
    left, right = _branch_cuts(v, val)
    a_vars = frozenset().union(*(a.vars for a in a_atoms)) if a_atoms else frozenset()
    cuts.append("A" if v in a_vars else "B")
    if v in a_vars:
        return cor(_reference_interpolate_cubes(a_atoms + [left], b_atoms, depth - 1, cuts),
                   _reference_interpolate_cubes(a_atoms + [right], b_atoms, depth - 1, cuts))
    return cand(_reference_interpolate_cubes(a_atoms, b_atoms + [left], depth - 1, cuts),
                _reference_interpolate_cubes(a_atoms, b_atoms + [right], depth - 1, cuts))


def _reference_binary_interpolant(A, B, cuts):
    cubes_a, cubes_b = to_dnf(A), to_dnf(B)
    if not cubes_a:
        return FALSE
    if not cubes_b:
        return TRUE
    return cor(*(cand(*(_reference_interpolate_cubes(list(ca.atoms), list(cb.atoms),
                                                     DEFAULT_BRANCH_DEPTH, cuts)
                        for cb in cubes_b))
                 for ca in cubes_a))


def _bounded_parity_pairs():
    """u even in a short range against u odd, and the reverse, each way
    round: unsatisfiable only over the integers."""
    u, v, w = (LinearTerm.of(Var(n, INT)) for n in ("u", "v", "w"))
    even, odd = eq(u, v.scale(2)), eq(u, w.scale(2) + 1)
    for lo in range(-4, 5):
        for k in (1, 2, 3):
            bounded = cand(ge(u, lo), le(u, lo + 2 * k))
            for a, b in ((even, odd), (odd, even)):
                yield cand(a, bounded), b
                yield b, cand(a, bounded)
                yield cor(cand(a, bounded), ge(u, lo + 2 * k + 5)), cand(b, le(u, lo + 2 * k))


class TestLabelTree:
    def test_binary_matches_cube_pairs_on_random_pairs(self, unsat_pairs):
        # criterion 6's corpus
        cuts = []
        for a, b in unsat_pairs:
            assert binary_interpolant(a, b).formula == _reference_binary_interpolant(a, b, cuts)

    def test_binary_matches_cube_pairs_on_parity_pairs(self):
        cuts = []
        for a, b in _bounded_parity_pairs():
            assert binary_interpolant(a, b).formula == _reference_binary_interpolant(a, b, cuts)
        assert {"A", "B"} <= set(cuts)

    def test_nodes_without_cubes_refute_alone(self):
        cubes = to_dnf(ge(TX, 0))
        assert label_tree([[], cubes], ([], [0])) == [FALSE, FALSE]
        assert label_tree([cubes, []], ([], [0])) == [TRUE, FALSE]

    def test_binary_cube_product_over_limit_makes_no_lp(self, monkeypatch):
        # 128 cubes a side, each within the budget of 200: their 16,384
        # choices are refused before the first LP
        xs = [LinearTerm.of(Var(f"x{i}", INT)) for i in range(7)]
        a = cand(*[cor(le(x, -1), ge(x, 5)) for x in xs])
        b = cand(*[cor(cand(ge(x, 0), le(x, 1)), cand(ge(x, 3), le(x, 4))) for x in xs])
        lps, decide = [], engine.decide_rational
        monkeypatch.setattr(engine, "decide_rational",
                            lambda atoms: lps.append(atoms) or decide(atoms))
        with pytest.raises(CubeLimitExceeded,
                           match=r"^cube choices across a tree's node labels .*\(--cube-limit\)$"):
            binary_interpolant(a, b, cube_limit=200)
        assert lps == []

    def test_case_split_labels_the_subtrees(self, monkeypatch):
        # leaf 0 says x = 2y, leaf 1 bounds x to [0, 2], root 2 says
        # x = 2z + 1: the first fractional value is cut at the first node
        # that mentions it, and every certificate labels all three nodes
        y, z = LinearTerm.of(Var("y", INT)), LinearTerm.of(Var("z", INT))
        labels = [eq(TX, y.scale(2)), cand(ge(TX, 0), le(TX, 2)), eq(TX, z.scale(2) + 1)]
        certificates, read = [], engine._subtree_labels
        monkeypatch.setattr(engine, "_subtree_labels",
                            lambda *args: certificates.append(args) or read(*args))
        itps = label_tree([to_dnf(c) for c in labels], ([], [], [0, 1]), check=True)
        assert len(certificates) > 1 and itps[2] is FALSE
        assert free_vars(itps[0]) <= {X} and free_vars(itps[1]) <= {X}
        assert entails([labels[0]], itps[0]) and entails([labels[1]], itps[1])
        assert isinstance(sat(cand(itps[0], itps[1], labels[2])), Unsat)
