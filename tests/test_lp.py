"""Rational decision core: the simplex, its tightest-atom merge and Farkas
certificates, checked against a rational Fourier-Motzkin reference and a
Fraction simplex reference kept in this file."""

import random
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

import pytest
from generators import random_term
from hornitp import lp
from hornitp.errors import SolverInternalError
from hornitp.lp import (
    FarkasCertificate,
    Sat,
    Unsat,
    _simplex,
    decide_rational,
    split_equalities,
)
from hornitp.terms import (
    EQ,
    INT,
    LE,
    LT,
    REAL,
    LinearAtom,
    LinearTerm,
    Var,
    eq,
    ge,
    le,
    lt,
    ne,
)

X = Var("x", INT)
Y = Var("y", INT)
N = Var("n", INT)
REC = Var("rec", INT)


def _atoms(*constraints):
    return [c.atom for c in constraints]


class TestDecideRational:
    def test_contradictory_bounds(self):
        res = decide_rational(_atoms(le(LinearTerm.of(X), 0),
                                     le(-LinearTerm.of(X), -1)))
        assert isinstance(res, Unsat)
        cert = res.certificate
        assert cert.is_valid()
        total = cert.weighted_sum()
        assert not total.coeffs and total.constant > 0

    def test_empty_cube_sat(self):
        res = decide_rational([])
        assert isinstance(res, Sat) and res.model == {}

    def test_branch_base_case(self):
        # n <= 0, 0 <= n, rec = 1
        atoms = _atoms(le(LinearTerm.of(N), 0), le(-LinearTerm.of(N), 0),
                       eq(LinearTerm.of(REC) - 1))
        res = decide_rational(atoms)
        assert isinstance(res, Sat)
        assert res.model[N] == 0 and res.model[REC] == 1

    def test_strict_cycle_unsat(self):
        # strict atoms survive only on Real variables (Int ones are tightened)
        a, b = Var("a", "Real"), Var("b", "Real")
        res = decide_rational(_atoms(lt(LinearTerm.of(a) - LinearTerm.of(b), 0),
                                     lt(LinearTerm.of(b) - LinearTerm.of(a), 0)))
        assert isinstance(res, Unsat)
        assert res.certificate.strict and res.certificate.is_valid()

    def test_model_satisfies_all_atoms(self):
        rng = random.Random(3)
        pool = [Var(f"z{i}", INT) for i in range(3)]
        for _ in range(200):
            atoms = []
            for _ in range(rng.randint(1, 5)):
                c = rng.choice([le, ge, lt, eq])(random_term(rng, pool), 0)
                if hasattr(c, "atom"):
                    atoms.append(c.atom)
            res = decide_rational(atoms)
            if isinstance(res, Sat):
                assert all(a.holds(res.model) for a in atoms)
            else:
                assert res.certificate.is_valid()


class TestSplitEqualities:
    def test_equality_split_into_halves(self):
        out = split_equalities(_atoms(eq(LinearTerm.of(X) - 1)))
        assert len(out) == 2
        assert all(a.rel == LE for a, _ in out)
        assert {origin for _, origin in out} == {0}


class TestSelfChecks:
    def test_invalid_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(FarkasCertificate, "is_valid", lambda self: False)
        with pytest.raises(SolverInternalError):
            decide_rational(_atoms(le(LinearTerm.of(X), 0), le(-LinearTerm.of(X), -1)))

    def test_invalid_certificate_raises_on_the_tableau_path(self, monkeypatch):
        # x <= y, y <= 0, x >= 1: no two kept forms are opposite, so the
        # refutation is the simplex's and its own gate must raise
        calls = _count_simplex(monkeypatch)
        monkeypatch.setattr(FarkasCertificate, "is_valid", lambda self: False)
        t = LinearTerm.of
        with pytest.raises(SolverInternalError, match="certificate is not a contradiction"):
            decide_rational(_atoms(le(t(X) - t(Y), 0), le(t(Y), 0), le(-t(X), -1)))
        assert calls == [3]

    def test_bad_model_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "_simplex", lambda kept: Sat({X: Fraction(2)}))
        with pytest.raises(SolverInternalError):
            decide_rational(_atoms(le(LinearTerm.of(X), 3), le(LinearTerm.of(X), 1)))


class TestTightestAtom:
    def test_stacked_cuts_certificate_uses_tightest(self):
        # branching stacks cuts x <= 5, x <= 3, x <= 1 on one form; with
        # x >= 2 and y = x the certificate needs only the tightest cut
        t = LinearTerm.of
        atoms = _atoms(le(t(X), 5), eq(t(Y) - t(X)), le(t(X), 3), ge(t(X), 2),
                       le(t(X), 1), le(t(X) + t(Y), 9))
        res = decide_rational(atoms)
        assert isinstance(res, Unsat) and res.certificate.is_valid()
        cert = res.certificate
        used = {cert.origins[i] for i, lam in cert.multipliers if lam}
        assert 4 in used and not used & {0, 2}
        assert len(cert.atoms) == 5  # y = x splits into two forms, x has one

    def test_stacked_cuts_model_holds_on_every_atom(self):
        t = LinearTerm.of
        atoms = _atoms(le(t(X), 5), ge(t(X), 1), le(t(X), 4), ge(t(X), 0),
                       le(t(X), 3), le(t(X) + t(Y), 7), ge(t(X) + t(Y), 7))
        res = decide_rational(atoms)
        assert isinstance(res, Sat)
        assert all(a.holds(res.model) for a in atoms)

    def test_strict_atom_wins_a_tie(self):
        a = Var("a", REAL)
        atoms = [LinearAtom(LinearTerm.make({a: 1}, -1), LE),
                 LinearAtom(LinearTerm.make({a: 1}, -1), LT),
                 LinearAtom(LinearTerm.make({a: -1}, 1), LE)]
        res = decide_rational(atoms)
        assert isinstance(res, Unsat) and res.certificate.strict
        assert {res.certificate.origins[i] for i, _ in res.certificate.multipliers} == {1, 2}


def _count_simplex(monkeypatch) -> list:
    """Patch lp._simplex to record the number of atoms of each call."""
    calls = []
    simplex = lp._simplex

    def counting(split):
        calls.append(len(split))
        return simplex(split)

    monkeypatch.setattr(lp, "_simplex", counting)
    return calls


@pytest.fixture
def no_tableau(monkeypatch):
    def refuse(split):
        raise AssertionError("a crossing bound pair reached the simplex")

    monkeypatch.setattr(lp, "_simplex", refuse)


def _real_atom(coeffs, const, rel=LE):
    return LinearAtom(LinearTerm.make(coeffs, const), rel)


A, B = Var("a", REAL), Var("b", REAL)


class TestBoundPair:
    """Kept atoms on a form and on its exact negation whose bounds cross are
    refuted by their sum, before any tableau is built."""

    def _assert_pair(self, res, origins, strict=False):
        assert isinstance(res, Unsat)
        cert = res.certificate
        assert cert.is_valid() and cert.strict == strict
        assert [lam for _, lam in cert.multipliers] == [1, 1]
        assert sorted(cert.origins[i] for i, _ in cert.multipliers) == sorted(origins)
        return cert

    def test_crossing_le_bounds(self, no_tableau):
        # a - b <= 2 and b - a <= -5, so a - b >= 5
        atoms = [_real_atom({A: 1, B: -1}, -2), _real_atom({A: -1, B: 1}, 5)]
        cert = self._assert_pair(decide_rational(atoms), [0, 1])
        assert cert.atoms == tuple(atoms) and cert.origins == (0, 1)
        assert cert.multipliers == ((0, 1), (1, 1))
        assert cert.weighted_sum().constant == 3

    def test_touching_bounds_are_sat(self):
        # a - b <= 3 and a - b >= 3 meet at a - b = 3
        atoms = [_real_atom({A: 1, B: -1}, -3), _real_atom({A: -1, B: 1}, 3)]
        res = decide_rational(atoms)
        assert isinstance(res, Sat)
        assert all(a.holds(res.model) for a in atoms)
        assert res.model[A] - res.model[B] == 3

    @pytest.mark.parametrize("strict_first", [True, False])
    def test_touching_bounds_with_a_strict_atom(self, no_tableau, strict_first):
        atoms = [_real_atom({A: 1, B: -1}, -3, LT if strict_first else LE),
                 _real_atom({A: -1, B: 1}, 3, LE if strict_first else LT)]
        cert = self._assert_pair(decide_rational(atoms), [0, 1], strict=True)
        assert cert.weighted_sum().constant == 0

    def test_fractional_constants(self, no_tableau):
        # a/2 + 2b/3 <= 1/3 and a/2 + 2b/3 >= 1/2
        coeffs = {A: Fraction(1, 2), B: Fraction(2, 3)}
        neg = {v: -c for v, c in coeffs.items()}
        atoms = [_real_atom(coeffs, Fraction(-1, 3)), _real_atom(neg, Fraction(1, 2))]
        cert = self._assert_pair(decide_rational(atoms), [0, 1])
        assert cert.weighted_sum().constant == Fraction(1, 6)

    def test_fractional_touching_bounds_are_sat(self):
        coeffs = {A: Fraction(1, 2), B: Fraction(2, 3)}
        neg = {v: -c for v, c in coeffs.items()}
        atoms = [_real_atom(coeffs, Fraction(-1, 3)), _real_atom(neg, Fraction(1, 3))]
        res = decide_rational(atoms)
        assert isinstance(res, Sat) and all(a.holds(res.model) for a in atoms)

    def test_equality_halves_cross(self, no_tableau):
        # x = 1 and x = 2: the kept halves are x - 1 <= 0 and -x + 2 <= 0
        atoms = _atoms(eq(LinearTerm.of(X), 1), eq(LinearTerm.of(X), 2))
        cert = self._assert_pair(decide_rational(atoms), [0, 1])
        assert len(cert.atoms) == 2
        assert {(a.term.constant, o) for a, o in zip(cert.atoms, cert.origins)} == \
            {(-1, 0), (2, 1)}

    def test_crossing_after_the_tightest_atom_merge(self, no_tableau):
        # x <= 5 and x >= 3 do not cross; the later x <= 1 is kept and does
        t = LinearTerm.of
        atoms = _atoms(le(t(X), 5), ge(t(X), 3), le(t(X) + t(Y), 4), le(t(X), 1))
        cert = self._assert_pair(decide_rational(atoms), [1, 3])
        assert len(cert.atoms) == 3

    def test_only_crossing_inputs_skip_the_tableau(self, monkeypatch):
        calls = _count_simplex(monkeypatch)
        t = LinearTerm.of
        assert isinstance(decide_rational(_atoms(le(t(X), 0), le(-t(X), -1))), Unsat)
        assert calls == []
        res = decide_rational(_atoms(le(t(X) - t(Y), 0), le(t(Y), 0), le(-t(X), -1)))
        assert isinstance(res, Unsat) and res.certificate.is_valid()
        assert len(res.certificate.multipliers) == 3
        assert calls == [3]
        assert isinstance(decide_rational(_atoms(le(t(X), 1), le(-t(X), 0))), Sat)
        assert calls == [3, 2]

    def test_agrees_with_simplex_and_fm_on_opposite_forms(self, monkeypatch):
        # every atom is one of a few forms or its negation, so bound pairs
        # cross, touch and miss in one corpus; _simplex is the unpatched one
        calls = _count_simplex(monkeypatch)
        rng = random.Random(83)
        paths = {"pair": 0, "tableau": 0, "sat": 0}
        for trial in range(600):
            pool = [Var(f"o{i}", rng.choice([INT, REAL])) for i in range(3)]
            forms = [{v: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                      for v in rng.sample(pool, rng.randint(1, 3))}
                     for _ in range(rng.randint(2, 3))]
            # the sum of two forms makes three-atom refutations that no
            # bound pair finds
            total = dict(forms[0])
            for v, c in forms[1].items():
                total[v] = total.get(v, 0) + c
            forms.append({v: c for v, c in total.items() if c})
            atoms = []
            for _ in range(rng.randint(3, 7)):
                coeffs = rng.choice(forms)
                if rng.random() < 0.3:
                    coeffs = {v: -c for v, c in coeffs.items()}
                atoms.append(_real_atom(coeffs, Fraction(rng.randint(-4, 4), rng.choice([1, 2])),
                                        rng.choice([LE, LE, LT, EQ])))
            split = split_equalities(atoms)
            before = len(calls)
            res = decide_rational(atoms)
            assert type(res) is type(_simplex(split)) is type(_reference_fm(split)), \
                (trial, atoms)
            if isinstance(res, Sat):
                paths["sat"] += 1
                model = dict(res.model)
                for v in pool:
                    model.setdefault(v, Fraction(0))
                assert all(a.holds(model) for a in atoms), (trial, atoms)
            else:
                assert res.certificate.is_valid(), (trial, atoms)
                paths["tableau" if len(calls) > before else "pair"] += 1
        assert min(paths.values()) > 30, paths


def _unsubstituted_decide(atoms):
    """decide_rational without the substitution, as a reference: the
    tightest-atom merge, the bound-pair check and the simplex on every kept
    atom."""
    tightest: dict = {}  # term.coeffs -> (tightness, atom, origin)
    for a, o in split_equalities(atoms):
        key = (a.term.constant, a.rel == LT)
        kept = tightest.get(a.term.coeffs)
        if kept is None or key > kept[0]:
            tightest[a.term.coeffs] = (key, a, o)
    split = [(a, o) for _, a, o in tightest.values()]
    for coeffs, ((c, strict), _, _) in tightest.items():
        if coeffs and coeffs[0][1] < 0:
            negated = tuple([(v, -k) for v, k in coeffs])
            opposite = tightest.get(negated)
            if opposite is not None:
                total = c + opposite[0][0]
                if total > 0 or (total == 0 and (strict or opposite[0][1])):
                    return Unsat(None)  # the bound pair's certificate
    return _simplex(split)


def _equality_cube(rng):
    """Atoms over 2-6 Int, Real or mixed variables: equalities with and
    without a unit coefficient, one implied by two others (0 = 0 or, shifted,
    a nonzero constant after substitution), inequalities, touching bound
    pairs (an equality as two atoms, or with a strict atom a crossing) and
    atoms with Fraction coefficients or constants."""
    sorts = rng.choice([[INT], [REAL], [INT, REAL]])
    pool = [Var(f"q{i}", rng.choice(sorts)) for i in range(rng.randint(2, 6))]
    eqs = []
    for _ in range(rng.randint(1, 4)):
        vs = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        eqs.append(LinearTerm.make({v: rng.choice([1, -1, 1, -1, 2, -3]) for v in vs},
                                   rng.randint(-3, 3)))
    if len(eqs) >= 2 and rng.random() < 0.5:
        eqs.append(eqs[0] + eqs[1] + rng.choice([0, 0, -1, 1]))
    cs = [eq(e, 0) for e in eqs]
    fractional = []
    for _ in range(rng.randint(0, 4)):
        term = random_term(rng, pool, max_vars=3)
        r = rng.random()
        if r < 0.2:  # touching bounds, one of them maybe strict
            k = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            cs += [le(term, k), rng.choice([ge, ge, lt])(term, k)]
        elif r < 0.35:
            coeffs = {v: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
                      for v in rng.sample(pool, rng.randint(1, min(2, len(pool))))}
            fractional.append(_real_atom(coeffs, Fraction(rng.randint(-4, 4), rng.choice([1, 3])),
                                         rng.choice([LE, LT, EQ])))
        else:
            cs.append(rng.choice([le, le, lt, ge])(term, 0))
    return [c.atom for c in cs if hasattr(c, "atom")] + fractional


def _assert_answer(atoms, res):
    """A certificate holds only split input atoms with their origins and is
    valid; a model values exactly the atoms' variables and satisfies them."""
    if isinstance(res, Unsat):
        cert = res.certificate
        split = set(split_equalities(atoms))
        assert all(pair in split for pair in zip(cert.atoms, cert.origins)), atoms
        assert cert.is_valid() and all(lam > 0 for _, lam in cert.multipliers), atoms
    else:
        assert res.model.keys() == set().union(*[a.vars for a in atoms]), atoms
        assert all(a.holds(res.model) for a in atoms), atoms


def _other_halves(atoms, cert) -> int:
    """How many multipliers sit on the -t <= 0 half of an input t = 0."""
    return sum(1 for k, _ in cert.multipliers
               if atoms[cert.origins[k]].rel == EQ
               and cert.atoms[k].term == -atoms[cert.origins[k]].term)


def _counting(monkeypatch, name) -> list:
    """Patch lp.<name> to record each call's result."""
    calls = []
    f = getattr(lp, name)

    def counting(*args):
        calls.append(f(*args))
        return calls[-1]

    monkeypatch.setattr(lp, name, counting)
    return calls


def _link_chain(n, order, last):
    """x0 >= 0, the links x(i+1) = x(i) + 1 in ``order`` and x(n) < last."""
    xs = [LinearTerm.of(Var(f"x{i}", INT)) for i in range(n + 1)]
    links = [eq(xs[i + 1], xs[i] + 1).atom for i in range(n)]
    if order == "reversed":
        links.reverse()
    elif order == "shuffled":
        random.Random(n).shuffle(links)
    return [ge(xs[0], 0).atom] + links + [lt(xs[n], last).atom]


class TestEqualityElimination:
    """decide_rational substitutes unit-coefficient equalities away before the
    tableau and maps each refutation back onto the kept split atoms."""

    def test_agrees_with_the_unsubstituted_lp_on_equality_cubes(self, monkeypatch):
        eliminations = _counting(monkeypatch, "_eliminate")
        tableaus = _count_simplex(monkeypatch)
        rng = random.Random(97)
        seen = {"Sat": 0, "Unsat": 0, "eliminated": 0, "no tableau": 0, "other half": 0}
        for trial in range(1500):
            atoms = _equality_cube(rng)
            before, ran = len(eliminations), len(tableaus)
            res = decide_rational(atoms)
            assert type(res) is type(_unsubstituted_decide(atoms)), (trial, atoms)
            _assert_answer(atoms, res)
            seen[type(res).__name__] += 1
            if len(eliminations) > before:
                seen["eliminated"] += 1
                if isinstance(res, Unsat):
                    seen["no tableau"] += len(tableaus) == ran
                    seen["other half"] += _other_halves(atoms, res.certificate) > 0
        assert min(seen.values()) > 100, seen

    def test_a_negative_multiplier_lands_on_the_other_half(self, no_tableau):
        # x = y with x <= 0 and y >= 1: the refutation adds y - x <= 0, the
        # second half of x - y = 0; with x >= 1 and y <= 0 it adds the first
        x, y = LinearTerm.of(X), LinearTerm.of(Y)
        for bounds, half in ((le(x, 0), ge(y, 1)), 1), ((ge(x, 1), le(y, 0)), 0):
            atoms = _atoms(eq(x, y), *bounds)
            res = decide_rational(atoms)
            _assert_answer(atoms, res)
            cert = res.certificate
            used = {cert.atoms[k]: lam for k, lam in cert.multipliers}
            halves = [a for a, _ in split_equalities(atoms[:1])]
            assert used.get(halves[half]) == 1 and halves[1 - half] not in used, cert

    def test_a_contradiction_after_substitution_needs_no_tableau(self, no_tableau):
        # x = y, y = z and x = z + 1 reduce to 0 = 1
        x, y, z = (LinearTerm.of(Var(n, REAL)) for n in "xyz")
        atoms = _atoms(eq(x, y), eq(y, z), eq(x, z + 1))
        res = decide_rational(atoms)
        _assert_answer(atoms, res)
        assert {cert_o for cert_o in res.certificate.origins} == {0, 1, 2}
        assert len(res.certificate.multipliers) == 3

    def test_a_redundant_equality_is_dropped(self, monkeypatch):
        # x = z reduces to 0 = 0; the tableau gets x >= 1 and 2x <= 2 alone
        calls = _count_simplex(monkeypatch)
        x, y, z = (LinearTerm.of(Var(n, REAL)) for n in "xyz")
        atoms = _atoms(eq(x, y), eq(y, z), eq(x, z), ge(x, 1), le(y + z, 2))
        res = decide_rational(atoms)
        _assert_answer(atoms, res)
        assert set(res.model.values()) == {1} and calls == [2]

    @pytest.mark.parametrize("unit_first", [True, False])
    def test_an_equality_without_a_unit_coefficient_leaves_the_lp_whole(self, monkeypatch,
                                                                        unit_first):
        # c = a + b turns 2c = 4a + 5b + 1 into 2a + 3b + 1 = 0, which has no
        # unit coefficient, so the tableau gets all six kept atoms as they are
        calls = _count_simplex(monkeypatch)
        a, b, c = (LinearTerm.of(Var(n, REAL)) for n in "abc")
        eqs = [eq(c, a + b), eq(2 * c, 4 * a + 5 * b + 1)]
        atoms = _atoms(*(eqs if unit_first else eqs[::-1]), ge(a, 5), le(c, 20))
        res = decide_rational(atoms)
        _assert_answer(atoms, res)
        assert isinstance(res, Sat) and calls == [6]
        atoms.append(ge(b, 0).atom)  # now 2a + 3b = -1 has no solution
        res = decide_rational(atoms)
        _assert_answer(atoms, res)
        assert isinstance(res, Unsat) and calls == [6, 7]

    def test_an_lp_without_an_equality_pair_builds_no_substitution(self, monkeypatch):
        calls = _counting(monkeypatch, "_eliminate")
        rng = random.Random(5)
        pool = [Var(f"w{i}", INT) for i in range(4)]
        for _ in range(300):
            # positive coefficients only, so no form meets its negation
            terms = [LinearTerm.make({v: rng.randint(1, 3) for v in rng.sample(pool, 2)},
                                     rng.randint(-3, 3)) for _ in range(5)]
            decide_rational([rng.choice([le, lt])(t, 0).atom for t in terms])
        assert calls == []

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_a_long_chain_takes_a_linear_number_of_substitutions(self, monkeypatch, order):
        n = 4800
        reductions = _counting(monkeypatch, "_reduce")
        for last, verdict in (n, Unsat), (n + 1, Sat):
            reductions.clear()
            atoms = _link_chain(n, order, last)
            res = decide_rational(atoms)
            assert isinstance(res, verdict)
            _assert_answer(atoms, res)
            substitutions = sum(len(r[2]) for r in reductions if r is not None)
            assert substitutions <= 2 * n, substitutions
        assert len(res.model) == n + 1 and res.model[Var(f"x{n}", INT)] == n


class TestBackendAgreement:
    def test_fm_and_simplex_agree(self):
        # small systems of 1-4 variables, where Fourier-Motzkin is cheap
        rng = random.Random(17)
        pool = [Var(f"w{i}", INT) for i in range(8)]
        for trial in range(300):
            k = rng.randint(1, 4)
            variables = rng.sample(pool, k)
            atoms = []
            for _ in range(rng.randint(1, 6)):
                c = rng.choice([le, lt, eq])(random_term(rng, variables), 0)
                if hasattr(c, "atom"):
                    atoms.append(c.atom)
            fm = _reference_fm(split_equalities(atoms))
            sx = decide_rational(atoms)
            assert isinstance(fm, Sat) == isinstance(sx, Sat), (trial, atoms)
            for res in (fm, sx):
                if isinstance(res, Sat):
                    model = dict(res.model)
                    for v in variables:
                        model.setdefault(v, Fraction(0))
                    assert all(a.holds(model) for a in atoms)
                else:
                    assert res.certificate.is_valid()


class TestCertificateProperties:
    def test_multipliers_nonnegative_and_contradiction_exact(self):
        rng = random.Random(23)
        pool = [Var(f"c{i}", INT) for i in range(3)]
        found = 0
        for _ in range(500):
            atoms = []
            for _ in range(rng.randint(2, 6)):
                c = rng.choice([le, lt, eq])(random_term(rng, pool), 0)
                if hasattr(c, "atom"):
                    atoms.append(c.atom)
            res = decide_rational(atoms)
            if isinstance(res, Unsat):
                found += 1
                cert = res.certificate
                assert all(lam >= 0 for _, lam in cert.multipliers)
                total = cert.weighted_sum()
                assert not total.coeffs
                assert total.constant > 0 or (total.constant == 0 and cert.strict)
        assert found > 20  # the sample must actually exercise Unsat


def _fractional_system(rng, pool):
    """8-14 atoms over 1-3 variables each, coefficients c/q with q in {2, 3, 5}."""
    atoms = []
    for _ in range(rng.randint(8, 14)):
        coeffs = {v: Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([2, 3, 5]))
                  for v in rng.sample(pool, rng.randint(1, 3))}
        const = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        atoms.append(LinearAtom(LinearTerm.make(coeffs, const), rng.choice([LE, LE, LT, EQ])))
    return atoms


def _chain_system(last):
    """x0 >= 1, 3/2 (x_{i+1} - x_i) >= 1/(i+2), x3 - 2/3 x5 = 1/5, x7 - x2/3 < last."""
    xs = [Var(f"x{i}", REAL) for i in range(8)]
    t = LinearTerm.of
    atoms = [ge(t(xs[0]), 1).atom]
    for i in range(7):
        atoms.append(ge((t(xs[i + 1]) - t(xs[i])).scale(Fraction(3, 2)), Fraction(1, i + 2)).atom)
    atoms.append(eq(t(xs[3]) + t(xs[5]).scale(Fraction(-2, 3)), Fraction(1, 5)).atom)
    atoms.append(lt(t(xs[7]) - t(xs[2]).scale(Fraction(1, 3)), last).atom)
    return xs, split_equalities(atoms)


class TestSimplexRegression:
    def test_fractional_systems_agree_with_fm(self):
        rng = random.Random(41)
        verdicts = {Sat: 0, Unsat: 0}
        combined = 0  # certificates that needed pivots to combine 3+ atoms
        for trial in range(200):
            pool = [Var(f"r{i}", REAL) for i in range(rng.randint(7, 10))]
            atoms = _fractional_system(rng, pool)
            split = split_equalities(atoms)
            sx = _simplex(split)
            assert type(sx) is type(_reference_fm(split)), (trial, atoms)
            verdicts[type(sx)] += 1
            if isinstance(sx, Sat):
                model = dict(sx.model)
                for v in pool:
                    model.setdefault(v, Fraction(0))
                assert all(a.holds(model) for a in atoms), (trial, atoms)
            else:
                assert sx.certificate.is_valid(), (trial, atoms)
                combined += len(sx.certificate.multipliers) >= 3
        assert verdicts[Sat] > 50 and verdicts[Unsat] > 50
        assert combined > 30

    def test_pinned_unsat_certificate(self):
        # nine pivots; the multipliers pin the pivot order.  They are the
        # Fraction simplex's 7/2, 7/2, 7/2, 9/2, 3, 3, 3/2, 1 times 2, the
        # gcd-reduced int form of the same row after the same pivots.
        _, split = _chain_system(Fraction(4, 3))
        res = _simplex(split)
        assert isinstance(res, Unsat)
        cert = res.certificate
        assert cert.multipliers == (
            (0, 7), (1, 7), (2, 7), (3, 9), (6, 6), (7, 6), (8, 3), (10, 2),
        )
        assert cert.strict and cert.is_valid()

    def test_pinned_sat_model(self):
        xs, split = _chain_system(Fraction(7, 3))
        res = _simplex(split)
        assert isinstance(res, Sat)
        assert [res.model[x] for x in xs] == [
            Fraction(1), Fraction(4, 3), Fraction(14, 9), Fraction(31, 18),
            Fraction(391, 180), Fraction(137, 60), Fraction(333, 140), Fraction(517, 210),
        ]


# ---------------------------------------------------------------------------
# Rational Fourier-Motzkin, kept as an independent reference for the
# simplex's verdicts: it eliminates the variable with the fewest pos x neg
# row pairs, each combination normalised to coefficient +-1 on it.
# ---------------------------------------------------------------------------


class _RefRow(NamedTuple):
    coeffs: dict  # Var -> Fraction
    const: Fraction
    strict: bool
    combo: dict  # split-atom index -> Fraction multiplier


def _ref_contradicts(row):
    return not row.coeffs and (row.const > 0 or (row.const == 0 and row.strict))


def _ref_certificate(split, row):
    return FarkasCertificate(tuple(a for a, _ in split), tuple(sorted(row.combo.items())),
                             row.strict, tuple(o for _, o in split))


def _ref_combine(pos, neg, v):
    kp = 1 / pos.coeffs[v]
    kn = 1 / -neg.coeffs[v]
    coeffs = {w: c * kp for w, c in pos.coeffs.items()}
    for w, c in neg.coeffs.items():
        coeffs[w] = coeffs.get(w, Fraction(0)) + c * kn
    coeffs = {w: c for w, c in coeffs.items() if c != 0}
    combo = {i: lam * kp for i, lam in pos.combo.items()}
    for i, lam in neg.combo.items():
        combo[i] = combo.get(i, Fraction(0)) + lam * kn
    return _RefRow(coeffs, pos.const * kp + neg.const * kn, pos.strict or neg.strict, combo)


def _reference_fm(split):
    rows = [_RefRow({v: Fraction(c) for v, c in a.term.coeffs}, Fraction(a.term.constant),
                    a.rel == LT, {i: Fraction(1)})
            for i, (a, _) in enumerate(split)]
    for row in rows:
        if _ref_contradicts(row):
            return Unsat(_ref_certificate(split, row))
    steps = []
    while True:
        present = {}
        for row in rows:
            for v in row.coeffs:
                present.setdefault(v, [0, 0])[0 if row.coeffs[v] > 0 else 1] += 1
        if not present:
            break
        v = min(present, key=lambda v: (present[v][0] * present[v][1], v))
        pos = [r for r in rows if r.coeffs.get(v, 0) > 0]
        neg = [r for r in rows if r.coeffs.get(v, 0) < 0]
        rest = [r for r in rows if v not in r.coeffs]
        steps.append((v, pos + neg))
        for p in pos:
            for n in neg:
                row = _ref_combine(p, n, v)
                if _ref_contradicts(row):
                    return Unsat(_ref_certificate(split, row))
                if row.coeffs or row.const != 0 or row.strict:
                    rest.append(row)
        rows = rest
    model = {}
    for a, _ in split:
        for v in a.vars:
            model.setdefault(v, Fraction(0))
    for v, vrows in reversed(steps):
        lo = hi = None
        lo_strict = hi_strict = False
        for row in vrows:
            a = row.coeffs[v]
            rest_val = row.const
            for w, c in row.coeffs.items():
                if w != v:
                    rest_val += c * model[w]
            bound = -rest_val / a
            if a > 0:
                if hi is None or bound < hi or (bound == hi and row.strict):
                    hi, hi_strict = bound, row.strict
            else:
                if lo is None or bound > lo or (bound == lo and row.strict):
                    lo, lo_strict = bound, row.strict
        if lo is not None and hi is not None:
            model[v] = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            model[v] = lo if not lo_strict else lo + 1
        elif hi is not None:
            model[v] = hi if not hi_strict else hi - 1
    return Sat(model)


def _small_fractional_system(rng, max_vars, max_atoms):
    """2-max_atoms atoms over 1-max_vars Int or Real variables, coefficients
    c/q, fractional constants, relations <=, < and =."""
    pool = [Var(f"f{i}", rng.choice([INT, REAL])) for i in range(rng.randint(1, max_vars))]
    atoms = []
    for _ in range(rng.randint(2, max_atoms)):
        coeffs = {v: Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 2, 3, 5]))
                  for v in rng.sample(pool, rng.randint(1, min(3, len(pool))))}
        const = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7]))
        atoms.append(LinearAtom(LinearTerm.make(coeffs, const), rng.choice([LE, LT, EQ])))
    return atoms


# ---------------------------------------------------------------------------
# Simplex over Fraction values, kept as the reference for the integer one:
# unscaled slacks s = t, basic values and bounds as a + b*eps pairs of
# Fractions shifted per pivot, the leaving row found by a sorted scan, and
# Fraction multipliers scaled so the violated row gets 1.
# ---------------------------------------------------------------------------


class _RefDRat(NamedTuple):
    a: Fraction
    b: Fraction

    def __add__(self, other):
        return _RefDRat(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _RefDRat(self.a - other.a, self.b - other.b)

    def scale(self, k):
        return _RefDRat(self.a * k, self.b * k)


def _reference_simplex(split):
    pvars = sorted({v for a, _ in split for v in a.vars})
    nvars = len(pvars)
    vidx = {v: i for i, v in enumerate(pvars)}
    # variable indices: 0..nvars-1 problem vars, then one slack per atom
    ub = {}
    rows = {}
    for k, (a, _) in enumerate(split):
        s = nvars + k
        d = lcm(*(c.denominator for _, c in a.term.coeffs))
        rows[s] = (d, {vidx[v]: c.numerator * (d // c.denominator) for v, c in a.term.coeffs})
        ub[s] = _RefDRat(-a.term.constant, Fraction(-1 if a.rel == LT else 0))
    # every nonbasic variable starts at 0, so every basic one does too
    beta = {i: _RefDRat(Fraction(0), Fraction(0)) for i in range(nvars + len(split))}

    while True:
        bad = None
        for s in sorted(rows):
            if s in ub and beta[s] > ub[s]:
                bad = s
                break
        if bad is None:
            break
        d, row = rows[bad]
        enter = None
        for j in sorted(row):
            # row[j] > 0: decreasing j decreases bad, and nothing has a lower
            # bound; row[j] < 0: j needs room to increase
            if row[j] > 0 or j not in ub or beta[j] < ub[j]:
                enter = j
                break
        if enter is None:
            # every coefficient is negative, on a slack pinned at its upper
            # bound: the row is a Farkas contradiction
            atoms = tuple(a for a, _ in split)
            origins = tuple(o for _, o in split)
            mults = {bad - nvars: Fraction(1)}
            for j, a in row.items():
                mults[j - nvars] = Fraction(-a, d)
            cert = FarkasCertificate(
                atoms,
                tuple(sorted(mults.items())),
                any(atoms[i].rel == LT and lam > 0 for i, lam in mults.items()),
                origins,
            )
            return Unsat(cert)
        # pivot bad <-> enter: d_e * x_enter = sum erow_j * x_j, with bad
        # now nonbasic
        a_e = row.pop(enter)
        sign = 1 if a_e > 0 else -1
        d_e = a_e * sign
        erow = {j: -a * sign for j, a in row.items()}
        erow[bad] = d * sign
        g = gcd(d_e, *erow.values())
        if g != 1:
            d_e //= g
            erow = {j: a // g for j, a in erow.items()}
        del rows[bad]
        for s, (d_s, r) in rows.items():
            r_e = r.pop(enter, 0)
            if not r_e:
                continue
            if d_e != 1:
                for j in r:
                    r[j] *= d_e
            for j, a in erow.items():
                c = r.get(j, 0) + r_e * a
                if c:
                    r[j] = c
                else:
                    del r[j]
            d_s *= d_e
            g = gcd(d_s, *r.values())
            if g != 1:
                d_s //= g
                for j in r:
                    r[j] //= g
            rows[s] = (d_s, r)
        rows[enter] = (d_e, erow)
        # land bad exactly on its upper bound and shift the basic values
        shift = ub[bad] - beta[bad]
        beta[bad] = ub[bad]
        for s, (d_s, r) in rows.items():
            a = r.get(bad)
            if a:
                beta[s] = beta[s] + shift.scale(Fraction(a, d_s))

    # feasible: concretise eps
    eps_bound = None
    vals = {v: beta[vidx[v]] for v in pvars}
    for a, _ in split:
        p = a.term.constant
        q = Fraction(0)
        for v, c in a.term.coeffs:
            p += c * vals[v].a
            q += c * vals[v].b
        if q > 0:
            cap = -p / q
            if eps_bound is None or cap < eps_bound:
                eps_bound = cap
    eps = Fraction(1) if eps_bound is None else eps_bound / 2
    if eps <= 0:
        eps = Fraction(1, 2)
    model = {v: d.a + d.b * eps for v, d in vals.items()}
    return Sat(model)


class TestIntegerSimplex:
    def test_agrees_with_fraction_reference(self):
        rng = random.Random(71)
        verdicts = {Sat: 0, Unsat: 0}
        combined = 0  # certificates that needed pivots to combine 3+ atoms
        for trial in range(2000):
            atoms = _small_fractional_system(rng, max_vars=12, max_atoms=14)
            split = split_equalities(atoms)
            new, ref = _simplex(split), _reference_simplex(split)
            assert type(new) is type(ref), (trial, atoms)
            verdicts[type(new)] += 1
            if isinstance(new, Sat):
                assert list(new.model.items()) == list(ref.model.items()), (trial, atoms)
                continue
            cert, rcert = new.certificate, ref.certificate
            assert cert.is_valid() and cert.strict == rcert.strict, (trial, atoms)
            assert [i for i, _ in cert.multipliers] == [i for i, _ in rcert.multipliers]
            assert all(type(lam) is int for _, lam in cert.multipliers), (trial, atoms)
            ratios = {lam / rlam for (_, lam), (_, rlam) in
                      zip(cert.multipliers, rcert.multipliers)}
            assert len(ratios) == 1 and ratios.pop() > 0, (trial, atoms)
            combined += len(cert.multipliers) >= 3
        assert verdicts[Sat] > 300 and verdicts[Unsat] > 300
        assert combined > 100
