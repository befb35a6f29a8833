"""Rational decision core: Fourier-Motzkin, simplex, Farkas certificates."""

import random
from fractions import Fraction

from generators import random_term
from hornitp.lp import (
    FM_VAR_CUTOFF,
    Sat,
    Unsat,
    _fourier_motzkin,
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


class TestBackendAgreement:
    def test_fm_and_simplex_agree(self):
        rng = random.Random(17)
        pool = [Var(f"w{i}", INT) for i in range(FM_VAR_CUTOFF + 2)]
        for trial in range(300):
            k = rng.randint(1, 4)
            variables = rng.sample(pool, k)
            atoms = []
            for _ in range(rng.randint(1, 6)):
                c = rng.choice([le, lt, eq])(random_term(rng, variables), 0)
                if hasattr(c, "atom"):
                    atoms.append(c.atom)
            split = split_equalities(atoms)
            fm = _fourier_motzkin(split)
            sx = _simplex(split)
            assert isinstance(fm, Sat) == isinstance(sx, Sat), (trial, atoms)
            for res in (fm, sx):
                if isinstance(res, Sat):
                    model = dict(res.model)
                    for v in variables:
                        model.setdefault(v, Fraction(0))
                    assert all(a.holds(model) for a in atoms)
                else:
                    assert res.certificate.is_valid()

    def test_simplex_used_above_cutoff(self):
        variables = [Var(f"v{i}", INT) for i in range(FM_VAR_CUTOFF + 1)]
        atoms = [le(LinearTerm.of(v), 0).atom for v in variables]
        atoms.append(le(-LinearTerm.of(variables[0]), -1).atom)
        res = decide_rational(atoms)
        assert isinstance(res, Unsat) and res.certificate.is_valid()


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
            assert type(sx) is type(_fourier_motzkin(split)), (trial, atoms)
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
        # nine pivots; the multipliers pin the pivot order
        _, split = _chain_system(Fraction(4, 3))
        res = _simplex(split)
        assert isinstance(res, Unsat)
        cert = res.certificate
        assert cert.multipliers == (
            (0, Fraction(7, 2)), (1, Fraction(7, 2)), (2, Fraction(7, 2)),
            (3, Fraction(9, 2)), (6, Fraction(3)), (7, Fraction(3)),
            (8, Fraction(3, 2)), (10, Fraction(1)),
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
