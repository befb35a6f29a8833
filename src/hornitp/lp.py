"""Exact rational feasibility of atom conjunctions, with Farkas certificates.

Two engines share one interface: Fourier-Motzkin elimination (used for small
variable counts, where it is cheap and the certificate falls out of the
bookkeeping) and a bounds-based simplex over eps-rationals (used above the
cutoff, where FM can blow up).  Strict inequalities are handled by Motzkin
transposition in FM and by infinitesimal bounds in the simplex.

The simplex keeps its tableau rows fraction-free (integer coefficients over
one positive integer denominator, gcd-reduced after every pivot) and updates
the basic values incrementally: a pivot moves one nonbasic variable, so each
basic value shifts by that variable's column times its move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .terms import EQ, LE, LT, LinearAtom, LinearTerm, Var

FM_VAR_CUTOFF = 6


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative combination of inequality atoms summing to a contradiction.

    ``atoms`` are the certified atoms (equalities of the input conjunction
    appear split into their two <= halves); ``origins[i]`` is the index of
    the input atom that atoms[i] came from.  The weighted sum of the atom
    terms has zero variable coefficients and a constant c with c > 0, or
    c >= 0 when some strict atom carries a positive multiplier.
    """

    atoms: tuple
    multipliers: tuple  # of (atom index, Fraction >= 0)
    strict: bool
    origins: tuple

    def weighted_sum(self) -> LinearTerm:
        total = LinearTerm.const(0)
        for i, lam in self.multipliers:
            total = total + self.atoms[i].term.scale(lam)
        return total

    def is_valid(self) -> bool:
        if any(lam < 0 for _, lam in self.multipliers):
            return False
        total = self.weighted_sum()
        if total.coeffs:
            return False
        strict = any(self.atoms[i].rel == LT and lam > 0 for i, lam in self.multipliers)
        if strict != self.strict:
            return False
        return total.constant > 0 or (total.constant == 0 and strict)


class Sat(NamedTuple):
    model: dict  # Var -> Fraction


class Unsat(NamedTuple):
    certificate: FarkasCertificate | None  # None only after integer branching


def split_equalities(atoms) -> list:
    """[(inequality atom, origin index)] with = atoms split into <= pairs."""
    out = []
    for i, a in enumerate(atoms):
        if a.rel == EQ:
            out.append((LinearAtom(a.term, LE), i))
            out.append((LinearAtom(-a.term, LE), i))
        else:
            out.append((a, i))
    return out


def decide_rational(atoms) -> Sat | Unsat:
    """Feasibility over the rationals (Int sorts are not yet enforced)."""
    split = split_equalities(atoms)
    names = set()
    for a, _ in split:
        names |= a.vars
    if len(names) <= FM_VAR_CUTOFF:
        return _fourier_motzkin(split)
    return _simplex(split)


# ---------------------------------------------------------------------------
# Fourier-Motzkin
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    coeffs: dict  # Var -> Fraction
    const: Fraction
    strict: bool
    combo: dict  # split-atom index -> Fraction multiplier


def _row_of(atom: LinearAtom, idx: int) -> _Row:
    return _Row(dict(atom.term.coeffs), atom.term.constant, atom.rel == LT, {idx: Fraction(1)})


def _contradicts(row: _Row) -> bool:
    return not row.coeffs and (row.const > 0 or (row.const == 0 and row.strict))


def _certificate(split, row: _Row) -> FarkasCertificate:
    atoms = tuple(a for a, _ in split)
    origins = tuple(o for _, o in split)
    mults = tuple(sorted(row.combo.items()))
    cert = FarkasCertificate(atoms, mults, row.strict, origins)
    assert cert.is_valid(), "internal error: bad Farkas certificate"
    return cert


def _combine(pos: _Row, neg: _Row, v: Var) -> _Row:
    kp = 1 / pos.coeffs[v]
    kn = 1 / -neg.coeffs[v]
    coeffs: dict = {}
    for w, c in pos.coeffs.items():
        coeffs[w] = c * kp
    for w, c in neg.coeffs.items():
        coeffs[w] = coeffs.get(w, Fraction(0)) + c * kn
    coeffs = {w: c for w, c in coeffs.items() if c != 0}
    combo = {i: lam * kp for i, lam in pos.combo.items()}
    for i, lam in neg.combo.items():
        combo[i] = combo.get(i, Fraction(0)) + lam * kn
    return _Row(coeffs, pos.const * kp + neg.const * kn, pos.strict or neg.strict, combo)


def _fourier_motzkin(split) -> Sat | Unsat:
    rows = [_row_of(a, i) for i, (a, _) in enumerate(split)]
    for row in rows:
        if _contradicts(row):
            return Unsat(_certificate(split, row))
    steps = []  # (var, rows at the step it was eliminated)
    while True:
        present: dict = {}
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
                row = _combine(p, n, v)
                if _contradicts(row):
                    return Unsat(_certificate(split, row))
                if row.coeffs or row.const != 0 or row.strict:
                    rest.append(row)
        rows = rest
    model: dict = {}
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
            if a > 0:  # upper bound on v
                if hi is None or bound < hi or (bound == hi and row.strict):
                    hi, hi_strict = bound, row.strict
            else:  # lower bound
                if lo is None or bound > lo or (bound == lo and row.strict):
                    lo, lo_strict = bound, row.strict
        if lo is not None and hi is not None:
            model[v] = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            model[v] = lo if not lo_strict else lo + 1
        elif hi is not None:
            model[v] = hi if not hi_strict else hi - 1
    return Sat(model)


# ---------------------------------------------------------------------------
# Simplex over eps-rationals (Dutertre/de Moura style bounds tableau)
#
# An atom t + c <= 0 (or < 0) gets a slack s = t with the upper bound
# s <= -c (-c - eps when strict); problem variables have no bounds.
# A basic row is kept fraction-free as (d, {j: a_j}) over Python ints,
# meaning d * x_s = sum a_j * x_j with d > 0 and gcd(d, a_j...) = 1.  A pivot
# cross-multiplies rows and divides out the gcd.  Values, bounds and the
# certificate stay Fractions.  The only nonbasic variable a pivot moves is
# the leaving one, so the basic values shift by one column per pivot.
# ---------------------------------------------------------------------------


class _DRat(NamedTuple):
    """a + b*eps for an infinitesimal eps > 0; compared lexicographically."""

    a: Fraction
    b: Fraction

    def __add__(self, other):
        return _DRat(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return _DRat(self.a - other.a, self.b - other.b)

    def scale(self, k: Fraction):
        return _DRat(self.a * k, self.b * k)


_DZERO = _DRat(Fraction(0), Fraction(0))


def _simplex(split) -> Sat | Unsat:
    pvars = sorted({v for a, _ in split for v in a.vars})
    nvars = len(pvars)
    vidx = {v: i for i, v in enumerate(pvars)}
    # variable indices: 0..nvars-1 problem vars, then one slack per atom
    ub: dict = {}
    rows: dict = {}
    for k, (a, _) in enumerate(split):
        s = nvars + k
        d = lcm(*(c.denominator for _, c in a.term.coeffs))
        rows[s] = (d, {vidx[v]: c.numerator * (d // c.denominator) for v, c in a.term.coeffs})
        ub[s] = _DRat(-a.term.constant, Fraction(-1 if a.rel == LT else 0))
    # every nonbasic variable starts at 0, so every basic one does too
    beta = {i: _DZERO for i in range(nvars + len(split))}

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
            assert cert.is_valid(), "internal error: bad simplex certificate"
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
    assert all(a.holds(model) for a, _ in split), "internal error: simplex model"
    return Sat(model)
