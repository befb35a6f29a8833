"""Exact rational feasibility of atom conjunctions, with Farkas certificates.

Two engines share one interface: Fourier-Motzkin elimination (used for small
variable counts, where it is cheap and the certificate falls out of the
bookkeeping) and a bounds-based simplex over eps-rationals (used above the
cutoff, where FM can blow up).  Strict inequalities are handled by Motzkin
transposition in FM and by infinitesimal bounds in the simplex.

Both engines work over Python ints and give int certificate multipliers.
An FM row is an integer combination of the input atoms, row = sum combo_i *
term_i, and is gcd-reduced after every elimination; its combo is the
certificate.  The simplex scales each atom's slack to integer coefficients
and bounds, keeps its tableau rows as integer coefficients over one positive
integer denominator, gcd-reduced after every pivot, and reads every basic
value as an int pair off its row, since each nonbasic variable sits at its
bound or at 0.  Fractions appear only in the returned models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .terms import EQ, LE, LT, LinearAtom, LinearTerm, weighted_sum

FM_VAR_CUTOFF = 6


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative combination of inequality atoms summing to a contradiction.

    ``atoms`` are the certified atoms (equalities of the input conjunction
    appear split into their two <= halves); ``origins[i]`` is the index of
    the input atom that atoms[i] came from.  The weighted sum of the atom
    terms has zero variable coefficients and a constant c with c > 0, or
    c >= 0 when some strict atom carries a positive multiplier.

    A certificate is determined only up to a positive factor: scaling every
    multiplier by the same k > 0 keeps it valid, and the engines do not
    promise any particular scale.
    """

    atoms: tuple
    multipliers: tuple  # of (atom index, int or Fraction >= 0); both LP engines give ints
    strict: bool
    origins: tuple

    def weighted_sum(self) -> LinearTerm:
        return weighted_sum((self.atoms[i].term, lam) for i, lam in self.multipliers)

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
    names = {v for a, _ in split for v, _ in a.term.coeffs}
    if len(names) <= FM_VAR_CUTOFF:
        return _fourier_motzkin(split)
    return _simplex(split)


# ---------------------------------------------------------------------------
# Fourier-Motzkin over integer rows
#
# Variables are indexed in sorted order, as in the simplex.  Each atom
# becomes a row scaled by the lcm of its denominators; eliminating v combines
# every pair of rows with opposite signs on v by the smallest positive
# integer factors that cancel it, then divides out the gcd of the result
# (coefficients, constant and combo).  Every row is a positive multiple of
# the row a rational elimination would build, so the keep/drop and
# contradiction tests and the elimination order are those of rational FM,
# and certificate multipliers differ from it by one positive factor.
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    """``coeffs . x + const rel 0`` over Python ints, with the exact identity
    row = sum of combo[i] * (term of split atom i)."""

    coeffs: dict  # variable index -> nonzero int
    const: int
    strict: bool
    combo: dict  # split-atom index -> positive int multiplier


def _row_of(atom: LinearAtom, idx: int, vidx: dict) -> _Row:
    """The atom's term scaled by the lcm of all its denominators."""
    t = atom.term
    d = lcm(t.constant.denominator, *(c.denominator for _, c in t.coeffs))
    coeffs = {vidx[v]: c.numerator * (d // c.denominator) for v, c in t.coeffs}
    const = t.constant.numerator * (d // t.constant.denominator)
    return _Row(coeffs, const, atom.rel == LT, {idx: d})


def _contradicts(row: _Row) -> bool:
    return not row.coeffs and (row.const > 0 or (row.const == 0 and row.strict))


def _certificate(split, row: _Row) -> FarkasCertificate:
    atoms = tuple(a for a, _ in split)
    origins = tuple(o for _, o in split)
    mults = tuple(sorted(row.combo.items()))
    cert = FarkasCertificate(atoms, mults, row.strict, origins)
    assert cert.is_valid(), "internal error: bad Farkas certificate"
    return cert


def _combine(pos: _Row, neg: _Row, v: int) -> _Row:
    """The gcd-reduced combination of pos and neg that cancels v: a positive
    multiple of pos / pos_v + neg / -neg_v."""
    a, b = pos.coeffs[v], -neg.coeffs[v]
    g = gcd(a, b)
    kp, kn = b // g, a // g
    coeffs = {w: c * kp for w, c in pos.coeffs.items()}
    for w, c in neg.coeffs.items():
        coeffs[w] = coeffs.get(w, 0) + c * kn
    coeffs = {w: c for w, c in coeffs.items() if c}
    combo = {i: lam * kp for i, lam in pos.combo.items()}
    for i, lam in neg.combo.items():
        combo[i] = combo.get(i, 0) + lam * kn
    const = pos.const * kp + neg.const * kn
    g = gcd(const, *coeffs.values(), *combo.values())
    if g != 1:
        coeffs = {w: c // g for w, c in coeffs.items()}
        combo = {i: lam // g for i, lam in combo.items()}
        const //= g
    return _Row(coeffs, const, pos.strict or neg.strict, combo)


def _fourier_motzkin(split) -> Sat | Unsat:
    pvars = sorted({v for a, _ in split for v, _ in a.term.coeffs})
    vidx = {v: i for i, v in enumerate(pvars)}
    rows = [_row_of(a, i, vidx) for i, (a, _) in enumerate(split)]
    for row in rows:
        if _contradicts(row):
            return Unsat(_certificate(split, row))
    steps = []  # (var index, rows at the step it was eliminated)
    while True:
        present: dict = {}
        for row in rows:
            for v, c in row.coeffs.items():
                present.setdefault(v, [0, 0])[0 if c > 0 else 1] += 1
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
    vals = [Fraction(0)] * len(pvars)
    for v, vrows in reversed(steps):
        lo = hi = None
        lo_strict = hi_strict = False
        for row in vrows:
            a = row.coeffs[v]
            rest_val = row.const
            for w, c in row.coeffs.items():
                if w != v:
                    rest_val += c * vals[w]
            bound = Fraction(-rest_val, a)
            if a > 0:  # upper bound on v
                if hi is None or bound < hi or (bound == hi and row.strict):
                    hi, hi_strict = bound, row.strict
            else:  # lower bound
                if lo is None or bound > lo or (bound == lo and row.strict):
                    lo, lo_strict = bound, row.strict
        if lo is not None and hi is not None:
            vals[v] = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            vals[v] = lo if not lo_strict else lo + 1
        elif hi is not None:
            vals[v] = hi if not hi_strict else hi - 1
    model: dict = {}
    for a, _ in split:
        for v in a.vars:
            model.setdefault(v, vals[vidx[v]])
    return Sat(model)


# ---------------------------------------------------------------------------
# Simplex over eps-rationals (Dutertre/de Moura style bounds tableau), on ints
#
# An atom t + c <= 0 (or < 0) gets a slack s = D*t, where D is the lcm of
# every denominator of the atom, constant included, as in FM's _row_of.  Its
# row starts as (1, {var: int}) and its upper bound is the int pair
# (-D*c, -D if strict else 0), read as a + b*eps for an infinitesimal
# eps > 0; problem variables have no bounds.  A basic row is kept
# fraction-free as (d, {j: a_j}), meaning d * x_s = sum a_j * x_j with d > 0
# and gcd(d, a_j...) = 1.  A pivot cross-multiplies rows and divides out the
# gcd.  A nonbasic variable is either a slack sitting at its bound (it left
# the basis there) or a problem variable still at 0, so d * x_s is the int
# pair sum a_j * bound_j.  A pivot changes the value of no row but those that
# hold the entering variable and the entering variable's own, which is below
# its bound; only the former are re-summed and re-checked against the set of
# violated rows.  Fractions are built once, when eps is concretised.
# ---------------------------------------------------------------------------


def _row_value(r: dict, ub_a: list, ub_b: list) -> tuple:
    """d * x_s as an int pair (a, b) for the basic row d * x_s = sum r_j * x_j."""
    p = q = 0
    for j, a in r.items():
        p += a * ub_a[j]
        q += a * ub_b[j]
    return p, q


def _simplex(split) -> Sat | Unsat:
    pvars = sorted({v for a, _ in split for v, _ in a.term.coeffs})
    nvars = len(pvars)
    vidx = {v: i for i, v in enumerate(pvars)}
    # variable indices: 0..nvars-1 problem vars, then one slack per atom.
    # ub_a/ub_b hold each slack's upper bound and, for a problem variable,
    # its value 0 while it is nonbasic; scale holds each slack's D.
    ub_a = [0] * nvars
    ub_b = [0] * nvars
    scale = []
    rows: dict = {}
    for k, (a, _) in enumerate(split):
        t = a.term
        d = lcm(t.constant.denominator, *(c.denominator for _, c in t.coeffs))
        rows[nvars + k] = (1, {vidx[v]: c.numerator * (d // c.denominator) for v, c in t.coeffs})
        ub_a.append(-t.constant.numerator * (d // t.constant.denominator))
        ub_b.append(-d if a.rel == LT else 0)
        scale.append(d)
    # every nonbasic variable starts at 0, so every basic one does too
    violated = {s for s in rows if (0, 0) > (ub_a[s], ub_b[s])}

    while violated:
        bad = min(violated)
        d, row = rows[bad]
        # row[j] > 0: decreasing j decreases bad, and nothing has a lower
        # bound; row[j] < 0: j needs room to increase, which only a problem
        # variable has, since a nonbasic slack sits at its upper bound
        enter = min((j for j, a in row.items() if a > 0 or j < nvars), default=None)
        if enter is None:
            # every coefficient is negative, on a slack pinned at its upper
            # bound: d * s_bad = sum a_j * s_j is a Farkas contradiction, and
            # D_bad * d and -a_j * D_j are its multipliers on the atoms
            atoms = tuple(a for a, _ in split)
            origins = tuple(o for _, o in split)
            mults = {bad - nvars: d * scale[bad - nvars]}
            for j, a in row.items():
                mults[j - nvars] = -a * scale[j - nvars]
            g = gcd(*mults.values())
            cert = FarkasCertificate(
                atoms,
                tuple(sorted((i, lam // g) for i, lam in mults.items())),
                any(atoms[i].rel == LT for i in mults),
                origins,
            )
            assert cert.is_valid(), "internal error: bad simplex certificate"
            return Unsat(cert)
        # pivot bad <-> enter: d_e * x_enter = sum erow_j * x_j, with bad
        # now nonbasic at its upper bound
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
        violated.discard(bad)
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
            if s >= nvars:
                if _row_value(r, ub_a, ub_b) > (d_s * ub_a[s], d_s * ub_b[s]):
                    violated.add(s)
                else:
                    violated.discard(s)
        # an entering slack had a positive coefficient in bad's row, so
        # moving bad down onto its bound moves it strictly below its own
        rows[enter] = (d_e, erow)

    # feasible: concretise eps at half the least cap (d * ub_s - a) / b over
    # the basic slacks with d * x_s = (a, b) and b > 0; a nonbasic slack
    # sits at its bound, whose eps part is not positive
    caps = []
    for s, (d, r) in rows.items():
        if s >= nvars:
            p, q = _row_value(r, ub_a, ub_b)
            if q > 0:
                caps.append(Fraction(d * ub_a[s] - p, q))
    eps = min(caps) / 2 if caps else Fraction(1)
    model = {}
    for v in pvars:
        d, r = rows.get(vidx[v], (1, {}))
        p, q = _row_value(r, ub_a, ub_b)
        model[v] = Fraction(p * eps.denominator + q * eps.numerator, d * eps.denominator)
    assert all(a.holds(model) for a, _ in split), "internal error: simplex model"
    return Sat(model)
