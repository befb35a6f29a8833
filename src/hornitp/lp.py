"""Exact rational feasibility of atom conjunctions, with Farkas certificates.

One engine decides every conjunction: a bounds-based simplex over
eps-rationals (Dutertre & de Moura, CAV 2006).  Equalities are split into
two <= halves, and of the atoms that share one linear form only the tightest
is kept, so each form gets one slack bounded by its tightest atom.  Strict
inequalities are handled by infinitesimal bounds.  As in that design, a
lower bound above an upper bound is a conflict before any pivot: when the
kept atoms on a form t and on its exact negation -t cross, their sum with
multipliers (1, 1) is the certificate and no tableau is built.

The simplex works over Python ints and gives int certificate multipliers.
It scales each atom's slack to integer coefficients and bounds, keeps its
tableau rows as integer coefficients over one positive integer denominator,
gcd-reduced after every pivot, and reads every basic value as an int pair
off its row, since each nonbasic variable sits at its bound or at 0.
Fractions appear only in the returned models.  Every certificate and every
model is checked before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import SolverInternalError
from .terms import EQ, LE, LT, LinearAtom, LinearTerm, weighted_sum


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative combination of inequality atoms summing to a contradiction.

    ``atoms`` are the kept atoms: a subset of the split input atoms
    (equalities appear as their two <= halves), one per linear form, the
    same tuple whether the simplex refuted them or a crossing bound pair
    did; ``origins[i]`` is the index of the input atom that atoms[i] came
    from.  A bound pair's certificate has multipliers (1, 1) on the atoms
    of a form and of its exact negation.  The weighted sum of the atom
    terms has zero variable coefficients and a constant c with c > 0, or
    c >= 0 when some strict atom carries a positive multiplier.

    A certificate is determined only up to a positive factor: scaling every
    multiplier by the same k > 0 keeps it valid, and the simplex does not
    promise any particular scale.
    """

    atoms: tuple
    multipliers: tuple  # of (atom index, int or Fraction >= 0); the simplex gives ints
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
    """Feasibility over the rationals (Int sorts are not yet enforced).

    Of the split atoms with one linear form t only the tightest is kept:
    the one with the largest constant c in t + c <= 0, a strict atom
    winning a tie, which entails all the others.  When the kept atoms
    t + c1 <= 0 and -t + c2 <= 0 cross (c1 + c2 > 0, or = 0 with one of them
    strict) their sum refutes the conjunction without the simplex;
    otherwise the kept atoms go to the simplex.  A certificate names only
    kept atoms and is checked before it is returned; a model is checked
    against every input atom.
    """
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
                    forms = list(tightest)
                    return _bound_pair(split, forms.index(coeffs), forms.index(negated))
    res = _simplex(split)
    if isinstance(res, Sat) and not _holds_all(atoms, res.model):
        raise SolverInternalError("simplex model violates an input atom")
    return res


def _bound_pair(split: list, i: int, j: int) -> Unsat:
    """Unsat from the kept atoms split[i] and split[j], on a form and its
    exact negation, whose bounds cross: their sum with multipliers (1, 1)
    is a constant contradiction."""
    cert = FarkasCertificate(
        tuple(a for a, _ in split),
        ((min(i, j), 1), (max(i, j), 1)),
        split[i][0].rel == LT or split[j][0].rel == LT,
        tuple(o for _, o in split),
    )
    if not cert.is_valid():
        raise SolverInternalError("bound-pair certificate is not a contradiction")
    return Unsat(cert)


def _holds_all(atoms, model: dict) -> bool:
    """Whether every <=, < or = atom holds under the model, summed over ints:
    with the model scaled by its common denominator D > 0 to ints D*x, the
    sign of D*t(x) = sum c_v * (D*x_v) + D*c decides each atom."""
    den = lcm(*(q.denominator for q in model.values()))
    num = {v: q.numerator * (den // q.denominator) for v, q in model.items()}
    for a in atoms:
        t = a.term
        val = t.constant * den
        for v, c in t.coeffs:
            val += c * num[v]
        if val > 0 or (val == 0 and a.rel == LT) or (val < 0 and a.rel == EQ):
            return False
    return True


# ---------------------------------------------------------------------------
# Simplex over eps-rationals (Dutertre/de Moura style bounds tableau), on ints
#
# An atom t + c <= 0 (or < 0) gets a slack s = D*t, where D is the lcm of
# every denominator of the atom, constant included.  Its row starts as
# (1, {var: int}) and its upper bound is the int pair (-D*c, -D if strict
# else 0), read as a + b*eps for an infinitesimal eps > 0; problem variables
# have no bounds.  A basic row is kept
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
            if not cert.is_valid():
                raise SolverInternalError("simplex certificate is not a contradiction")
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
    return Sat(model)
