"""Exact rational feasibility of atom conjunctions, with Farkas certificates.

One engine decides every conjunction: a bounds-based simplex over
eps-rationals (Dutertre & de Moura, CAV 2006).  Equalities are split into
two <= halves, and of the atoms that share one linear form only the tightest
is kept, so each form gets one slack bounded by its tightest atom.  Strict
inequalities are handled by infinitesimal bounds.  As in that design, a
lower bound above an upper bound is a conflict before any pivot: when the
kept atoms on a form t and on its exact negation -t cross, their sum with
multipliers (1, 1) is the certificate and no tableau is built.

Kept atoms on t and -t whose bounds meet are an equality t + c = 0, and
the design treats a variable it fixes as gone from the tableau: in one
forward pass each such equality with int coefficients is pivoted on a
variable whose coefficient is +-1 once the pivots before it are substituted
in, and its halves leave the LP; if one is left without such a
coefficient, the kept atoms go to the simplex as they are.  Every other
kept atom has the pivots it holds substituted; the reduced atoms go through
the bound-pair check again and then to the simplex.  A refutation of the
reduced atoms maps back onto the kept atoms: each keeps its multiplier, and
each substituted equality gets one signed multiplier, recovered by walking
the pivots back, which goes onto its t + c <= 0 half or its -t - c <= 0
half by its sign.  A model values each pivot by back-substitution.

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
from heapq import heapify, heappop, heappush
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
    did, and whether or not equalities were substituted away first;
    ``origins[i]`` is the index of the input atom that atoms[i] came from.
    A bound pair's certificate has multipliers (1, 1) on the atoms of a
    form and of its exact negation.  A substituted equality's multiplier
    sits on one of its two halves, the one its sign picks.  The weighted
    sum of the atom terms has zero variable coefficients and a constant c
    with c > 0, or c >= 0 when some strict atom carries a positive
    multiplier.

    A certificate is determined only up to a positive factor: scaling every
    multiplier by the same k > 0 keeps it valid, and the simplex does not
    promise any particular scale.
    """

    atoms: tuple
    # of (atom index, int or Fraction >= 0): ints, unless a substituted atom
    # has a Fraction coefficient, which no canonical atom has
    multipliers: tuple
    strict: bool
    origins: tuple

    def weighted_sum(self) -> LinearTerm:
        return weighted_sum((self.atoms[i].term, lam) for i, lam in self.multipliers)

    def is_valid(self) -> bool:
        """Whether no multiplier is negative, the weighted sum has only zero
        variable coefficients, ``strict`` says whether a strict atom has a
        positive multiplier, and the constant contradicts.  The sum is taken
        in one dict, over the multipliers scaled by the lcm of their
        denominators, which keeps every one of these facts."""
        den = None  # None while every multiplier is an int
        for _, lam in self.multipliers:
            if lam < 0:
                return False
            if type(lam) is not int:
                den = lam.denominator if den is None else lcm(den, lam.denominator)
        acc: dict = {}
        const = 0
        strict = False
        for i, lam in self.multipliers:
            if den is not None:
                lam = lam.numerator * (den // lam.denominator)
            a = self.atoms[i]
            const += a.term.constant * lam
            for v, c in a.term.coeffs:
                acc[v] = acc.get(v, 0) + c * lam
            if a.rel == LT and lam > 0:
                strict = True
        if any(acc.values()) or strict != self.strict:
            return False
        return const > 0 or (const == 0 and strict)


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

    Of the split atoms with one linear form only the tightest is kept
    (:func:`_tightest`).  Kept atoms on a form and on its exact negation
    whose bounds cross refute the conjunction by their sum, without the
    simplex.  Kept pairs whose bounds meet are equalities, which
    :func:`_eliminate` substitutes away before the tableau; with none, the
    kept atoms go to the simplex as they are.  A certificate names only
    kept atoms and is checked before it is returned; a model is checked
    against every input atom.
    """
    split, crossing, meeting = _tightest(split_equalities(atoms))
    if crossing is not None:
        return _refuted(split, crossing)
    res = _eliminate(split, meeting) if meeting else _simplex(split)
    if isinstance(res, Sat) and not _holds_all(atoms, res.model):
        raise SolverInternalError("model violates an input atom")
    return res


def _tightest(split) -> tuple:
    """(kept, crossing, meeting) for [(inequality atom, origin)] pairs.

    ``kept`` holds the tightest atom per linear form t: the one with the
    largest constant c in t + c <= 0, a strict atom winning a tie, which
    entails all the others; kept atoms stay where their form first occurs.
    ``crossing`` is the refutation ((index, 1), (index, 1)), in index
    order, by the first kept atoms t + c1 <= 0 and -t + c2 <= 0 whose
    bounds cross (c1 + c2 > 0, or = 0 with one of them strict), else None.
    ``meeting`` lists the index pairs, positive leading coefficient first,
    of kept atoms whose bounds meet (c1 + c2 = 0, neither strict) on a form
    with int coefficients: each is an equality t + c1 = 0 as its two
    halves."""
    index: dict = {}  # term.coeffs -> index into kept
    kept, keys = [], []
    for a, o in split:
        t = a.term
        key = (t.constant, a.rel == LT)
        i = index.get(t.coeffs)
        if i is None:
            index[t.coeffs] = len(kept)
            kept.append((a, o))
            keys.append(key)
        elif key > keys[i]:
            kept[i] = (a, o)
            keys[i] = key
    meeting = []
    for coeffs, i in index.items():
        if coeffs and coeffs[0][1] < 0:
            j = index.get(tuple([(v, -k) for v, k in coeffs]))
            if j is not None:
                (c, strict), (c2, strict2) = keys[i], keys[j]
                total = c + c2
                if total > 0 or (total == 0 and (strict or strict2)):
                    return kept, ((min(i, j), 1), (max(i, j), 1)), meeting
                if total == 0 and all([type(k) is int for _, k in coeffs]):
                    meeting.append((j, i))
    return kept, None, meeting


def _eliminate(split, meeting) -> Sat | Unsat:
    """Decide the kept atoms ``split`` with the equalities ``meeting``, index
    pairs of their halves, substituted away as the module docstring says.

    Each equality is pivoted on the last variable of its reduced form with
    coefficient +-1, preferring one that no earlier pivot's expression
    holds, so substitutions seldom chain; one reduced to 0 = 0 is dropped.
    One left with no unit coefficient, such as 2v - 2w = 1, sends the kept
    atoms to the simplex as they are: on the small LPs of parity pairs,
    u = 2v and u = 2w + 1, finishing the substitution costs more than the
    tableau rows it saves.  A reduced atom left constant is dropped if it
    holds and refutes if it does not.  A variable that vanished and is no
    pivot is valued 0.
    """
    pivots: dict = {}  # pivot variable -> index into eqs
    # per pivot: (variable, [(variable, coefficient)] and constant of the
    # expression it equals, its coefficient's sign, the index pair of its
    # halves, its subs from _reduce)
    eqs = []
    used = set()  # the variables of the pivots' expressions
    gone = set()  # indices of the equality halves that left the LP
    for halves in meeting:
        t = split[halves[0]][0].term
        acc, const, subs = _reduce(t, pivots, eqs) or (dict(t.coeffs), t.constant, ())
        v = None  # the last unit variable, one outside used if there is one
        for u, c in acc.items():
            if (c == 1 or c == -1) and (v is None or u not in used or v in used):
                v = u
        if v is not None:
            s = acc.pop(v)
            used.update(acc)
            pivots[v] = len(eqs)
            eqs.append((v, [(w, -s * c) for w, c in acc.items()], -s * const, s, halves, subs))
        elif acc:
            return _simplex(split)
        elif const:
            continue  # its halves refute, reduced below
        gone.update(halves)
    reduced = []
    subs_of = {}
    for i, (a, _) in enumerate(split):
        if i in gone:
            continue
        red = _reduce(a.term, pivots, eqs)
        if red is None:
            reduced.append((a, i))
            continue
        acc, const, subs_of[i] = red
        if acc:
            reduced.append((LinearAtom(LinearTerm(tuple(sorted(acc.items())), const), a.rel), i))
        elif const > 0 or (const == 0 and a.rel == LT):
            return _refuted(split, [(i, 1)], eqs, subs_of)
    kept, crossing, _ = _tightest(reduced)
    if crossing is not None:
        return _refuted(split, [(kept[k][1], 1) for k, _ in crossing], eqs, subs_of)
    res = _simplex(kept)
    if isinstance(res, Unsat):
        cert = res.certificate
        return _refuted(split, [(cert.origins[k], lam) for k, lam in cert.multipliers],
                        eqs, subs_of)
    # a variable that vanished from the reduced atoms is a pivot or was
    # cancelled by one, so the expressions hold every other one
    model = dict(res.model)
    for v, expr, const, *_ in reversed(eqs):
        for w, c in expr:
            x = model.get(w)
            if x is None:
                model[w] = x = Fraction(0)
            const += c * x
        model[v] = Fraction(const)
    return Sat(model)


def _reduce(term, pivots: dict, eqs: list):
    """None when ``term`` holds no pivot, else (coefficients, constant,
    subs): ``term`` with each pivot it holds substituted in pivot order, a
    pivot's expression holding only later pivots, and subs the
    (equality index, weight) pairs with term + sum weight * E_j equal to the
    result, E_j being equality j reduced by the pivots before it."""
    todo = [pivots[v] for v, _ in term.coeffs if v in pivots]
    if not todo:
        return None
    heapify(todo)
    acc = dict(term.coeffs)
    const = term.constant
    subs = []
    while todo:
        j = heappop(todo)
        v, expr, e_const, s, _, _ = eqs[j]
        k = acc.pop(v, 0)
        if not k:
            continue  # pushed twice, or cancelled
        const += k * e_const
        for w, c in expr:
            old = acc.get(w)
            if old is None:
                acc[w] = k * c
                if w in pivots:
                    heappush(todo, pivots[w])
            elif old + k * c:
                acc[w] = old + k * c
            else:
                del acc[w]
        # E_j = s * (v - expression), so k * v = k * expression + k * s * E_j
        subs.append((j, -k * s))
    return acc, const, subs


def _refuted(split, refutation, eqs=(), subs_of=None) -> Unsat:
    """Unsat over the kept atoms ``split`` from the (split index, multiplier)
    pairs of a ``refutation``: of the kept atoms themselves, in index order,
    such as a crossing bound pair with multipliers (1, 1), or of their
    reductions by the pivots ``eqs``.  Each kept atom keeps its multiplier
    and adds its subs (``subs_of``, from :func:`_reduce`) to the signed
    multipliers of the reduced equalities; walking the pivots from the last
    to the first turns these into multipliers of the equalities as kept,
    each put on the half whose sign it has."""
    if eqs:
        mults = dict(refutation)
        nu = [0] * len(eqs)
        for i, lam in refutation:
            for j, w in subs_of.get(i, ()):
                nu[j] += lam * w
        for j in range(len(eqs) - 1, -1, -1):
            m = nu[j]
            if m:
                _, _, _, _, (pos, neg), subs = eqs[j]
                for i, w in subs:
                    nu[i] += m * w
                if m > 0:
                    mults[pos] = m
                else:
                    mults[neg] = -m
        refutation = sorted(mults.items())
    atoms = tuple([a for a, _ in split])
    cert = FarkasCertificate(
        atoms,
        tuple(refutation),
        any([atoms[i].rel == LT for i, _ in refutation]),
        tuple([o for _, o in split]),
    )
    if not cert.is_valid():
        raise SolverInternalError("certificate is not a contradiction")
    return Unsat(cert)


def _holds_all(atoms, model: dict) -> bool:
    """Whether every <=, < or = atom holds under the model, summed over ints:
    with the model scaled by its common denominator D > 0 to ints D*x, the
    sign of D*t(x) = sum c_v * (D*x_v) + D*c decides each atom."""
    den = lcm(*[q.denominator for q in model.values()])
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
# every denominator of the atom, constant included (1 for an all-int atom).
# Its row starts as (1, {var: int}) and its upper bound is the int pair
# (-D*c, -D if strict else 0), read as a + b*eps for an infinitesimal
# eps > 0; problem variables have no bounds.  A basic row is kept
# fraction-free as (d, {j: a_j}), meaning d * x_s = sum a_j * x_j with d > 0
# and gcd(d, a_j...) = 1: rows start as (1, ...), a pivot cross-multiplies
# each row that holds the entering variable and divides out the gcd, and the
# entering row is the leaving row solved for it, the same entries up to sign
# and place, so its gcd is 1 already (were it not, rows would still be
# exact, only larger).  A nonbasic variable is either a slack sitting at its
# bound (it left the basis there) or a problem variable still at 0, so
# d * x_s is the int pair sum a_j * bound_j; every row starts at (0, 0).  A pivot changes the
# value of no row but those that hold the entering variable and the
# entering variable's own, which is below its bound; the former get their
# new value from their old one and the entering row's, and are re-checked
# against the set of violated rows.  Only slacks leave the basis and only
# slack rows choose pivots, so a problem variable's row is kept as it was
# when the variable entered: it still holds for the final values, which are
# read off it only when the tableau is feasible.  Fractions are built once,
# when eps is concretised.
# ---------------------------------------------------------------------------


def _simplex(split) -> Sat | Unsat:
    pvars = sorted({v for a, _ in split for v, _ in a.term.coeffs})
    nvars = len(pvars)
    vidx = {v: i for i, v in enumerate(pvars)}
    # variable indices: 0..nvars-1 problem vars, then one slack per atom.
    # ub_a/ub_b hold each slack's upper bound and, for a problem variable,
    # its value 0 while it is nonbasic; scale holds each slack's D.  A slack
    # row is (d, {j: a_j}, p, q) with d * x_s = (p, q).
    ub_a = [0] * nvars
    ub_b = [0] * nvars
    scale = []
    rows: dict = {}
    violated = set()  # rows whose value is above their bound
    entered = {}  # basic problem variable -> its (d, row) when it entered the basis
    for s, (a, _) in enumerate(split, nvars):
        t = a.term
        k = t.constant
        if t.ints_only():
            d = 1
            rows[s] = (1, {vidx[v]: c for v, c in t.coeffs}, 0, 0)
        else:
            d = lcm(k.denominator, *[c.denominator for _, c in t.coeffs])
            rows[s] = (1, {vidx[v]: c.numerator * (d // c.denominator) for v, c in t.coeffs}, 0, 0)
            k = k.numerator * (d // k.denominator)
        ub_a.append(-k)
        ub_b.append(-d if a.rel == LT else 0)
        scale.append(d)
        if k > 0 or (k == 0 and a.rel == LT):
            violated.add(s)

    while violated:
        bad = min(violated)
        d, row, _, _ = rows[bad]
        # row[j] > 0: decreasing j decreases bad, and nothing has a lower
        # bound; row[j] < 0: j needs room to increase, which only a problem
        # variable has, since a nonbasic slack sits at its upper bound
        enter = min((j for j, a in row.items() if a > 0 or j < nvars), default=None)
        if enter is None:
            # every coefficient is negative, on a slack pinned at its upper
            # bound: d * s_bad = sum a_j * s_j is a Farkas contradiction, and
            # D_bad * d and -a_j * D_j are its multipliers on the atoms
            atoms = tuple([a for a, _ in split])
            origins = tuple([o for _, o in split])
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
        # pivot bad <-> enter: d_e * x_enter = sum erow_j * x_j, which is
        # (p_e, q_e) once bad is nonbasic at its upper bound.  Its entries
        # are bad's row's up to sign, whose gcd is 1, so it needs no reduction
        a_e = row.pop(enter)
        sign = 1 if a_e > 0 else -1
        d_e = a_e * sign
        erow = {j: -a * sign for j, a in row.items()}
        erow[bad] = d * sign
        p_e = q_e = 0
        for j, a in erow.items():
            p_e += a * ub_a[j]
            q_e += a * ub_b[j]
        del rows[bad]
        violated.discard(bad)
        a_enter, b_enter = ub_a[enter], ub_b[enter]  # the entering variable's old value
        for s, (d_s, r, p, q) in rows.items():
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
            p = d_e * (p - r_e * a_enter) + r_e * p_e
            q = d_e * (q - r_e * b_enter) + r_e * q_e
            g = gcd(d_s, *r.values())
            if g != 1:
                d_s //= g
                p //= g
                q //= g
                for j in r:
                    r[j] //= g
            rows[s] = (d_s, r, p, q)
            if (p, q) > (d_s * ub_a[s], d_s * ub_b[s]):
                violated.add(s)
            else:
                violated.discard(s)
        if enter < nvars:
            entered[enter] = (d_e, erow)
        else:
            # an entering slack had a positive coefficient in bad's row, so
            # moving bad down onto its bound moves it strictly below its own
            rows[enter] = (d_e, erow, p_e, q_e)

    # feasible: concretise eps at half the least cap (d * ub_s - a) / b over
    # the basic slacks with d * x_s = (a, b) and b > 0; a nonbasic slack
    # sits at its bound, whose eps part is not positive
    caps = [Fraction(d * ub_a[s] - p, q) for s, (d, _, p, q) in rows.items() if q > 0]
    eps = min(caps) / 2 if caps else Fraction(1)
    e_num, e_den = eps.numerator, eps.denominator
    # values as int pairs (n, m) for n / m: a problem variable's row from its
    # entry names only variables that were nonbasic then, that is slacks and
    # problem variables that entered later
    value = {}
    for x, (d, r) in reversed(entered.items()):
        tn, td = 0, 1
        for j, a in r.items():
            v = value.get(j)
            if v is None:
                # a basic slack's value, or a nonbasic variable's bound or 0
                d_j, _, p, q = rows.get(j, (1, None, ub_a[j], ub_b[j]))
                v = (p * e_den + q * e_num, d_j * e_den)
            m = lcm(td, v[1])
            tn = tn * (m // td) + a * v[0] * (m // v[1])
            td = m
        g = gcd(tn, td * d)
        value[x] = (tn // g, td * d // g)
    return Sat({v: Fraction(*value[i]) if i in value else Fraction(0)
                for i, v in enumerate(pvars)})
