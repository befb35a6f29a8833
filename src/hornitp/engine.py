"""Satisfiability and binary Craig interpolation for linear constraints.

The rational core lives in :mod:`hornitp.lp`; this module adds integer
completeness by branching on fractional Int-sorted values, lifts cube-level
decisions to arbitrary constraints through DNF, and derives interpolants from
Farkas certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotUnsat, UnknownResult
from .lp import FarkasCertificate, Sat, Unsat, decide_rational
from .terms import (
    FALSE,
    INT,
    LE,
    LT,
    TRUE,
    Constraint,
    Cube,
    LinearTerm,
    atom,
    cand,
    cor,
    free_vars,
    to_dnf,
    weighted_sum,
)
from .terms import DEFAULT_CUBE_LIMIT, _canonical_atom

DEFAULT_BRANCH_DEPTH = 50


@dataclass(frozen=True)
class Interpolant:
    """A formula I with A |= I, I and B jointly unsatisfiable, and
    fv(I) contained in fv(A) and fv(B), for the A and B it was derived from."""

    formula: Constraint


def _fractional_int(model):
    for v in sorted(model):
        if v.sort == INT and model[v].denominator != 1:
            return v, model[v]
    return None


def _branch_cuts(v, val):
    lo = math.floor(val)
    left = _canonical_atom(LinearTerm.of(v) - lo, LE)
    right = _canonical_atom((lo + 1) - LinearTerm.of(v), LE)
    return left, right


def _decide(atoms, depth):
    """Sat with Int-integral model, Unsat (certificate None when the
    contradiction was only established by branching), or UnknownResult."""
    res = decide_rational(atoms)
    if isinstance(res, Unsat):
        return res
    frac = _fractional_int(res.model)
    if frac is None:
        return res
    if depth <= 0:
        raise UnknownResult("integer branching depth exhausted")
    left, right = _branch_cuts(*frac)
    for cut in (left, right):
        sub = _decide(atoms + [cut], depth - 1)
        if isinstance(sub, Sat):
            return sub
    return Unsat(None)


def sat_cube(c: Cube, branch_depth: int = DEFAULT_BRANCH_DEPTH) -> Sat | Unsat:
    """Decide one conjunction of atoms; Sat models give Int vars integers.

    decide_rational has checked a Sat model against every atom.  The certificate is None when unsatisfiability holds over the integers
    but not the rationals (no multiplier combination can witness it).
    """
    res = _decide(list(c.atoms), branch_depth)
    if isinstance(res, Sat):
        model = dict(res.model)
        for v in c.vars:
            model.setdefault(v, Fraction(0))
        return Sat(model)
    return res


def sat(c: Constraint, branch_depth: int = DEFAULT_BRANCH_DEPTH,
        cube_limit: int = DEFAULT_CUBE_LIMIT) -> Sat | Unsat:
    """DNF lift of sat_cube; the Unsat result carries no certificate."""
    fv = free_vars(c)
    for cube in to_dnf(c, cube_limit):
        res = sat_cube(cube, branch_depth)
        if isinstance(res, Sat):
            model = dict(res.model)
            for v in fv:
                model.setdefault(v, Fraction(0))
            return Sat(model)
    return Unsat(None)


def entails(premises, goal: Constraint, branch_depth: int = DEFAULT_BRANCH_DEPTH,
            cube_limit: int = DEFAULT_CUBE_LIMIT) -> bool:
    from .terms import cnot  # local import keeps the top-of-file list short

    body = cand(*premises, cnot(goal))
    return isinstance(sat(body, branch_depth, cube_limit), Unsat)


def _cert_interpolant(cert: FarkasCertificate, n_a: int) -> Constraint:
    """Multiplier-weighted sum of the A-side atoms of a certificate.

    Writing the certified combination as sum_A + sum_B = c, the A-side part
    s satisfies A |= (s rel 0), s = c - sum_B keeps s over shared variables,
    and (s rel 0) & B inherits the contradiction.
    """
    a_side = [(cert.atoms[i], lam) for i, lam in cert.multipliers if cert.origins[i] < n_a]
    s = weighted_sum((a.term, lam) for a, lam in a_side)
    strict = any(a.rel == LT for a, _ in a_side)
    return atom(s, LT if strict else LE)


def _interpolate_cubes(a_atoms, b_atoms, depth) -> Constraint:
    res = decide_rational(a_atoms + b_atoms)
    if isinstance(res, Unsat):
        return _cert_interpolant(res.certificate, len(a_atoms))
    frac = _fractional_int(res.model)
    if frac is None:
        raise NotUnsat(res.model)
    if depth <= 0:
        raise UnknownResult("integer branching depth exhausted during interpolation")
    v, val = frac
    left, right = _branch_cuts(v, val)
    a_vars = frozenset().union(*(a.vars for a in a_atoms)) if a_atoms else frozenset()
    if v in a_vars:
        # cut strengthens the A side: A is the union of the two branches,
        # so the branch interpolants combine with "or"
        return cor(_interpolate_cubes(a_atoms + [left], b_atoms, depth - 1),
                   _interpolate_cubes(a_atoms + [right], b_atoms, depth - 1))
    return cand(_interpolate_cubes(a_atoms, b_atoms + [left], depth - 1),
                _interpolate_cubes(a_atoms, b_atoms + [right], depth - 1))


def binary_interpolant(A: Constraint, B: Constraint,
                       branch_depth: int = DEFAULT_BRANCH_DEPTH,
                       cube_limit: int = DEFAULT_CUBE_LIMIT) -> Interpolant:
    """Craig interpolant of an unsatisfiable conjunction A and B.

    Raises NotUnsat with a witnessing model when A and B are jointly
    satisfiable, and UnknownResult when integer branching depth runs out.
    """
    cubes_a = to_dnf(A, cube_limit)
    cubes_b = to_dnf(B, cube_limit)
    if not cubes_a:
        return Interpolant(FALSE)
    if not cubes_b:
        return Interpolant(TRUE)
    shared = free_vars(A) | free_vars(B)
    disjuncts = []
    for ca in cubes_a:
        conjuncts = []
        for cb in cubes_b:
            try:
                conjuncts.append(_interpolate_cubes(list(ca.atoms), list(cb.atoms),
                                                    branch_depth))
            except NotUnsat as exc:
                model = dict(exc.model)
                for v in shared:
                    model.setdefault(v, Fraction(0))
                raise NotUnsat(model) from None
        disjuncts.append(cand(*conjuncts))
    return Interpolant(cor(*disjuncts))


def check_interpolant(A: Constraint, B: Constraint, formula: Constraint,
                      branch_depth: int = DEFAULT_BRANCH_DEPTH,
                      cube_limit: int = DEFAULT_CUBE_LIMIT) -> list:
    """Names of the violated interpolant conditions (empty = all pass)."""
    failures = []
    if not free_vars(formula) <= (free_vars(A) & free_vars(B)):
        failures.append("variable-condition")
    if not entails([A], formula, branch_depth, cube_limit):
        failures.append("left-entailment")
    if isinstance(sat(cand(formula, B), branch_depth, cube_limit), Sat):
        failures.append("right-contradiction")
    return failures
