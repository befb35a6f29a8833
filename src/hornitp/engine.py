"""Satisfiability and Craig interpolation for linear constraints.

The rational core lives in :mod:`hornitp.lp`; this module adds integer
completeness by branching on fractional Int-sorted values, lifts cube-level
decisions to arbitrary constraints through DNF, and labels trees from Farkas
certificates (label_tree); a binary interpolant is the two-node tree's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import CubeLimitExceeded, NotUnsat, SolverInternalError, UnknownResult
from .lp import Sat, Unsat, decide_rational
from .terms import (
    FALSE,
    INT,
    LE,
    LT,
    TRUE,
    CAtom,
    Constraint,
    Cube,
    LinearTerm,
    atom,
    cand,
    cnot,
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
    contradiction was only established by branching), or UnknownResult.
    Of the two cuts, the one whose side holds the LP value rounded to the
    nearest integer (down at one half) is tried first."""
    res = decide_rational(atoms)
    if isinstance(res, Unsat):
        return res
    frac = _fractional_int(res.model)
    if frac is None:
        return res
    if depth <= 0:
        raise UnknownResult("integer branching depth exhausted (--branch-depth)")
    cuts = _branch_cuts(*frac)
    if 2 * (frac[1] - math.floor(frac[1])) > 1:
        cuts = cuts[::-1]
    for cut in cuts:
        sub = _decide(atoms + [cut], depth - 1)
        if isinstance(sub, Sat):
            return sub
    return Unsat(None)


def sat_cube(c: Cube, branch_depth: int = DEFAULT_BRANCH_DEPTH) -> Sat | Unsat:
    """Decide one conjunction of atoms; Sat models give Int vars integers.

    decide_rational has checked a Sat model against every atom, and values
    every variable of the atoms it was given, so the model names exactly
    the cube's variables.  The certificate is None when unsatisfiability
    holds over the integers but not the rationals (no multiplier
    combination can witness it).
    """
    return _decide(list(c.atoms), branch_depth)


def sat(c: Constraint, branch_depth: int = DEFAULT_BRANCH_DEPTH,
        cube_limit: int = DEFAULT_CUBE_LIMIT) -> Sat | Unsat:
    """DNF lift of sat_cube; the Unsat result carries no certificate."""
    for cube in to_dnf(c, cube_limit):
        res = sat_cube(cube, branch_depth)
        if isinstance(res, Sat):
            model = dict(res.model)
            for v in free_vars(c):
                model.setdefault(v, Fraction(0))
            return Sat(model)
    return Unsat(None)


def entails(premises, goal: Constraint, branch_depth: int = DEFAULT_BRANCH_DEPTH,
            cube_limit: int = DEFAULT_CUBE_LIMIT) -> bool:
    body = cand(*premises, cnot(goal))
    return isinstance(sat(body, branch_depth, cube_limit), Unsat)


def case_split(labels: list, keys: list) -> Constraint:
    """McMillan's case-split rule (TCS 2005) over one node's labels, one per
    choice: ``keys[j]`` fixes choice j's cases inside the node's subtree.
    The result disjoins, over the keys in first-occurrence order, the
    conjunction of their choices' labels, in order: a case made inside the
    subtree is one the node may hold in, one made outside must hold in all."""
    groups: dict = {}
    for label, key in zip(labels, keys):
        groups.setdefault(key, []).append(label)
    return cor(*[cand(*g) for g in groups.values()])


def _subtree_labels(own: list, strict: set, kids: list, check: bool) -> list:
    """Labels of one certificate from each node's (term, multiplier) pairs
    and the set of nodes with a strict atom, with ``check`` each fitted to
    its subtree's sum, the root's false included."""
    n = len(own)
    sums, below, itps = [], [], []
    for i in range(n if check else n - 1):
        pairs, below_i = own[i], i in strict
        if kids[i]:
            pairs = pairs + [(sums[c], 1) for c in kids[i]]
            below_i = below_i or any(below[c] for c in kids[i])
        sums.append(weighted_sum(pairs))
        below.append(below_i)
        itps.append(FALSE if i == n - 1 else atom(sums[i], LT if below_i else LE))
        if check and not _fits_sum(itps[i], sums[i], below_i):
            raise SolverInternalError(f"certificate label of node {i} does not fit "
                                      f"its subtree's sum {sums[i]}")
    return itps if check else itps + [FALSE]


def _fits_sum(label: Constraint, total: LinearTerm, strict: bool) -> bool:
    """Whether ``label`` may stand for ``total < 0`` (``strict``) or
    ``total <= 0``: true or false only for a constant total, on its side of
    0 (at the root, the Farkas condition), and else an atom k * total + c
    for one k > 0 and c >= 0, non-strict only where total is or c > 0.  So
    any frontier's labels, each divided by its k, and the remaining atoms
    still sum to a contradiction.  Int cross-multiplication throughout."""
    if label is TRUE or label is FALSE:
        c = total.constant.numerator
        return not total.coeffs and (label is FALSE) == (c > 0 or (c == 0 and strict))
    if not isinstance(label, CAtom):
        return False
    t, rel = label.atom
    if len(t.coeffs) != len(total.coeffs):
        return False
    # k = kn / kd = t's leading coefficient over total's, kd > 0
    s0 = total.coeffs[0][1]
    kn, kd = t.coeffs[0][1] * s0.denominator, s0.numerator
    if kd < 0:
        kn, kd = -kn, -kd
    if kn <= 0:
        return False
    for (v, a), (w, s) in zip(t.coeffs, total.coeffs):
        if v != w or a * kd * s.denominator != kn * s.numerator:
            return False
    c, d = t.constant, total.constant
    lhs, rhs = c.numerator * kd * d.denominator, kn * d.numerator * c.denominator
    return lhs >= rhs and (rel == (LT if strict else LE) or (rel == LE and lhs > rhs))


def _interpolate_cubes(nodes: list, kids: list, first: list, depth: int, check: bool) -> list:
    """Labels of one cube choice, nodes[i] being node i's cube with its cuts
    appended: one LP per call, the nested calls are branch nodes."""
    atoms, ends, own = [], [], []
    for c in nodes:
        atoms += c.atoms
        ends.append(len(atoms))
        own.append([])
    res = decide_rational(atoms)
    if isinstance(res, Unsat):
        cert = res.certificate
        cert_atoms, mults, origins = cert.atoms, cert.multipliers, cert.origins
        strict = set()
        for j, lam in mults:
            a = cert_atoms[j]
            i = bisect_right(ends, origins[j])
            own[i].append((a.term, lam))
            if a.rel == LT:
                strict.add(i)
        return _subtree_labels(own, strict, kids, check)
    frac = _fractional_int(res.model)
    if frac is None:
        raise NotUnsat(res.model)
    if depth <= 0:
        raise UnknownResult("integer branching depth exhausted during interpolation "
                            "(--branch-depth)")
    v, val = frac
    s = next(i for i, c in enumerate(nodes) if v in c.vars)
    branches = []
    for cut in _branch_cuts(v, val):
        split = list(nodes)
        split[s] = Cube(nodes[s].atoms + (cut,))
        branches.append(_interpolate_cubes(split, kids, first, depth - 1, check))
    # case_split in closed form, the cut at node s being the case: subtrees
    # holding s are the union of the two branches, the others hold in both
    return [cor(left, right) if first[w] <= s <= w else cand(left, right)
            for w, (left, right) in enumerate(zip(*branches))]


def label_tree(cubes: list, kids: list, branch_depth: int = DEFAULT_BRANCH_DEPTH,
               check: bool = False, cube_limit: int = DEFAULT_CUBE_LIMIT) -> list:
    """Tree interpolant of nodes 0..n-1 in post order (each subtree an
    interval ending at its root, n-1 the root) with DNF cubes cubes[i] and
    children kids[i], in post order too.

    Each choice of one cube per node is one rational LP; its Farkas
    certificate labels node w by the weighted sum of the certificate atoms
    of subtree(w), strict when one of them is, and the root by false.  A
    fractional Int value x = v is a case split x <= floor(v) or
    x >= floor(v) + 1 at the first node whose atoms mention x.  Branches and
    cube choices combine by one rule, case_split: node w disjoins over those
    made inside subtree(w) the conjunction over those made outside it.  A
    node without cubes refutes alone, as 1 <= 0 would.

    With ``check``, each certificate's labels, the root's false included,
    must fit their subtree sums (_fits_sum), or SolverInternalError is
    raised.  Raises NotUnsat with a model of every cube when a choice is
    satisfiable, UnknownResult when ``branch_depth`` runs out, and
    CubeLimitExceeded, before any LP, when there are more than
    ``cube_limit`` cube choices.
    """
    n = len(cubes)
    if math.prod(map(len, cubes)) > cube_limit:
        raise CubeLimitExceeded(cube_limit, "cube choices across a tree's node labels")
    if not all(cubes):
        one = [(LinearTerm.const(1), 1)]
        return _subtree_labels([[] if cs else one for cs in cubes], set(), kids, check)
    first = []  # subtree(i) is first[i]..i
    for i, cs in enumerate(kids):
        first.append(first[cs[0]] if cs else i)
    try:
        choices = [_interpolate_cubes(nodes, kids, first, branch_depth, check)
                   for nodes in product(*cubes)]
    except NotUnsat as exc:
        model = dict(exc.model)  # completed to every cube's variables
        for v in frozenset().union(*[c.vars for cs in cubes for c in cs]):
            model.setdefault(v, Fraction(0))
        raise NotUnsat(model) from None
    if len(choices) == 1:
        return choices[0]
    sigmas = list(product(*map(range, map(len, cubes))))
    multi = [i for i in range(n) if len(cubes[i]) > 1]
    labels = []
    for i in range(n - 1):
        inside = [m for m in multi if first[i] <= m <= i]
        labels.append(case_split([itps[i] for itps in choices],
                                 [tuple([sigma[m] for m in inside]) for sigma in sigmas]))
    return labels + [FALSE]


def binary_interpolant(A: Constraint, B: Constraint,
                       branch_depth: int = DEFAULT_BRANCH_DEPTH,
                       cube_limit: int = DEFAULT_CUBE_LIMIT) -> Interpolant:
    """Craig interpolant of an unsatisfiable conjunction A and B: the label
    of A on the tree with child A and root B.  ``cube_limit`` bounds each
    side's DNF and the product of their cube counts, the LPs made.

    Raises NotUnsat with a witnessing model when A and B are jointly
    satisfiable, UnknownResult when integer branching depth runs out, and
    CubeLimitExceeded before any LP when a budget is exceeded.
    """
    cubes = [to_dnf(A, cube_limit), to_dnf(B, cube_limit)]
    return Interpolant(label_tree(cubes, ([], [0]), branch_depth, cube_limit=cube_limit)[0])


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
