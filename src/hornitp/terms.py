"""Linear-arithmetic formula core.

Variables are Int- or Real-sorted, terms are exact rational linear
combinations, and constraints are and/or trees over atoms of the shape
``term rel 0``, in negation normal form from the moment they are built:
:func:`cnot` negates each atom and swaps and/or.  Every coefficient and
constant is a Python ``int`` when it is integral and a
:class:`fractions.Fraction` with denominator > 1 otherwise; canonical atoms
have coprime int coefficients, so most term arithmetic is plain int
arithmetic.  Nothing in this package touches floating point.

:class:`Var`, :class:`LinearTerm` and :class:`LinearAtom` are immutable
``NamedTuple`` values: hashing, equality and ordering are the tuple's own,
so ``hash(Var(n, s)) == hash((n, s))``.  ``+``, ``-`` and ``*`` on a
LinearTerm are term arithmetic, never tuple concatenation or repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import CubeLimitExceeded, SortMismatch

INT = "Int"
REAL = "Real"

DEFAULT_CUBE_LIMIT = 10_000


def _rat(x):
    """x as an int when integral, else as a Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Var(NamedTuple):
    name: str
    sort: str = INT

    def __repr__(self):
        return self.name if self.sort == INT else f"{self.name}:{self.sort}"


class LinearTerm(NamedTuple):
    """coeffs * vars + constant, with no zero coefficients stored."""

    coeffs: tuple  # sorted tuple of (Var, nonzero int or Fraction)
    constant: object  # int, or Fraction with denominator > 1

    @staticmethod
    def make(coeffs: Mapping[Var, Fraction] | Iterable = (), constant=0) -> "LinearTerm":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict = {}
        for v, c in items:
            acc[v] = acc.get(v, 0) + _rat(c)
        return LinearTerm(_clean(acc), _rat(constant))

    @staticmethod
    def of(v: Var) -> "LinearTerm":
        return LinearTerm(((v, 1),), 0)

    @staticmethod
    def const(x) -> "LinearTerm":
        return LinearTerm((), _rat(x))

    @property
    def vars(self) -> frozenset:
        return frozenset(v for v, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def all_int_sorted(self) -> bool:
        return all(v.sort == INT for v, _ in self.coeffs)

    def ints_only(self) -> bool:
        """Whether every coefficient and the constant is an int."""
        return type(self.constant) is int and all([type(c) is int for _, c in self.coeffs])

    def scale(self, k) -> "LinearTerm":
        k = _rat(k)
        if k == 0:
            return LinearTerm((), 0)
        return LinearTerm(tuple([(v, _rat(c * k)) for v, c in self.coeffs]),
                          _rat(self.constant * k))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinearTerm.const(other)
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) + c
        return LinearTerm(_clean(acc), _rat(self.constant + other.constant))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        # negation keeps every int an int and every proper Fraction proper
        return LinearTerm(tuple([(v, -c) for v, c in self.coeffs]), -self.constant)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinearTerm.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, k):
        return self.scale(k)

    __rmul__ = __mul__

    def evaluate(self, model: Mapping[Var, Fraction]) -> Fraction:
        total = self.constant
        for v, c in self.coeffs:
            total += c * model[v]
        return total

    def substituted(self, sigma: Mapping[Var, "LinearTerm"]) -> "LinearTerm":
        pairs = [(LinearTerm((), self.constant), 1)]
        for v, c in self.coeffs:
            repl = sigma.get(v)
            if repl is None:
                repl = LinearTerm.of(v)
            elif v.sort == INT and any(w.sort != INT for w, _ in repl.coeffs):
                raise SortMismatch(f"cannot substitute Real-sorted term for Int variable {v.name}")
            pairs.append((repl, c))
        return weighted_sum(pairs)

    def renamed(self, ren: Mapping[Var, Var], positive_lead: bool = False) -> "LinearTerm":
        """self with every variable v replaced by ``ren[v]``, where ``ren``
        maps each of them injectively; with ``positive_lead``, negated when
        the leading coefficient turns negative."""
        coeffs = sorted([(ren[v], c) for v, c in self.coeffs])
        if positive_lead and coeffs[0][1] < 0:
            return LinearTerm(tuple([(v, -c) for v, c in coeffs]), -self.constant)
        return LinearTerm(tuple(coeffs), self.constant)

    def __repr__(self):
        if not self.coeffs:
            return str(self.constant)
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(v.name)
            elif c == -1:
                parts.append(f"-{v.name}")
            else:
                parts.append(f"{c}*{v.name}")
        s = " + ".join(parts).replace("+ -", "- ")
        if self.constant != 0:
            s += f" + {self.constant}" if self.constant > 0 else f" - {-self.constant}"
        return s


def _clean(acc: dict) -> tuple:
    """The sorted nonzero (Var, coefficient) pairs of acc, each normalised:
    a sum of Fractions may be integral."""
    return tuple(sorted((v, c if type(c) is int else _rat(c)) for v, c in acc.items() if c))


def weighted_sum(pairs) -> LinearTerm:
    """sum of k * t over (LinearTerm t, k) pairs, built in one pass."""
    acc: dict = {}
    const = 0
    for t, k in pairs:
        const += t.constant * k
        for v, c in t.coeffs:
            acc[v] = acc.get(v, 0) + c * k
    return LinearTerm(_clean(acc), _rat(const))


LE = "<="
LT = "<"
EQ = "="
NE = "!="

_NEGATED = {LE: LT, LT: LE, EQ: NE, NE: EQ}


class LinearAtom(NamedTuple):
    """Canonical atom ``term rel 0`` with at least one variable.

    Canonicalisation scales variable coefficients to coprime integers, gives
    = and != atoms a positive leading coefficient, and tightens all-Int
    inequalities to integral bounds (turning strict ones into non-strict).
    Ground atoms never survive construction; use :func:`atom` which folds
    them to TRUE/FALSE.
    """

    term: LinearTerm
    rel: str

    @property
    def vars(self):
        return self.term.vars

    def negated(self) -> "LinearAtom | bool":
        """The canonical atom of ``not self``.  With int coefficients and an
        int constant it is built directly: = and != swap, t < 0 becomes
        -t <= 0 and t <= 0 becomes -t < 0."""
        t, rel = self.term, self.rel
        if t.ints_only():
            if rel == EQ or rel == NE:
                return LinearAtom(t, NE if rel == EQ else EQ)
            return LinearAtom(-t, LE) if rel == LT else _int_lt(-t)
        return _canonical_atom(-t if rel == LE or rel == LT else t, _NEGATED[rel])

    def holds(self, model) -> bool:
        val = self.term.evaluate(model)
        if self.rel == LE:
            return val <= 0
        if self.rel == LT:
            return val < 0
        if self.rel == EQ:
            return val == 0
        return val != 0

    def __repr__(self):
        return f"({self.term} {self.rel} 0)"


def _int_lt(t: LinearTerm) -> LinearAtom:
    """The canonical atom t < 0, for t with coprime int coefficients and an
    int constant: t + 1 <= 0 when every variable is Int-sorted."""
    if t.all_int_sorted():
        return LinearAtom(LinearTerm(t.coeffs, t.constant + 1), LE)
    return LinearAtom(t, LT)


def _canonical_atom(term: LinearTerm, rel: str):
    """Return a canonical LinearAtom, or True/False for ground atoms."""
    if term.is_constant():
        c = term.constant
        return {LE: c <= 0, LT: c < 0, EQ: c == 0, NE: c != 0}[rel]
    # scaling by lcm(denominators) / gcd(numerators) gives coprime ints
    den, g = 1, 0
    for _, c in term.coeffs:
        den = math.lcm(den, c.denominator)
        g = math.gcd(g, c.numerator)
    if rel in (EQ, NE) and term.coeffs[0][1] < 0:
        g = -g
    if den != 1 or g != 1:
        k = term.constant * den
        term = LinearTerm(
            tuple([(v, c.numerator * (den // c.denominator) // g) for v, c in term.coeffs]),
            k // g if type(k) is int and k % g == 0 else _rat(Fraction(k, g)))
    if term.all_int_sorted():
        c = term.constant
        if rel == LE:
            term = LinearTerm(term.coeffs, math.ceil(c))
        elif rel == LT:
            term = LinearTerm(term.coeffs, math.floor(c) + 1)
            rel = LE
        elif type(c) is not int:
            return rel == NE  # no integer solutions: = is false, != is true
    return LinearAtom(term, rel)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class Constraint:
    __slots__ = ()

    def __repr__(self):
        return render(self, repr)


class _CTrue(Constraint):
    __slots__ = ()


class _CFalse(Constraint):
    __slots__ = ()


TRUE = _CTrue()
FALSE = _CFalse()


@dataclass(frozen=True, repr=False)
class CAtom(Constraint):
    atom: LinearAtom


# CAnd and COr hash their field at construction, with the value the
# generated __hash__ would give; the children's hashes are stored already,
# so hashing a deep nesting is not recursive.
@dataclass(frozen=True, repr=False)
class CAnd(Constraint):
    args: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.args,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, repr=False)
class COr(Constraint):
    args: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.args,)))

    def __hash__(self):
        return self._hash


def render(c: Constraint, atom_str) -> str:
    """c as ``true``, ``false``, ``(and ...)`` and ``(or ...)`` around
    ``atom_str(atom)`` for each atom.  Iterative, so the nesting depth
    is not limited by the recursion limit."""
    out = []
    stack: list = [c]
    while stack:
        c = stack.pop()
        if type(c) is str:
            out.append(c)
        elif c is TRUE or c is FALSE:
            out.append("true" if c is TRUE else "false")
        elif isinstance(c, CAtom):
            out.append(atom_str(c.atom))
        else:
            out.append("(and " if isinstance(c, CAnd) else "(or ")
            stack.append(")")
            for i, a in enumerate(reversed(c.args)):
                if i:
                    stack.append(" ")
                stack.append(a)
    return "".join(out)


def atom(term: LinearTerm, rel: str) -> Constraint:
    a = _canonical_atom(term, rel)
    if a is True:
        return TRUE
    if a is False:
        return FALSE
    return CAtom(a)


def _difference(lhs, rhs) -> LinearTerm:
    """lhs - rhs, built in one pass."""
    return weighted_sum(((_as_term(lhs), 1), (_as_term(rhs), -1)))


def le(lhs, rhs=0) -> Constraint:
    return atom(_difference(lhs, rhs), LE)


def lt(lhs, rhs=0) -> Constraint:
    return atom(_difference(lhs, rhs), LT)


def ge(lhs, rhs=0) -> Constraint:
    return le(rhs, lhs)


def gt(lhs, rhs=0) -> Constraint:
    return lt(rhs, lhs)


def eq(lhs, rhs=0) -> Constraint:
    return atom(_difference(lhs, rhs), EQ)


def ne(lhs, rhs=0) -> Constraint:
    return atom(_difference(lhs, rhs), NE)


def _as_term(x) -> LinearTerm:
    if isinstance(x, LinearTerm):
        return x
    if isinstance(x, Var):
        return LinearTerm.of(x)
    if isinstance(x, (int, Fraction)):
        return LinearTerm.const(x)
    raise TypeError(f"cannot interpret {x!r} as a linear term")


def cand(*args) -> Constraint:
    flat: dict = {}  # insertion-ordered set: first occurrences in order
    for a in args:
        if a is TRUE:
            continue
        if a is FALSE:
            return FALSE
        if isinstance(a, CAnd):
            flat.update(dict.fromkeys(a.args))
        else:
            flat[a] = None
    if not flat:
        return TRUE
    if len(flat) == 1:
        return next(iter(flat))
    return CAnd(tuple(flat))


def cor(*args) -> Constraint:
    flat: dict = {}  # insertion-ordered set: first occurrences in order
    for a in args:
        if a is FALSE:
            continue
        if a is TRUE:
            return TRUE
        if isinstance(a, COr):
            flat.update(dict.fromkeys(a.args))
        else:
            flat[a] = None
    if not flat:
        return FALSE
    if len(flat) == 1:
        return next(iter(flat))
    return COr(tuple(flat))


def cnot(c: Constraint) -> Constraint:
    """The negation of c in negation normal form: each atom is negated by
    LinearAtom.negated, and and/or are swapped and rebuilt by cor and cand.
    Walks with an explicit stack, so the nesting depth is not limited."""
    # per open and/or: [arguments, index of the next one, cor or cand, the
    # negated parts]; the first frame holds c alone
    frames: list = [[(c,), 0, None, []]]
    while True:
        f = frames[-1]
        args, i, build, parts = f
        while i < len(args):
            a = args[i]
            i += 1
            if type(a) is CAtom:
                na = a.atom.negated()
                parts.append(TRUE if na is True else FALSE if na is False else CAtom(na))
            elif a is TRUE or a is FALSE:
                parts.append(FALSE if a is TRUE else TRUE)
            else:
                f[1] = i
                frames.append([a.args, 0, cor if type(a) is CAnd else cand, []])
                break
        else:
            frames.pop()
            if not frames:
                return parts[0]
            frames[-1][3].append(build(*parts))


def free_vars(c: Constraint) -> frozenset:
    if type(c) is CAtom:
        return c.atom.vars
    out: set = set()
    stack = [c]  # explicit, so the nesting depth is not limited
    while stack:
        c = stack.pop()
        if type(c) is CAtom:
            out.update([v for v, _ in c.atom.term.coeffs])
        elif c is not TRUE and c is not FALSE:
            stack += c.args
    return frozenset(out)


def substitute(c: Constraint, sigma: Mapping[Var, LinearTerm]) -> Constraint:
    """Simultaneous substitution of terms for variables, rebuilt by atom,
    cand and cor, so it simplifies as it goes, by a walk with an
    explicit stack."""
    if not sigma:
        return c
    done: list = []  # the substituted constraints so far
    stack: list = [c]  # constraints to substitute, and (builder, n) for the last n done
    while stack:
        c = stack.pop()
        if type(c) is tuple:
            build, n = c
            args = done[len(done) - n:]
            del done[len(done) - n:]
            done.append(build(*args))
        elif c is TRUE or c is FALSE:
            done.append(c)
        elif isinstance(c, CAtom):
            done.append(atom(c.atom.term.substituted(sigma), c.atom.rel))
        else:
            stack.append((cand if isinstance(c, CAnd) else cor, len(c.args)))
            stack += reversed(c.args)
    return done[0]


def rename_injective(c: Constraint, ren: Mapping[Var, Var]) -> Constraint:
    """c with every variable v replaced by ``ren[v]``.

    ``ren`` must map every variable of c, injectively and each onto a
    variable of its own sort, and c must be built by cand, cor and cnot.
    Such a renaming keeps each canonical atom canonical up to the order of
    its coefficients and, for = and !=, the sign of the leading one, so
    atoms are re-sorted and flipped, not canonicalised again, and no
    and/or simplifies: this gives what ``substitute`` gives for such a
    renaming, by a walk with an explicit stack."""
    done: list = []  # the renamed constraints so far
    stack: list = [c]  # constraints to rename, and (class, n) for the last n done
    while stack:
        c = stack.pop()
        if type(c) is tuple:
            cls, n = c
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(cls(args))
        elif type(c) is CAtom:
            a = c.atom
            done.append(CAtom(LinearAtom(a.term.renamed(ren, a.rel == EQ or a.rel == NE), a.rel)))
        elif c is TRUE or c is FALSE:
            done.append(c)
        else:
            stack.append((type(c), len(c.args)))
            stack += reversed(c.args)
    return done[0]


def evaluate(c: Constraint, model: Mapping[Var, Fraction]) -> bool:
    """Whether c holds under the model.  An and/or reads its arguments in
    order up to the first false/true one, as all() and any() would, by a
    walk with an explicit stack, so the nesting depth is not limited."""
    frames: list = []  # (remaining arguments, deciding value) per and/or
    while True:
        if type(c) is CAtom:
            value = c.atom.holds(model)
        elif c is TRUE or c is FALSE:
            value = c is TRUE
        else:
            decides = type(c) is not CAnd
            rest = iter(c.args)
            c = next(rest, None)
            if c is not None:
                frames.append((rest, decides))
                continue
            value = not decides  # all(()) and any(())
        while frames:
            rest, decides = frames[-1]
            if value != decides:
                c = next(rest, None)
                if c is not None:
                    break
            frames.pop()
        else:
            return value


# ---------------------------------------------------------------------------
# DNF conversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cube:
    """Conjunction of atoms with rel in {<=, <, =}; DNF output has no =."""

    atoms: tuple

    @property
    def vars(self):
        out: frozenset = frozenset()
        for a in self.atoms:
            out |= a.vars
        return out

    def __len__(self):
        return len(self.atoms)


def _atom_cubes(a: LinearAtom) -> list:
    """Atom as a list of alternative atom-lists (the != split happens here).
    The halves t <= 0 and -t <= 0 of t = 0, and t < 0 and -t < 0 of t != 0,
    are built directly when t has int coefficients and an int constant."""
    rel = a.rel
    if rel == LE or rel == LT:
        return [[a]]
    t = a.term
    if not t.ints_only():
        half = LT if rel == NE else LE
        lo, hi = _canonical_atom(t, half), _canonical_atom(-t, half)
    elif rel == EQ:
        lo, hi = LinearAtom(t, LE), LinearAtom(-t, LE)
    else:
        lo, hi = _int_lt(t), _int_lt(-t)
    if rel == NE:
        return [[]] if lo is True or hi is True else [[h] for h in (lo, hi) if h is not False]
    return [] if lo is False or hi is False else [[h for h in (lo, hi) if h is not True]]


def to_dnf(c: Constraint, limit: int = DEFAULT_CUBE_LIMIT) -> list:
    """Equivalent disjunction of cubes (over the Int/Real structure).

    c, in negation normal form as every constraint is, is expanded by a walk
    with an explicit stack: an or concatenates its arguments' cube lists, an
    and multiplies them out one argument at a time.  Raises
    CubeLimitExceeded once more than ``limit`` cubes would be built.
    """
    frames: list = []  # [and?, arguments, index of the next one, cube lists so far]
    while True:
        if type(c) is CAtom:
            cubes = _atom_cubes(c.atom)
        elif c is TRUE or c is FALSE or not c.args:  # an empty and is true, an empty or false
            cubes = [[]] if c is TRUE or type(c) is CAnd else []
        else:
            is_and = type(c) is CAnd
            frames.append([is_and, c.args, 1, [[]] if is_and else []])
            c = c.args[0]
            continue
        while frames:
            f = frames[-1]
            acc = f[3]
            if f[0]:
                if len(acc) * len(cubes) > limit:
                    raise CubeLimitExceeded(limit)
                acc = f[3] = [x + y for x in acc for y in cubes]
            else:
                acc.extend(cubes)
                if len(acc) > limit:
                    raise CubeLimitExceeded(limit)
            if f[2] < len(f[1]):
                c = f[1][f[2]]
                f[2] += 1
                break
            frames.pop()
            cubes = acc
        else:
            return [Cube(tuple(dict.fromkeys(raw))) for raw in cubes]
