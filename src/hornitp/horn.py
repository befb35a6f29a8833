"""Data model for constrained Horn clauses and solution verification.

A clause is ``constraint /\\ body-atoms -> head`` with the head either a
relation atom or the propositional constant false (represented as None).
A solution assigns each relation symbol a constraint over an explicit list
of formal parameters; verification instantiates every clause and checks the
universal closure with the decision engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .engine import DEFAULT_BRANCH_DEPTH, sat
from .errors import MissingSymbol, SortMismatch
from .lp import Sat
from .terms import (
    DEFAULT_CUBE_LIMIT,
    TRUE,
    Constraint,
    LinearTerm,
    Var,
    cand,
    cnot,
    free_vars,
    rename_injective,
    substitute,
)


class RelationSymbol(NamedTuple):
    name: str
    arg_sorts: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class RelationAtom:
    symbol: RelationSymbol
    args: tuple  # of LinearTerm

    def __post_init__(self):
        if len(self.args) != self.symbol.arity:
            raise SortMismatch(
                f"{self.symbol.name} expects {self.symbol.arity} arguments, got {len(self.args)}")
        for sort, t in zip(self.symbol.arg_sorts, self.args):
            if sort == "Int" and not t.all_int_sorted():
                raise SortMismatch(
                    f"Real-sorted term passed for Int argument of {self.symbol.name}")

    @property
    def vars(self) -> frozenset:
        out: frozenset = frozenset()
        for t in self.args:
            out |= t.vars
        return out

    def __repr__(self):
        return f"{self.symbol.name}({', '.join(map(repr, self.args))})"


def rel_atom(symbol: RelationSymbol, *args) -> RelationAtom:
    terms = tuple(t if isinstance(t, LinearTerm) else LinearTerm.of(t) if isinstance(t, Var)
                  else LinearTerm.const(t) for t in args)
    return RelationAtom(symbol, terms)


@dataclass(frozen=True)
class HornClause:
    constraint: Constraint
    body: tuple  # of RelationAtom
    head: Optional[RelationAtom]  # None encodes a false head

    @property
    def symbols(self) -> frozenset:
        syms = {a.symbol for a in self.body}
        if self.head is not None:
            syms.add(self.head.symbol)
        return frozenset(syms)

    @property
    def vars(self) -> frozenset:
        out = free_vars(self.constraint)
        for a in self.body:
            out |= a.vars
        if self.head is not None:
            out |= self.head.vars
        return out

    def __repr__(self):
        head = repr(self.head) if self.head is not None else "false"
        parts = [repr(self.constraint)] + [repr(a) for a in self.body]
        return f"{head} <- {' & '.join(parts)}"


def clause(constraint: Constraint = TRUE, body=(), head: Optional[RelationAtom] = None
           ) -> HornClause:
    return HornClause(constraint, tuple(body), head)


@dataclass(frozen=True)
class ClauseSet:
    relations: frozenset  # of RelationSymbol
    clauses: tuple  # of HornClause

    @staticmethod
    def make(clauses, relations=()) -> "ClauseSet":
        clauses = tuple(clauses)
        syms = set(relations)
        for h in clauses:
            syms |= h.symbols
        return ClauseSet(frozenset(syms), clauses)

    def __len__(self):
        return len(self.clauses)


@dataclass(frozen=True)
class Solution:
    """Per symbol: (formal parameter list, defining constraint over them)."""

    assignment: dict = field(default_factory=dict)

    def __post_init__(self):
        for sym, (params, body) in self.assignment.items():
            if len(params) != sym.arity:
                raise SortMismatch(f"solution for {sym.name} has wrong parameter count")
            if not free_vars(body) <= frozenset(params):
                raise SortMismatch(
                    f"solution body for {sym.name} uses variables outside its parameters")

    def applied(self, a: RelationAtom) -> Constraint:
        """The body with each parameter replaced by its argument: renamed
        when the arguments are distinct variables of the parameters' sorts,
        substituted otherwise."""
        if a.symbol not in self.assignment:
            raise MissingSymbol(a.symbol)
        params, body = self.assignment[a.symbol]
        ren = {}
        for p, t in zip(params, a.args):
            if t.constant != 0 or len(t.coeffs) != 1 or t.coeffs[0][1] != 1:
                break
            v = t.coeffs[0][0]
            if v.sort != p.sort:
                break
            ren[p] = v
        else:
            if not ren:
                return body
            if len(set(ren.values())) == len(ren):
                return rename_injective(body, ren)
        return substitute(body, {p: t for p, t in zip(params, a.args)})

    def symbols(self):
        return self.assignment.keys()


@dataclass(frozen=True)
class Valid:
    def __bool__(self):
        return True


@dataclass(frozen=True)
class Invalid:
    clause: HornClause
    model: dict

    def __bool__(self):
        return False


def verify_solution(sol: Solution, hc: ClauseSet,
                    branch_depth: int = DEFAULT_BRANCH_DEPTH,
                    cube_limit: int = DEFAULT_CUBE_LIMIT) -> Valid | Invalid:
    """Check every clause's universal closure; report the first failure."""
    for h in hc.clauses:
        body = cand(h.constraint, *[sol.applied(a) for a in h.body])
        if h.head is not None:
            body = cand(body, cnot(sol.applied(h.head)))
        res = sat(body, branch_depth, cube_limit)
        if isinstance(res, Sat):
            return Invalid(h, res.model)
    return Valid()
