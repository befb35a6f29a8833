"""Propositional clauses: termination property, renaming to Horn form.

Literals are DIMACS-style nonzero integers (sign = polarity).  A clause set
has the termination property when no infinite linear resolution sequence
exists; this is decided through the literal implication graph, which has an
edge (l, l') whenever some clause contains l' together with the complement
of l in two distinct positions.  The graph is acyclic exactly when the set
terminates, and a topological order of the literals yields a variable set A
whose complementation turns the set into recursion-free Horn clauses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .analysis import DependenceGraph
from .errors import ParseError


@dataclass(frozen=True)
class PropClause:
    """Multiset of literals; duplicate literals are significant."""

    literals: tuple  # of nonzero int

    def __post_init__(self):
        assert all(isinstance(l, int) and l != 0 for l in self.literals)

    def __iter__(self):
        return iter(self.literals)


@dataclass(frozen=True)
class PropClauseSet:
    clauses: tuple  # of PropClause
    num_vars: int  # variables 1..num_vars (isolated ones included)

    @staticmethod
    def make(clause_literals, num_vars=None) -> "PropClauseSet":
        clauses = tuple([PropClause(tuple(c)) for c in clause_literals])
        used = max((abs(l) for c in clauses for l in c), default=0)
        return PropClauseSet(clauses, max(used, num_vars or 0))


def is_horn(cs: PropClauseSet) -> bool:
    return all(sum(1 for l in c if l > 0) <= 1 for c in cs.clauses)


def literal_graph(cs: PropClauseSet) -> dict:
    """Successor sets: edge (l, l') for each clause with the complement of l
    and l' in distinct positions."""
    succ = {l: set() for v in range(1, cs.num_vars + 1) for l in (v, -v)}
    for c in cs.clauses:
        lits = c.literals
        for i, x in enumerate(lits):
            for j, y in enumerate(lits):
                if i != j:
                    succ[-x].add(y)
    return succ


@dataclass(frozen=True)
class Terminating:
    order: tuple  # all literals, a strict total order compatible with the graph

    def __bool__(self):
        return True


@dataclass(frozen=True)
class NonTerminating:
    cycle: tuple  # literals forming a cycle in the implication graph

    def __bool__(self):
        return False


def _literal_key(l: int):
    # deterministic tie-breaking: variable index first, positive before
    # negative
    return (abs(l), 0 if l > 0 else 1)


def has_termination_property(cs: PropClauseSet) -> Terminating | NonTerminating:
    succ = literal_graph(cs)
    indeg = {l: 0 for l in succ}
    for l, outs in succ.items():
        for m in outs:
            indeg[m] += 1
    ready = [(_literal_key(l), l) for l in succ if indeg[l] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, l = heapq.heappop(ready)
        order.append(l)
        for m in sorted(succ[l], key=_literal_key):
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, (_literal_key(m), m))
    if len(order) == len(succ):
        return Terminating(tuple(order))
    # extract a cycle: trim the leftover literals with no successor left
    # over (they hang off a cycle), by one reverse-Kahn pass, then walk
    # until a literal repeats
    leftover = {l for l in succ if indeg[l]}  # the literals never ready
    preds: dict = {l: [] for l in leftover}
    outdeg = dict.fromkeys(leftover, 0)
    for l in leftover:
        for m in succ[l] & leftover:
            preds[m].append(l)
            outdeg[l] += 1
    dead = [l for l in leftover if not outdeg[l]]
    while dead:
        m = dead.pop()
        leftover.discard(m)
        for l in preds[m]:
            outdeg[l] -= 1
            if not outdeg[l]:
                dead.append(l)
    path, seen = [], {}
    l = min(leftover, key=_literal_key)
    while l not in seen:
        seen[l] = len(path)
        path.append(l)
        l = min(succ[l] & leftover, key=_literal_key)
    return NonTerminating(tuple(path[seen[l]:] + [l]))


@dataclass(frozen=True)
class Renaming:
    variables: frozenset  # of positive int


def compute_renaming(cs: PropClauseSet) -> Renaming:
    """Variables whose negative literal precedes the positive one in the
    computed topological order; complementing them yields recursion-free
    Horn clauses.  Requires the termination property."""
    result = has_termination_property(cs)
    if isinstance(result, NonTerminating):
        from .errors import WrongFragment

        raise WrongFragment(
            f"clause set lacks the termination property (cycle: {result.cycle})")
    pos = {l: i for i, l in enumerate(result.order)}
    return Renaming(frozenset(v for v in range(1, cs.num_vars + 1) if pos[-v] < pos[v]))


def rename(cs: PropClauseSet, r: Renaming) -> PropClauseSet:
    """Complement every literal whose variable is in the renaming set."""
    flipped = tuple(
        PropClause(tuple([-l if abs(l) in r.variables else l for l in c]))
        for c in cs.clauses)
    return PropClauseSet(flipped, cs.num_vars)


def prop_dependence_acyclic(cs: PropClauseSet) -> bool:
    """Acyclicity of the variable dependence relation of a Horn set
    (head variable depends on each negated body variable)."""
    edges: set = set()
    for c in cs.clauses:
        heads = [l for l in c if l > 0]
        if len(heads) == 1:
            edges.update((heads[0], -l) for l in c if l < 0)
    nodes = frozenset(range(1, cs.num_vars + 1))
    return DependenceGraph(nodes, frozenset(edges)).is_acyclic()


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> PropClauseSet:
    num_vars = None
    clauses: list = []
    current: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line", lineno, 1)
            try:
                num_vars = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ParseError("non-numeric problem line", lineno, 1) from None
            continue
        for tok in line.split():
            try:
                l = int(tok)
            except ValueError:
                raise ParseError(f"unexpected token {tok!r}", lineno, 1) from None
            if l == 0:
                clauses.append(current)
                current = []
            else:
                current.append(l)
    if current:
        clauses.append(current)  # tolerate a missing final 0
    return PropClauseSet.make(clauses, num_vars)


def emit_dimacs(cs: PropClauseSet) -> str:
    lines = [f"p cnf {cs.num_vars} {len(cs.clauses)}"]
    for c in cs.clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"
