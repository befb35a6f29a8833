"""Structural analysis of clause sets.

Covers the head-to-body dependence graph and its acyclicity (recursion
freeness), fragment classification (linear / body-disjoint / head-disjoint /
tree-like), weakly-connected components, rewriting every relation atom to a
fixed argument vector per symbol, and merging of duplicate linear clauses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotLinear
from .horn import ClauseSet, HornClause, RelationAtom, RelationSymbol
from .terms import LinearTerm, Var, cand, cor, eq, rename_injective


@dataclass(frozen=True)
class DependenceGraph:
    nodes: frozenset  # of RelationSymbol, or of any other sortable node
    edges: frozenset  # of (head, body)

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self):
        """A list of nodes forming a dependence cycle, or None."""
        succ: dict = {p: [] for p in self.nodes}
        for h, q in sorted(self.edges):
            succ[h].append(q)
        state: dict = {}  # 0 visiting, 1 done
        for root in sorted(self.nodes):
            if root in state:
                continue
            # depth-first with an explicit stack: path[i] is being visited
            # and todo[i] holds its successors not yet looked at
            state[root] = 0
            path, todo = [root], [iter(succ[root])]
            while todo:
                for q in todo[-1]:
                    if q not in state:
                        state[q] = 0
                        path.append(q)
                        todo.append(iter(succ[q]))
                        break
                    if state[q] == 0:
                        return path[path.index(q):] + [q]
                else:
                    state[path.pop()] = 1
                    todo.pop()
        return None


def dependence_graph(hc: ClauseSet) -> DependenceGraph:
    edges = set()
    for h in hc.clauses:
        if h.head is not None:
            for b in h.body:
                edges.add((h.head.symbol, b.symbol))
    return DependenceGraph(hc.relations, frozenset(edges))


@dataclass(frozen=True)
class FragmentReport:
    recursion_free: bool
    linear: bool
    body_disjoint: bool
    head_disjoint: bool
    tree_like: bool
    linear_tree_like: bool

    def as_text(self) -> str:
        rows = [
            ("recursionFree", self.recursion_free),
            ("linear", self.linear),
            ("bodyDisjoint", self.body_disjoint),
            ("headDisjoint", self.head_disjoint),
            ("treeLike", self.tree_like),
            ("linearTreeLike", self.linear_tree_like),
        ]
        return "\n".join(f"{k}: {'true' if v else 'false'}" for k, v in rows)


def classify(hc: ClauseSet) -> FragmentReport:
    recursion_free = dependence_graph(hc).is_acyclic()
    linear = all(len(h.body) <= 1 for h in hc.clauses)
    body_disjoint, head_disjoint = _disjointness(hc)
    tree_like = body_disjoint and head_disjoint
    return FragmentReport(recursion_free, linear, body_disjoint, head_disjoint,
                          tree_like, linear and tree_like)


def _disjointness(hc: ClauseSet) -> tuple:
    """(body-disjoint, head-disjoint): no symbol occurs in two body atoms,
    and no symbol is the head of two clauses."""
    body_seen: set = set()
    body_disjoint = True
    for h in hc.clauses:
        for b in h.body:
            if b.symbol in body_seen:
                body_disjoint = False
            body_seen.add(b.symbol)
    heads = [h.head.symbol for h in hc.clauses if h.head is not None]
    return body_disjoint, len(set(heads)) == len(heads)


def connected_components(hc: ClauseSet) -> list:
    """Partition clauses by weak connectivity of shared relation symbols.

    Clauses without relation atoms form singleton components.
    """
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p in hc.relations:
        parent[p] = p
    symbols = [h.symbols for h in hc.clauses]
    for syms in symbols:
        for s in syms:
            union(s, next(iter(syms)))
    groups: dict = {}  # key -> (clauses, symbols)
    for idx, (h, syms) in enumerate(zip(hc.clauses, symbols)):
        key = ("clause", idx) if not syms else ("sym", find(next(iter(syms))))
        clauses, group_syms = groups.setdefault(key, ([], set()))
        clauses.append(h)
        group_syms |= syms
    return [ClauseSet(frozenset(syms), tuple(clauses)) for clauses, syms in groups.values()]


@dataclass(frozen=True)
class NormalizedClauseSet:
    clause_set: ClauseSet
    arg_vectors: dict  # RelationSymbol -> tuple of Var
    # per clause of the input set: its variables -> the normalized ones
    renamings: tuple = ()

    @property
    def clauses(self):
        return self.clause_set.clauses


def _fresh_vector(sym: RelationSymbol, suffix: str = "") -> tuple:
    return tuple(Var(f"{sym.name}#{i}{suffix}", sort)
                 for i, sort in enumerate(sym.arg_sorts))


def normalize(hc: ClauseSet) -> NormalizedClauseSet:
    """Rewrite so each relation atom is the symbol applied to its fixed
    argument vector and all other variables are distinct across clauses.

    Aliases come first: walking the head, then the body, an argument that
    is a plain variable of the slot's sort and not yet renamed is renamed
    onto the slot.  A binding equality ``slot = argument`` goes into the
    constraint only where the renamed argument is not the slot itself: a
    compound argument, a variable repeated across slots, or an Int
    variable in a Real slot.  Every other variable v of clause idx becomes
    ``v@idx``.  A symbol occurring again in one clause gets a fresh copy
    ``~idx.n`` of its vector.  The per-clause maps from original to
    normalized variables are kept as ``renamings``.

    Each clause's renaming is injective and keeps sorts, so its constraint
    is renamed by terms.rename_injective, with no atom canonicalised again,
    and each symbol's atom on its own vector is built once."""
    arg_vectors = {p: _fresh_vector(p) for p in sorted(hc.relations)}
    own = {p: RelationAtom(p, tuple([LinearTerm.of(x) for x in vec]))
           for p, vec in arg_vectors.items()}
    reserved = {v for vec in arg_vectors.values() for v in vec}
    new_clauses, renamings = [], []
    for idx, h in enumerate(hc.clauses):
        atoms = ([h.head] if h.head is not None else []) + list(h.body)
        vectors = []
        used: dict = {}  # symbol -> copies handed out in this clause
        renaming: dict = {}
        for a in atoms:
            n = used.get(a.symbol, 0)
            used[a.symbol] = n + 1
            vec = arg_vectors[a.symbol] if n == 0 else _fresh_vector(a.symbol, f"~{idx}.{n}")
            vectors.append(vec)
            for x, t in zip(vec, a.args):
                if len(t.coeffs) == 1 and t.constant == 0:
                    ((v, c),) = t.coeffs
                    if c == 1 and v.sort == x.sort and v not in renaming:
                        renaming[v] = x
        aliased = set(renaming.values())
        for v in sorted(h.vars - renaming.keys()):
            nv = Var(f"{v.name}@{idx}", v.sort)
            assert nv not in reserved
            renaming[v] = nv
        bindings = [eq(x, t.renamed(renaming)) for a, vec in zip(atoms, vectors)
                    for x, t in zip(vec, a.args) if x not in aliased]
        new_atoms = [own[a.symbol] if vec is arg_vectors[a.symbol] else
                     RelationAtom(a.symbol, tuple([LinearTerm.of(x) for x in vec]))
                     for a, vec in zip(atoms, vectors)]
        head = new_atoms.pop(0) if h.head is not None else None
        constraint = rename_injective(h.constraint, renaming)
        if bindings:
            constraint = cand(constraint, *bindings)
        new_clauses.append(HornClause(constraint, tuple(new_atoms), head))
        renamings.append(renaming)
    return NormalizedClauseSet(ClauseSet(hc.relations, tuple(new_clauses)), arg_vectors,
                               tuple(renamings))


def merge_linear_duplicates(hc: ClauseSet) -> ClauseSet:
    """Merge clauses with identical relation atoms by disjoining constraints.

    Requires a linear set whose atoms already use fixed argument vectors
    (i.e. a normalized set), so that syntactic atom equality captures
    clause-shape equality.
    """
    merged: dict = {}
    order: list = []
    for h in hc.clauses:
        if len(h.body) > 1:
            raise NotLinear("duplicate merging requires at most one body atom per clause")
        key = (h.body[0] if h.body else None, h.head)
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append(h.constraint)
    out = []
    for key in order:
        body_atom, head = key
        constraint = cor(*merged[key])
        out.append(HornClause(constraint, (body_atom,) if body_atom else (), head))
    return ClauseSet(hc.relations, tuple(out))
