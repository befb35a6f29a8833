"""Interpolation problem shapes and mechanical property checkers.

Three problem kinds are supported: unsatisfiable conjunction sequences
(solved by inductive interpolant sequences), labeled trees (tree
interpolants), and edge/node-labeled DAGs with entry and exit (restricted
DAG interpolants).  Each comes with a checker that validates a candidate
labeling against the defining conditions using the decision engine; the
checkers are the authority every solver result must pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .engine import DEFAULT_BRANCH_DEPTH, entails, sat
from .errors import MalformedProblem
from .lp import Sat
from .terms import DEFAULT_CUBE_LIMIT, cand, free_vars


def _require(ok: bool, message: str):
    if not ok:
        raise MalformedProblem(message)


@dataclass(frozen=True)
class SequenceProblem:
    """Conjunction T1 and ... and Tn expected to be unsatisfiable."""

    parts: tuple  # of Constraint, n >= 1

    def __post_init__(self):
        _require(len(self.parts) >= 1, "a sequence problem needs at least one part")

    @cached_property
    def tree(self) -> TreeProblem:
        """The path tree: node i labeled by Ti, with child i-1, and root n;
        its post order is 1..n."""
        n = len(self.parts)
        nodes = tuple(range(1, n + 1))
        edges = frozenset([(i + 1, i) for i in range(1, n)])
        return TreeProblem(nodes, edges, dict(zip(nodes, self.parts)), n)

    @cached_property
    def shared(self) -> tuple:
        """Per i in 0..n: the variables of T1..Ti that T(i+1)..Tn also have,
        which are interpolant i's variable condition and the argument vector
        of its symbol in the Horn encoding: the path tree's, after none for
        I0."""
        return (frozenset(),) + self.tree.shared


def check_sequence(sp: SequenceProblem, labels) -> list:
    """Violations of the inductive-sequence conditions (empty = valid).

    ``labels`` is I0..In with n = len(parts); requires I0 = true, In = false,
    each step entailment, and the variable condition sp.shared.
    """
    n = len(sp.parts)
    failures = []
    if len(labels) != n + 1:
        return [f"expected {n + 1} labels, got {len(labels)}"]
    if not entails([], labels[0]):
        failures.append("start-label-not-true")
    if isinstance(sat(labels[n]), Sat):
        failures.append("end-label-not-false")
    for i in range(1, n + 1):
        if not entails([labels[i - 1], sp.parts[i - 1]], labels[i]):
            failures.append(f"step-entailment-{i}")
        if not free_vars(labels[i]) <= sp.shared[i]:
            failures.append(f"variable-condition-{i}")
    return failures


@dataclass(frozen=True)
class TreeProblem:
    """Directed tree with constraint-labeled nodes; edges point to children.

    Construction checks the shape and lays the tree out once, by position
    in ``order``, a post order: each child's subtree, children in str order,
    then the node.  ``index`` maps a node to its position; per position i,
    ``kids[i]`` holds the children's positions in str order, ``first[i]``
    starts i's subtree (the interval first[i]..i) and ``parent[i]`` is the
    parent's position, len(order) for the root.
    """

    nodes: tuple
    edges: frozenset  # of (parent, child)
    labels: dict  # node -> Constraint
    root: object
    order: tuple = field(init=False, repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)
    kids: tuple = field(init=False, repr=False, compare=False)
    first: tuple = field(init=False, repr=False, compare=False)
    parent: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        children: dict = {v: [] for v in self.nodes}
        parents: dict = {}  # node -> its number of parents
        for p, c in self.edges:
            if p not in children or c not in children:
                raise MalformedProblem(f"edge {p!r} -> {c!r} names an undeclared node")
            parents[c] = parents.get(c, 0) + 1
            children[p].append(c)
        _require(self.root in children, f"root {self.root!r} is not a node")
        for v in self.nodes:  # in their order, so the first offender is named
            n = parents.get(v, 0)
            if v not in self.labels:
                raise MalformedProblem(f"node {v!r} has no label", v)
            if n and v == self.root:
                raise MalformedProblem(f"root {v!r} has a parent", v)
            if n > 1 or (not n and v != self.root):
                raise MalformedProblem(f"node {v!r} has {'two parents' if n else 'no parent'}", v)
        order = []
        stack = [(self.root, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                order.append(v)
            else:
                children[v].sort(key=str)
                stack.append((v, True))
                stack.extend((c, False) for c in reversed(children[v]))
        # every node but the root has one parent: what the walk misses is a cycle
        _require(len(order) == len(self.nodes), "edges form a cycle")
        index = {v: i for i, v in enumerate(order)}
        kids = tuple([tuple([index[c] for c in children[v]]) for v in order])
        first, parent = [], [len(order)] * len(order)
        for i, cs in enumerate(kids):
            first.append(first[cs[0]] if cs else i)
            for c in cs:
                parent[c] = i
        for name, value in (("order", tuple(order)), ("index", index), ("kids", kids),
                            ("first", tuple(first)), ("parent", tuple(parent))):
            object.__setattr__(self, name, value)

    @cached_property
    def shared(self) -> tuple:
        """Per position i: the variables that occur both inside and outside
        i's subtree, which are i's variable condition and the argument
        vector of its symbol in the Horn encoding.

        Subtrees are intervals of positions, so the positions that share a
        variable are those met walking up from each node where it occurs,
        stopping at the first subtree that holds all of its occurrences."""
        occurs: dict = {}  # variable -> ascending positions of its nodes
        for i, v in enumerate(self.order):
            for x in free_vars(self.labels[v]):
                occurs.setdefault(x, []).append(i)
        shared: list = [set() for _ in self.order]
        for x, at in occurs.items():
            lo, hi = at[0], at[-1]
            for u in at:
                while not (self.first[u] <= lo and hi <= u) and x not in shared[u]:
                    shared[u].add(x)
                    u = self.parent[u]
        return tuple([frozenset(xs) for xs in shared])


def check_tree(tp: TreeProblem, labels: dict, branch_depth: int = DEFAULT_BRANCH_DEPTH,
               cube_limit: int = DEFAULT_CUBE_LIMIT) -> list:
    """Violations of the tree-interpolant conditions (empty = valid)."""
    failures = []
    if isinstance(sat(labels[tp.root], branch_depth, cube_limit), Sat):
        failures.append("root-label-not-false")
    for v in tp.nodes:
        i = tp.index[v]
        premises = [tp.labels[v]] + [labels[tp.order[c]] for c in tp.kids[i]]
        if not entails(premises, labels[v], branch_depth, cube_limit):
            failures.append(f"node-entailment-{v}")
        if not free_vars(labels[v]) <= tp.shared[i]:
            failures.append(f"variable-condition-{v}")
    return failures


@dataclass(frozen=True)
class DagProblem:
    """DAG with entry/exit nodes and edge/node constraint labels in which
    every node but the entry and the exit touches an edge; construction
    rejects a cycle.  It need not be connected: a clause component without
    facts or queries leaves the entry and the exit apart from the rest.

    ``allowed`` optionally fixes the variables permitted in each node's
    interpolant; when absent, the incoming/outgoing edge-label variable
    intersection is used.  The explicit form exists because constraint
    simplification can erase vacuous variable-anchoring equations from edge
    labels, which would otherwise shrink the permitted sets.
    """

    nodes: tuple
    edges: tuple  # of (u, v), deterministic order
    entry: object
    exit: object
    edge_labels: dict  # (u, v) -> Constraint
    node_labels: dict  # node -> Constraint
    allowed: dict | None = None  # node -> frozenset of Var

    def __post_init__(self):
        _require(self.entry in self.nodes and self.exit in self.nodes,
                 "entry and exit must be nodes")
        ins: dict = {v: [] for v in self.nodes}
        outs: dict = {v: [] for v in self.nodes}
        for e in self.edges:
            u, v = e
            if u not in outs or v not in ins:
                raise MalformedProblem(f"edge {u!r} -> {v!r} names an undeclared node")
            outs[u].append(e)
            ins[v].append(e)
        if ins[self.entry]:
            raise MalformedProblem(f"entry {self.entry!r} has an incoming edge", self.entry)
        if outs[self.exit]:
            raise MalformedProblem(f"exit {self.exit!r} has an outgoing edge", self.exit)
        for v in self.nodes:
            if not (ins[v] or outs[v] or v in (self.entry, self.exit)):
                raise MalformedProblem(f"node {v!r} touches no edge", v)
        # Kahn's count: the nodes a cycle passes never lose all their in-edges
        indeg = {v: len(es) for v, es in ins.items()}
        ready = [v for v in self.nodes if not indeg[v]]
        for v in ready:  # grows as it is walked
            for _, w in outs[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
        _require(len(ready) == len(self.nodes), "the edge relation has a cycle")
        object.__setattr__(self, "_ins", ins)
        object.__setattr__(self, "_outs", outs)

    def incoming(self, v) -> list:
        return self._ins[v]

    def outgoing(self, v) -> list:
        return self._outs[v]

    def allowed_vars(self, v) -> frozenset:
        if self.allowed is not None:
            return self.allowed[v]
        inc = frozenset().union(*[free_vars(self.edge_labels[e]) for e in self._ins[v]])
        out = frozenset().union(*[free_vars(self.edge_labels[e]) for e in self._outs[v]])
        return inc & out


def check_dag(dp: DagProblem, labels: dict, branch_depth: int = DEFAULT_BRANCH_DEPTH,
              cube_limit: int = DEFAULT_CUBE_LIMIT) -> list:
    """Violations of the restricted-DAG-interpolant conditions."""
    failures = []
    if not entails([], labels[dp.entry], branch_depth, cube_limit):
        failures.append("entry-label-not-true")
    if isinstance(sat(labels[dp.exit], branch_depth, cube_limit), Sat):
        failures.append("exit-label-not-false")
    for (u, v) in dp.edges:
        premises = [labels[u], dp.node_labels[u], dp.edge_labels[(u, v)]]
        if not entails(premises, cand(labels[v], dp.node_labels[v]), branch_depth, cube_limit):
            failures.append(f"edge-entailment-{u}->{v}")
    for v in dp.nodes:
        if not free_vars(labels[v]) <= dp.allowed_vars(v):
            failures.append(f"variable-condition-{v}")
    return failures
