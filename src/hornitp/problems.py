"""Interpolation problem shapes and mechanical property checkers.

Three problem kinds are supported: unsatisfiable conjunction sequences
(solved by inductive interpolant sequences), labeled trees (tree
interpolants), and edge/node-labeled DAGs with entry and exit (restricted
DAG interpolants).  Each comes with a checker that validates a candidate
labeling against the defining conditions using the decision engine; the
checkers are the authority every solver result must pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .engine import entails, sat
from .errors import MalformedProblem
from .lp import Sat
from .terms import FALSE, TRUE, Constraint, cand, free_vars


def _require(ok: bool, message: str):
    if not ok:
        raise MalformedProblem(message)


@dataclass(frozen=True)
class SequenceProblem:
    """Conjunction T1 and ... and Tn expected to be unsatisfiable."""

    parts: tuple  # of Constraint, n >= 1

    def __post_init__(self):
        _require(len(self.parts) >= 1, "a sequence problem needs at least one part")


def check_sequence(sp: SequenceProblem, labels) -> list:
    """Violations of the inductive-sequence conditions (empty = valid).

    ``labels`` is I0..In with n = len(parts); requires I0 = true, In = false,
    each step entailment, and the prefix/suffix shared-variable condition.
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
        prefix = frozenset().union(*(free_vars(t) for t in sp.parts[:i]))
        suffix = frozenset().union(*(free_vars(t) for t in sp.parts[i:]), frozenset())
        if not free_vars(labels[i]) <= (prefix & suffix if i < n else prefix):
            failures.append(f"variable-condition-{i}")
    return failures


@dataclass(frozen=True)
class TreeProblem:
    """Directed tree with constraint-labeled nodes; edges point to children."""

    nodes: tuple
    edges: frozenset  # of (parent, child)
    labels: dict  # node -> Constraint
    root: object

    def __post_init__(self):
        parents: dict = {}
        for p, c in self.edges:
            _require(c not in parents, f"node {c!r} has two parents")
            parents[c] = p
        _require(self.root in self.nodes, f"root {self.root!r} is not a node")
        _require(self.root not in parents, f"root {self.root!r} has a parent")
        _require(all(v in self.labels for v in self.nodes), "a node has no label")
        _require(all(v == self.root or v in parents for v in self.nodes),
                 "a node other than the root has no parent")

    def children(self, v) -> list:
        return sorted((c for p, c in self.edges if p == v), key=str)

    def subtree(self, v) -> frozenset:
        """Nodes reachable from v including v (the reflexive-transitive
        closure of the child relation)."""
        out = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self.children(u):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return frozenset(out)

    def child_map(self) -> dict:
        """Every node's children, in the order of :meth:`children`."""
        kids: dict = {v: [] for v in self.nodes}
        for p, c in self.edges:
            kids[p].append(c)
        for cs in kids.values():
            cs.sort(key=str)
        return kids

    def post_order(self) -> list:
        """Children strictly before parents (an inverse topological order):
        each child's subtree in :meth:`children` order, then the node."""
        kids = self.child_map()
        out = []
        stack = [(self.root, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                out.append(v)
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in reversed(kids[v]))
        return out


def check_tree(tp: TreeProblem, labels: dict) -> list:
    """Violations of the tree-interpolant conditions (empty = valid)."""
    failures = []
    if isinstance(sat(labels[tp.root]), Sat):
        failures.append("root-label-not-false")
    kids = tp.child_map()
    order = tp.post_order()
    pos = {v: i for i, v in enumerate(order)}
    first = {}  # subtree(v) is order[first[v]..pos[v]]
    occurs: dict = {}  # variable -> ascending post-order positions of its nodes
    for i, v in enumerate(order):
        first[v] = first[kids[v][0]] if kids[v] else i
        for x in free_vars(tp.labels[v]):
            occurs.setdefault(x, []).append(i)
    for v in tp.nodes:
        premises = [tp.labels[v]] + [labels[c] for c in kids[v]]
        if not entails(premises, labels[v]):
            failures.append(f"node-entailment-{v}")
        lo, hi = first[v], pos[v]
        for x in free_vars(labels[v]):
            at = occurs.get(x, [])
            k = bisect_left(at, lo)
            below = k < len(at) and at[k] <= hi
            above = bool(at) and (at[0] < lo or at[-1] > hi)
            if not (below and above):
                failures.append(f"variable-condition-{v}")
                break
    return failures


@dataclass(frozen=True)
class DagProblem:
    """DAG with entry/exit nodes and edge/node constraint labels in which
    every node but the entry and the exit touches an edge.  It need not be
    connected: a clause component without facts or queries leaves the entry
    and the exit apart from the rest.

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
        _require(not any(v == self.entry for _, v in self.edges), "the entry has an incoming edge")
        _require(not any(u == self.exit for u, _ in self.edges), "the exit has an outgoing edge")
        touched = {self.entry, self.exit}.union(*self.edges)
        for v in self.nodes:
            if v not in touched:
                raise MalformedProblem(f"node {v!r} touches no edge", v)

    def incoming(self, v) -> list:
        return [e for e in self.edges if e[1] == v]

    def outgoing(self, v) -> list:
        return [e for e in self.edges if e[0] == v]

    def allowed_vars(self, v) -> frozenset:
        if self.allowed is not None:
            return self.allowed[v]
        inc = frozenset().union(
            *(free_vars(self.edge_labels[e]) for e in self.incoming(v)), frozenset())
        out = frozenset().union(
            *(free_vars(self.edge_labels[e]) for e in self.outgoing(v)), frozenset())
        return inc & out

    def topological_order(self) -> list:
        indeg = {v: 0 for v in self.nodes}
        for _, v in self.edges:
            indeg[v] += 1
        order = []
        ready = sorted((v for v in self.nodes if indeg[v] == 0), key=str)
        while ready:
            v = ready.pop(0)
            order.append(v)
            for _, w in self.outgoing(v):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort(key=str)
        _require(len(order) == len(self.nodes), "the edge relation has a cycle")
        return order


def check_dag(dp: DagProblem, labels: dict) -> list:
    """Violations of the restricted-DAG-interpolant conditions."""
    failures = []
    if not entails([], labels[dp.entry]):
        failures.append("entry-label-not-true")
    if isinstance(sat(labels[dp.exit]), Sat):
        failures.append("exit-label-not-false")
    for (u, v) in dp.edges:
        premises = [labels[u], dp.node_labels[u], dp.edge_labels[(u, v)]]
        if not entails(premises, cand(labels[v], dp.node_labels[v])):
            failures.append(f"edge-entailment-{u}->{v}")
    for v in dp.nodes:
        if not free_vars(labels[v]) <= dp.allowed_vars(v):
            failures.append(f"variable-condition-{v}")
    return failures
