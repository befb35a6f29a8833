"""Reductions between interpolation problems and Horn clause fragments.

Forward direction: build clause sets whose solutions are exactly binary
interpolants, inductive interpolant sequences, tree interpolants, or
restricted DAG interpolants.  Reverse direction: read a sequence / tree /
DAG problem off a normalized clause set of the matching fragment, so the
problem's interpolants transfer back as clause solutions.
"""

from __future__ import annotations

from .analysis import (
    NormalizedClauseSet,
    classify,
    connected_components,
    merge_linear_duplicates,
)
from .errors import WrongFragment
from .horn import ClauseSet, HornClause, RelationAtom, RelationSymbol
from .problems import DagProblem, SequenceProblem, TreeProblem
from .terms import FALSE, TRUE, Constraint, LinearTerm, cand, cnot, free_vars

FALSE_NODE = "false"
ENTRY_NODE = "en"
EXIT_NODE = "ex"


def _atom_on(symbol: RelationSymbol, variables) -> RelationAtom:
    return RelationAtom(symbol, tuple([LinearTerm.of(v) for v in variables]))


def _symbol_for(name: str, variables) -> RelationSymbol:
    return RelationSymbol(name, tuple([v.sort for v in variables]))


def binary_to_horn(a: Constraint, b: Constraint) -> ClauseSet:
    """Two clauses over a fresh symbol whose solutions are exactly the
    interpolants of the pair: a -> p(shared), b and p(shared) -> false."""
    shared = sorted(free_vars(a) & free_vars(b))
    p = _symbol_for("p", shared)
    head = _atom_on(p, shared)
    return ClauseSet.make([
        HornClause(a, (), head),
        HornClause(b, (head,), None),
    ])


def sequence_to_horn(sp: SequenceProblem) -> ClauseSet:
    """Chain p0 -> ... -> pn with the i-th part on the i-th link; solutions
    are exactly the inductive interpolant sequences of the parts."""
    vectors = [sorted(xs) for xs in sp.shared]
    atoms = [_atom_on(_symbol_for(f"p{i}", vec), vec) for i, vec in enumerate(vectors)]
    clauses = [HornClause(TRUE, (), atoms[0])]
    clauses += [HornClause(t, (atoms[i],), atoms[i + 1]) for i, t in enumerate(sp.parts)]
    clauses.append(HornClause(TRUE, (atoms[-1],), None))
    return ClauseSet.make(clauses)


def _component_normalized(nhc: NormalizedClauseSet) -> list:
    comps = connected_components(nhc.clause_set)
    return [NormalizedClauseSet(c, nhc.arg_vectors) for c in comps]


def sequence_from_linear_treelike(nhc: NormalizedClauseSet) -> list:
    """One (SequenceProblem, symbol chain) per connected component.

    The symbol chain lists which relation symbol each intermediate
    interpolant defines: label i+1 of the sequence is the solution of
    chain[i].  A missing fact clause or missing false-head clause
    contributes the part ``false``.
    """
    report = classify(nhc.clause_set)
    if not (report.recursion_free and report.linear_tree_like):
        raise WrongFragment("sequence extraction needs a recursion-free linear tree-like set")
    out = []
    for comp in _component_normalized(nhc):
        by_head = {h.head.symbol: h for h in comp.clauses if h.head is not None}
        by_body = {h.body[0].symbol: h for h in comp.clauses if h.body}
        false_clauses = [h for h in comp.clauses if h.head is None]
        symbols = sorted(comp.clause_set.relations & frozenset(
            s for h in comp.clauses for s in h.symbols))
        if not symbols:
            # relation-free clause (constraint -> false): a single-part problem
            assert len(comp.clauses) == 1 and comp.clauses[0].head is None
            out.append((SequenceProblem((comp.clauses[0].constraint,)), []))
            continue
        # chain order: start at the symbol that no clause derives from another
        start = [p for p in symbols if p not in by_head or not by_head[p].body]
        assert len(start) == 1, "linear tree-like component must be a single chain"
        chain = [start[0]]
        while chain[-1] in by_body and by_body[chain[-1]].head is not None:
            chain.append(by_body[chain[-1]].head.symbol)
        assert len(chain) == len(symbols), "disconnected chain in one component"
        parts = [by_head[chain[0]].constraint if chain[0] in by_head else FALSE]
        for prev, nxt in zip(chain, chain[1:]):
            parts.append(by_head[nxt].constraint)
        last = by_body.get(chain[-1])
        parts.append(last.constraint if last is not None and last.head is None else FALSE)
        assert not false_clauses or (last is not None and last.head is None)
        out.append((SequenceProblem(tuple(parts)), chain))
    return out


def tree_problem_to_horn(tp: TreeProblem) -> ClauseSet:
    """One clause per node plus a root-to-false clause; tree-like by
    construction.  Node v's symbol is named p<i> by v's position i in
    tp.nodes, and its argument vector is given by tp.shared, the
    variables that occur both inside and outside the subtree of v."""
    number = {v: i for i, v in enumerate(tp.nodes)}
    vectors = [sorted(xs) for xs in tp.shared]
    atoms = [_atom_on(_symbol_for(f"p{number[v]}", vectors[i]), vectors[i])
             for i, v in enumerate(tp.order)]
    clauses = []
    for v in sorted(tp.nodes, key=str):
        i = tp.index[v]
        clauses.append(HornClause(tp.labels[v], tuple([atoms[c] for c in tp.kids[i]]), atoms[i]))
    clauses.append(HornClause(TRUE, (atoms[-1],), None))  # the root is last
    return ClauseSet.make(clauses)


def tree_problem_from_treelike(nhc: NormalizedClauseSet) -> list:
    """One TreeProblem per connected component containing a false-head
    clause; nodes are the relation symbols plus one root standing for false.

    Components without a false-head clause impose no constraint and are
    omitted (every symbol there can be assigned true).
    """
    report = classify(nhc.clause_set)
    if not (report.recursion_free and report.tree_like):
        raise WrongFragment("tree extraction needs a recursion-free tree-like set")
    out = []
    for comp in _component_normalized(nhc):
        false_clauses = [h for h in comp.clauses if h.head is None]
        if not false_clauses:
            continue
        assert len(false_clauses) == 1, \
            "a connected tree-like component has at most one false-head clause"
        by_head = {h.head.symbol: h for h in comp.clauses if h.head is not None}
        labels: dict = {FALSE_NODE: false_clauses[0].constraint}
        edges = set()
        nodes = [FALSE_NODE]
        stack = [(FALSE_NODE, false_clauses[0])]
        while stack:
            node, h = stack.pop()
            for b in h.body:
                q = b.symbol
                edges.add((node, q))
                nodes.append(q)
                defining = by_head.get(q)
                if defining is None:
                    labels[q] = FALSE
                else:
                    labels[q] = defining.constraint
                    stack.append((q, defining))
        assert set(nodes) - {FALSE_NODE} == set(
            comp.clause_set.relations & frozenset(
                s for h in comp.clauses for s in h.symbols)), \
            "all clauses of the component belong to the derivation tree"
        out.append(TreeProblem(tuple(nodes), frozenset(edges), labels, FALSE_NODE))
    return out


def dag_node_symbols(dp: DagProblem) -> dict:
    """Per node v of ``dp``: the relation symbol that stands for v in
    dag_problem_to_horn, named p<i> by v's position i in dp.nodes, and its
    argument vector sorted(dp.allowed_vars(v))."""
    out = {}
    for i, v in enumerate(dp.nodes):
        vector = sorted(dp.allowed_vars(v))
        out[v] = (_symbol_for(f"p{i}", vector), vector)
    return out


def dag_problem_to_horn(dp: DagProblem) -> ClauseSet:
    """Linear clauses per edge (plus a node-label guard clause when the
    target node label is nontrivial), entry fact, and exit query."""
    nodes = dag_node_symbols(dp)

    def at(v):
        return _atom_on(*nodes[v])

    clauses = [HornClause(TRUE, (), at(dp.entry))]
    for (v, w) in dp.edges:
        label = cand(dp.node_labels[v], dp.edge_labels[(v, w)])
        clauses.append(HornClause(label, (at(v),), at(w)))
        guard = cand(label, cnot(dp.node_labels[w]))
        if guard is not FALSE:
            clauses.append(HornClause(guard, (at(v),), None))
    clauses.append(HornClause(TRUE, (at(dp.exit),), None))
    return ClauseSet.make(clauses)


def dag_problem_from_linear(nhc: NormalizedClauseSet) -> list:
    """One (DagProblem, symbols) per connected component.

    Nodes are the component's relation symbols plus fresh entry/exit
    sentinels; fact clauses become entry edges, false-head clauses exit
    edges, and duplicate clauses are merged first.  The ``allowed``
    variable sets play the role of vacuous anchor equations: they grant
    each symbol node exactly its argument vector.
    """
    report = classify(nhc.clause_set)
    if not report.recursion_free or not report.linear:
        raise WrongFragment("DAG extraction needs a recursion-free linear set")
    out = []
    for comp in connected_components(nhc.clause_set):
        merged = merge_linear_duplicates(comp)
        symbols = sorted(merged.relations & frozenset(
            s for h in merged.clauses for s in h.symbols))
        nodes = [ENTRY_NODE] + symbols + [EXIT_NODE]
        edges = []
        edge_labels: dict = {}
        for h in merged.clauses:
            e = (h.body[0].symbol if h.body else ENTRY_NODE,
                 h.head.symbol if h.head is not None else EXIT_NODE)
            assert e not in edge_labels, "duplicate edges survived merging"
            edges.append(e)
            edge_labels[e] = h.constraint
        allowed = {ENTRY_NODE: frozenset(), EXIT_NODE: frozenset()}
        for p in symbols:
            allowed[p] = frozenset(nhc.arg_vectors[p])
        dp = DagProblem(tuple(nodes), tuple(edges), ENTRY_NODE, EXIT_NODE,
                        edge_labels, {v: TRUE for v in nodes}, allowed)
        out.append((dp, symbols))
    return out
