"""End-to-end solving of recursion-free Horn clause sets.

Pipeline: classify each weakly-connected component, reduce it to the
matching interpolation problem (sequence, tree, or DAG), interpolate, map
labels back to relation-symbol solutions, and verify.  Body-disjoint sets
with shared heads are solved by enumerating derivation cones (one defining
clause per shared head) and combining the per-cone tree interpolants into a
positive Boolean combination; general recursion-free sets are first made
body-disjoint by duplicating derivation cones.  Unsolvable sets produce a
concrete derivation of false together with a satisfying model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import (
    NormalizedClauseSet,
    classify,
    connected_components,
    dependence_graph,
    normalize,
)
from .encodings import (
    FALSE_NODE,
    dag_problem_from_linear,
    sequence_from_linear_treelike,
    tree_problem_from_treelike,
)
from .engine import DEFAULT_BRANCH_DEPTH, binary_interpolant, sat
from .errors import (
    ExpansionLimitExceeded,
    NotUnsat,
    PathLimitExceeded,
    RecursiveSystem,
    SolverInternalError,
    SubsetLimitExceeded,
)
from .horn import (
    ClauseSet,
    HornClause,
    RelationAtom,
    RelationSymbol,
    Solution,
    Valid,
    verify_solution,
)
from .lp import Sat, Unsat
from .problems import DagProblem, SequenceProblem, TreeProblem, check_dag, check_tree
from .terms import (
    DEFAULT_CUBE_LIMIT,
    FALSE,
    TRUE,
    Constraint,
    LinearTerm,
    Var,
    cand,
    cnot,
    cor,
    eq,
    rename_vars,
)

DEFAULT_EXPANSION_LIMIT = 100_000
DEFAULT_SUBSET_LIMIT = 4096
DEFAULT_PATH_LIMIT = 10_000

# When set to a list by tests or diagnostics consumers, every tree
# interpolation performed by this module appends a record with the problem,
# the labeling, and the outcome of the step-invariant and property checks.
tree_log: Optional[list] = None


@dataclass
class SolverOptions:
    branch_depth: int = DEFAULT_BRANCH_DEPTH
    cube_limit: int = DEFAULT_CUBE_LIMIT
    expansion_limit: int = DEFAULT_EXPANSION_LIMIT
    subset_limit: int = DEFAULT_SUBSET_LIMIT
    path_limit: int = DEFAULT_PATH_LIMIT
    jobs: int = 1  # worker threads for independent connected components
    # binary interpolation entry point; replaced when an external backend
    # is configured
    interpolate: Callable = None  # (A, B, branch_depth, cube_limit) -> Interpolant

    def itp(self, a: Constraint, b: Constraint) -> Constraint:
        fn = self.interpolate or binary_interpolant
        return fn(a, b, self.branch_depth, self.cube_limit).formula


@dataclass(frozen=True)
class DerivationTree:
    """One derivation of a relation atom (or of false, at the root)."""

    clause: HornClause
    children: tuple  # one DerivationTree per body atom

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


@dataclass(frozen=True)
class Solved:
    solution: Solution


@dataclass(frozen=True)
class Counterexample:
    tree: DerivationTree
    model: dict
    constraint: Constraint


# ---------------------------------------------------------------------------
# Expansion and counterexamples
# ---------------------------------------------------------------------------


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0
        self.fresh = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise ExpansionLimitExceeded(self.limit)

    def rename(self, h: HornClause):
        self.spend()
        self.fresh += 1
        k = self.fresh
        ren = {v: Var(f"{v.name}~{k}", v.sort) for v in sorted(h.vars)}
        sigma = {v: LinearTerm.of(w) for v, w in ren.items()}

        def ratom(a: RelationAtom) -> RelationAtom:
            return RelationAtom(a.symbol, tuple(t.substituted(sigma) for t in a.args))

        return (rename_vars(h.constraint, ren),
                tuple(ratom(b) for b in h.body),
                ratom(h.head) if h.head is not None else None)


def _check_recursion_free(hc: ClauseSet):
    cycle = dependence_graph(hc).find_cycle()
    if cycle is not None:
        raise RecursiveSystem(cycle)


def expand(hc: ClauseSet, limit: int = DEFAULT_EXPANSION_LIMIT) -> Constraint:
    """Disjunction over all derivations of false of the accumulated clause
    constraints and argument-binding equalities, variables fresh per node.

    The clause set is solvable exactly when this constraint is
    unsatisfiable.
    """
    _check_recursion_free(hc)
    budget = _Budget(limit)
    by_head: dict = {}
    for h in hc.clauses:
        if h.head is not None:
            by_head.setdefault(h.head.symbol, []).append(h)

    def derive(atom: RelationAtom) -> Constraint:
        options = []
        for h in by_head.get(atom.symbol, ()):
            constraint, body, head = budget.rename(h)
            binds = [eq(s, t) for s, t in zip(head.args, atom.args)]
            options.append(cand(constraint, *binds, *(derive(b) for b in body)))
        return cor(*options)

    disjuncts = []
    for h in hc.clauses:
        if h.head is None:
            constraint, body, _ = budget.rename(h)
            disjuncts.append(cand(constraint, *(derive(b) for b in body)))
    return cor(*disjuncts)


def find_counterexample(hc: ClauseSet, options: SolverOptions) -> Optional[Counterexample]:
    """First derivation of false whose accumulated constraint is satisfiable."""
    _check_recursion_free(hc)
    budget = _Budget(options.expansion_limit)
    by_head: dict = {}
    for h in hc.clauses:
        if h.head is not None:
            by_head.setdefault(h.head.symbol, []).append(h)

    def derivations(atom: RelationAtom):
        for h in by_head.get(atom.symbol, ()):
            constraint, body, head = budget.rename(h)
            binds = cand(constraint, *(eq(s, t) for s, t in zip(head.args, atom.args)))
            for subtrees, subconstraint in body_derivations(body):
                yield DerivationTree(h, subtrees), cand(binds, subconstraint)

    def body_derivations(body):
        if not body:
            yield (), TRUE
            return
        first, rest = body[0], body[1:]
        for tree, c in derivations(first):
            for trees, c2 in body_derivations(rest):
                yield (tree,) + trees, cand(c, c2)

    for h in hc.clauses:
        if h.head is None:
            constraint, body, _ = budget.rename(h)
            for subtrees, subconstraint in body_derivations(body):
                total = cand(constraint, subconstraint)
                res = sat(total, options.branch_depth, options.cube_limit)
                if isinstance(res, Sat):
                    return Counterexample(DerivationTree(h, subtrees), res.model, total)
    return None


# ---------------------------------------------------------------------------
# Tree / sequence / DAG interpolation
# ---------------------------------------------------------------------------


def tree_interpolate(tp: TreeProblem, options: SolverOptions = None) -> dict:
    """Node labeling computed leaf-to-root by binary interpolation.

    At each step the frontier of processed-but-unconsumed labels plus the
    remaining node labels stays unsatisfiable; this invariant is asserted
    after every step, and the final labeling is checked against the tree
    interpolant conditions before being returned.  Raises NotUnsat (with a
    model) when the conjunction of all node labels is satisfiable.
    """
    options = options or SolverOptions()
    order = tp.post_order()
    parent = {c: p for p, c in tp.edges}
    labels: dict = {}
    processed: list = []
    invariant_checks = 0
    for idx, v in enumerate(order):
        remaining = order[idx + 1:]
        children = tp.children(v)
        a_side = cand(tp.labels[v], *(labels[c] for c in children))
        frontier_rest = [w for w in processed
                         if parent.get(w) not in labels and w not in children]
        b_side = cand(*(labels[w] for w in frontier_rest),
                      *(tp.labels[u] for u in remaining))
        if v == tp.root:
            res = sat(a_side, options.branch_depth, options.cube_limit)
            if isinstance(res, Sat):
                # only reachable at the first step (single-node tree):
                # otherwise the maintained invariant rules it out
                raise NotUnsat(res.model)
            labels[v] = FALSE
        else:
            labels[v] = options.itp(a_side, b_side)
        processed.append(v)
        frontier = [w for w in processed if parent.get(w) not in labels]
        conj = cand(*(labels[w] for w in frontier), *(tp.labels[u] for u in remaining))
        invariant_checks += 1
        if isinstance(sat(conj, options.branch_depth, options.cube_limit), Sat):
            raise SolverInternalError(f"frontier invariant violated after node {v}")
    failures = check_tree(tp, labels)
    if tree_log is not None:
        tree_log.append({"problem": tp, "labels": labels,
                         "invariant_checks": invariant_checks,
                         "property_failures": list(failures)})
    if failures:
        raise SolverInternalError(f"tree labeling rejected: {failures}")
    return labels


def sequence_interpolants(sp: SequenceProblem, options: SolverOptions = None) -> list:
    """Inductive interpolant sequence I0..In via the degenerate path tree."""
    n = len(sp.parts)
    nodes = tuple(range(1, n + 1))
    edges = frozenset((i + 1, i) for i in range(1, n))
    tp = TreeProblem(nodes, edges, {i: sp.parts[i - 1] for i in nodes}, n)
    labels = tree_interpolate(tp, options)
    return [TRUE] + [labels[i] for i in range(1, n + 1)]


def dag_interpolate(dp: DagProblem, options: SolverOptions = None) -> dict:
    """Restricted DAG interpolant via a topological sweep.

    For node v, the left side disjoins the incoming-edge situations
    (predecessor label, node label, edge label), the right side disjoins
    all path-suffix constraints from v to the exit (including the prefixes
    that violate a node label); their interpolant is I(v).  The labeling is
    checked against the DAG interpolant conditions before being returned.
    """
    options = options or SolverOptions()
    order = dp.topological_order()
    suffix: dict = {dp.exit: [TRUE]}
    for v in reversed(order):
        if v == dp.exit:
            continue
        parts: list = []
        for e in dp.outgoing(v):
            w = e[1]
            lw = dp.node_labels[w]
            for s in suffix[w]:
                parts.append(cand(dp.edge_labels[e], lw, s))
            guard = cand(dp.edge_labels[e], cnot(lw))
            if guard is not FALSE:
                parts.append(guard)
            if len(parts) > options.path_limit:
                raise PathLimitExceeded(options.path_limit)
        suffix[v] = parts
    labels = {dp.entry: TRUE}
    entry_b = cand(dp.node_labels[dp.entry], cor(*suffix[dp.entry]))
    res = sat(entry_b, options.branch_depth, options.cube_limit)
    if isinstance(res, Sat):
        raise NotUnsat(res.model, "a complete entry-to-exit path is satisfiable")
    for v in order:
        if v == dp.entry:
            continue
        if v == dp.exit:
            labels[v] = FALSE
            continue
        a_side = cor(*(cand(labels[e[0]], dp.node_labels[e[0]], dp.edge_labels[e])
                       for e in dp.incoming(v)))
        b_side = cand(dp.node_labels[v], cor(*suffix[v]))
        labels[v] = options.itp(a_side, b_side)
    failures = check_dag(dp, labels)
    if failures:
        raise SolverInternalError(f"DAG labeling rejected: {failures}")
    return labels


# ---------------------------------------------------------------------------
# Body-disjoint solving (shared heads)
# ---------------------------------------------------------------------------


def _enumerate_cones(comp: ClauseSet, limit: int) -> list:
    """All derivation cones of false: clause-index sets fixing one defining
    clause per symbol encountered.  Requires a body-disjoint component."""
    clauses = comp.clauses
    false_idx = [i for i, h in enumerate(clauses) if h.head is None]
    if not false_idx:
        return []
    assert len(false_idx) == 1, \
        "a connected body-disjoint component has at most one false-head clause"
    by_head: dict = {}
    for i, h in enumerate(clauses):
        if h.head is not None:
            by_head.setdefault(h.head.symbol, []).append(i)
    cones: list = []

    def go(pending: tuple, chosen: frozenset):
        if len(cones) > limit:
            raise SubsetLimitExceeded(limit)
        if not pending:
            cones.append(chosen)
            return
        s, rest = pending[0], pending[1:]
        defining = by_head.get(s, [])
        if not defining:
            go(rest, chosen)  # underivable symbol: nothing to choose
            return
        for ci in defining:
            body_syms = tuple(b.symbol for b in clauses[ci].body)
            go(rest + body_syms, chosen | {ci})

    root = false_idx[0]
    go(tuple(b.symbol for b in clauses[root].body), frozenset({root}))
    unique = []
    for c in cones:
        if c not in unique:
            unique.append(c)
    return unique


def _subcones(comp: ClauseSet, cone: frozenset) -> dict:
    """Per symbol: the clause-index set of its derivation inside the cone."""
    head_of: dict = {}
    for i in cone:
        h = comp.clauses[i]
        if h.head is not None:
            head_of[h.head.symbol] = i
    memo: dict = {}

    def sub(p):
        if p in memo:
            return memo[p]
        if p not in head_of:
            memo[p] = frozenset()
            return memo[p]
        i = head_of[p]
        acc = frozenset({i})
        for b in comp.clauses[i].body:
            acc |= sub(b.symbol)
        memo[p] = acc
        return acc

    symbols = set()
    for i in cone:
        symbols |= comp.clauses[i].symbols
    for p in symbols:
        sub(p)
    return memo


def _solve_body_disjoint_component(nhc: NormalizedClauseSet, comp: ClauseSet,
                                   original: ClauseSet, options: SolverOptions):
    """Returns a symbol->Constraint map or a Counterexample.

    ``comp`` is the normalized component, ``original`` the corresponding
    input clauses used for counterexample extraction.
    """
    cones = _enumerate_cones(comp, options.subset_limit)
    per_cone: list = []  # (cone, labels dict, subcone map)
    for cone in cones:
        cone_set = ClauseSet.make([comp.clauses[i] for i in sorted(cone)])
        sub_nhc = NormalizedClauseSet(cone_set, nhc.arg_vectors, nhc.origin_map)
        problems = tree_problem_from_treelike(sub_nhc)
        assert len(problems) == 1, "a derivation cone is one connected tree"
        try:
            labels = tree_interpolate(problems[0], options)
        except NotUnsat:
            cx = find_counterexample(original, options)
            assert cx is not None, "satisfiable cone must yield a counterexample"
            return cx
        per_cone.append((cone, labels, _subcones(comp, cone)))
    assignment: dict = {}
    symbols = sorted({s for cone, _, _ in per_cone
                      for i in cone for s in comp.clauses[i].symbols})
    for p in symbols:
        groups: dict = {}
        for cone, labels, subs in per_cone:
            if p not in labels:
                continue
            groups.setdefault(subs.get(p, frozenset()), []).append(labels[p])
        if groups:
            assignment[p] = cor(*(cand(*g) for g in groups.values()))
    return assignment


# ---------------------------------------------------------------------------
# Body-disjoint transformation (general recursion-free sets)
# ---------------------------------------------------------------------------


def body_disjoint_transform(hc: ClauseSet, limit: int = DEFAULT_EXPANSION_LIMIT):
    """Duplicate derivation cones until every symbol occurs in at most one
    clause body at most once.

    Returns (clause set, copy map) where the copy map lists, per original
    symbol, all symbols standing for it (itself included).  A solution of
    the result maps back by conjoining the copies' formulas per original
    symbol.
    """
    _check_recursion_free(hc)
    clauses = list(hc.clauses)
    root_of = {s: s for s in hc.relations}
    copies: dict = {s: [s] for s in hc.relations}
    counter = 0

    def cone_symbols(p) -> set:
        out = {p}
        stack = [p]
        while stack:
            s = stack.pop()
            for h in clauses:
                if h.head is not None and h.head.symbol == s:
                    for b in h.body:
                        if b.symbol not in out:
                            out.add(b.symbol)
                            stack.append(b.symbol)
        return out

    while True:
        occurrences: dict = {}
        for ci, h in enumerate(clauses):
            for pos, b in enumerate(h.body):
                occurrences.setdefault(b.symbol, []).append((ci, pos))
        shared = sorted((s for s, occ in occurrences.items() if len(occ) > 1),
                        key=lambda s: s.name)
        if not shared:
            break
        p = shared[0]
        for ci, pos in occurrences[p][1:]:
            counter += 1
            cone = cone_symbols(p)
            sigma = {s: RelationSymbol(f"{s.name}~{counter}", s.arg_sorts) for s in cone}
            for s in cone:
                root = root_of[s]
                root_of[sigma[s]] = root
                copies[root].append(sigma[s])

            def mapped(a: RelationAtom) -> RelationAtom:
                return RelationAtom(sigma.get(a.symbol, a.symbol), a.args)

            h = clauses[ci]
            body = list(h.body)
            body[pos] = mapped(body[pos])
            clauses[ci] = HornClause(h.constraint, tuple(body), h.head)
            for d in list(clauses):
                if d.head is not None and d.head.symbol in cone:
                    clauses.append(HornClause(d.constraint,
                                              tuple(mapped(b) for b in d.body),
                                              mapped(d.head)))
                    if len(clauses) > limit:
                        raise ExpansionLimitExceeded(limit)
    return ClauseSet.make(clauses), copies


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _fill_true(assignment: dict, hc: ClauseSet):
    for p in sorted(hc.relations):
        if p not in assignment:
            assignment[p] = TRUE


def _solve_component(comp: ClauseSet, options: SolverOptions):
    """Symbol->Constraint map over normalized argument vectors, or a
    Counterexample; second return value is the argument-vector map."""
    report = classify(comp)
    nhc = normalize(comp)
    assignment: dict = {}
    try:
        if report.linear_tree_like:
            for sp, chain in sequence_from_linear_treelike(nhc):
                labels = sequence_interpolants(sp, options)
                for i, p in enumerate(chain):
                    assignment[p] = labels[i + 1]
        elif report.tree_like:
            for tp in tree_problem_from_treelike(nhc):
                labels = tree_interpolate(tp, options)
                for v in tp.nodes:
                    if v != FALSE_NODE:
                        assignment[v] = labels[v]
        elif report.linear:
            for dp, symbols in dag_problem_from_linear(nhc):
                labels = dag_interpolate(dp, options)
                for p in symbols:
                    assignment[p] = labels[p]
        elif report.body_disjoint:
            result = _solve_body_disjoint_component(nhc, nhc.clause_set, comp, options)
            if isinstance(result, Counterexample):
                return result, nhc.arg_vectors
            assignment = result
        else:
            transformed, copies = body_disjoint_transform(comp, options.expansion_limit)
            tn = normalize(transformed)
            collected: dict = {}
            for sub in connected_components(tn.clause_set):
                result = _solve_body_disjoint_component(tn, sub, comp, options)
                if isinstance(result, Counterexample):
                    return result, nhc.arg_vectors
                collected.update(result)
            for p in sorted(comp.relations):
                parts = []
                for c in copies.get(p, [p]):
                    if c in collected:
                        mapping = dict(zip(tn.arg_vectors[c], nhc.arg_vectors[p]))
                        parts.append(rename_vars(collected[c], mapping))
                if parts:
                    assignment[p] = cand(*parts)
    except NotUnsat:
        cx = find_counterexample(comp, options)
        assert cx is not None, "satisfiable encoding must yield a counterexample"
        return cx, nhc.arg_vectors
    return assignment, nhc.arg_vectors


def solve(hc: ClauseSet, options: SolverOptions = None):
    """Solution (verified) or Counterexample (model-checked) for a
    recursion-free clause set; raises RecursiveSystem otherwise."""
    options = options or SolverOptions()
    _check_recursion_free(hc)
    assignment_formulas: dict = {}
    vectors: dict = {}
    components = connected_components(hc)
    if options.jobs > 1 and len(components) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=options.jobs) as pool:
            results = list(pool.map(lambda c: _solve_component(c, options), components))
    else:
        results = [_solve_component(comp, options) for comp in components]
    for result, arg_vectors in results:
        if isinstance(result, Counterexample):
            return result
        assignment_formulas.update(result)
        vectors.update(arg_vectors)
    _fill_true(assignment_formulas, hc)
    assignment = {}
    for p, formula in assignment_formulas.items():
        params = list(vectors.get(p) or
                      (Var(f"{p.name}#{i}", sort) for i, sort in enumerate(p.arg_sorts)))
        assignment[p] = (params, formula)
    sol = Solution(assignment)
    verdict = verify_solution(sol, hc, options.branch_depth, options.cube_limit)
    if not isinstance(verdict, Valid):
        raise SolverInternalError(
            f"computed solution failed verification on clause: {verdict.clause!r}")
    return Solved(sol)
