"""End-to-end solving of recursion-free Horn clause sets.

Pipeline: split the set into its weakly-connected components, classify
each once, solve each through its derivation cones of false (one
false-head clause and one defining clause per symbol met), then verify the
combined solution.  A linear component that is not tree-like has its
duplicate clauses merged first, and each of its cones is a path.  Any
other component that is not body-disjoint is first made so by duplicating
derivation cones in one top-down walk: a symbol's first body occurrence
keeps its name, and every later one becomes a fresh copy ``s~k`` defined by
copies of the symbol's clauses.  One pass over a component's clauses
counts its cones, so a component over the cube limit stops before any
cone is built; then one walk builds each cone's tree interpolation problem
and each symbol's derivation key, one cone at a time, and the per-cone
labels combine, grouped by key, into a positive
Boolean combination per symbol.  Sequences are the trees that are paths,
and a tree-like component has exactly one cone.  Trees are labeled from
Farkas certificates by engine.label_tree, the routine binary interpolation
uses too: one rational LP per choice of one DNF cube per node label and of
each integer case split, each certificate labeling every node at once by
the weighted sum of its subtree's atoms.  Only an external interpolation
backend labels node by node.  An unsolvable set makes one of its cones'
trees satisfiable, and that cone is the counterexample, mapped back to the
input clauses, with its accumulated constraint evaluated under the tree's
model before it is returned.  Its clause instances are built, numbered and
bound as the expansion's are, by one helper, so a set with exactly one
derivation of false has the expansion as its counterexample's constraint.
A solution gives every symbol normalize's argument vector as its
parameters, and true where no component labeled it.  A restricted DAG
interpolation problem is solved as its Horn encoding, a linear set.

Every answer passes one gate.  solve's is verify_solution on the set it
was given, so its cone trees are labeled by _label_tree_problem without
check_tree; tree_interpolate and sequence_interpolants keep check_tree, and
dag_interpolate check_dag.  Every path checks each node as it labels it:
against its certificate's subtree sum in engine.label_tree, or, node by
node, its frontier with sat."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Callable, Mapping, Optional

from .analysis import (
    FragmentReport,
    NormalizedClauseSet,
    _fresh_vector,
    classify,
    connected_components,
    dependence_graph,
    merge_linear_duplicates,
    normalize,
)
from .encodings import FALSE_NODE, dag_node_symbols, dag_problem_to_horn
from .engine import DEFAULT_BRANCH_DEPTH, case_split, label_tree, sat
from .errors import (
    CubeLimitExceeded,
    ExpansionLimitExceeded,
    NotUnsat,
    RecursiveSystem,
    SolverInternalError,
    SortMismatch,
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
from .lp import Sat
from .problems import DagProblem, SequenceProblem, TreeProblem, check_dag, check_tree
from .terms import (
    DEFAULT_CUBE_LIMIT,
    FALSE,
    INT,
    TRUE,
    Constraint,
    Var,
    cand,
    cor,
    eq,
    evaluate,
    rename_injective,
    to_dnf,
)

DEFAULT_EXPANSION_LIMIT = 100_000


@dataclass
class SolverOptions:
    """Budgets, the CLI's --branch-depth, --cube-limit and --expansion-limit,
    and ``interpolate``, an external backend's binary interpolation, set
    when one is configured: trees are then labeled node by node."""

    branch_depth: int = DEFAULT_BRANCH_DEPTH
    cube_limit: int = DEFAULT_CUBE_LIMIT
    expansion_limit: int = DEFAULT_EXPANSION_LIMIT
    interpolate: Callable = None  # (A, B, branch_depth, cube_limit) -> Interpolant


@dataclass(frozen=True, eq=False, repr=False)
class DerivationTree:
    """One derivation of a relation atom (or of false, at the root).

    Its hash is taken at construction from the children's stored hashes, and
    ``==`` and ``repr`` walk an explicit stack, so no tree depth reaches the
    recursion limit.  They give what the generated dataclass methods would.
    """

    clause: HornClause
    children: tuple  # one DerivationTree per body atom
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.clause, self.children)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            s, t = stack.pop()
            if s is t:
                continue
            if s._hash != t._hash or s.clause != t.clause or len(s.children) != len(t.children):
                return False
            stack += zip(s.children, t.children)
        return True

    def __repr__(self):
        out = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if type(t) is str:
                out.append(t)
                continue
            out.append(f"DerivationTree(clause={t.clause!r}, children=(")
            stack.append(",))" if len(t.children) == 1 else "))")
            for i in range(len(t.children) - 1, -1, -1):
                stack.append(t.children[i])
                if i:
                    stack.append(", ")
        return "".join(out)

    def size(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack += stack.pop().children
        return count


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


def _instance(h: HornClause, variables, k: int, binding) -> tuple:
    """Instance k of clause ``h``, each of ``variables`` (those of ``h``)
    renamed to ``v~k``: the renaming; the conjuncts, ``h``'s constraint and,
    unless ``binding`` is empty, the equality of each renamed head argument
    to the parent's renamed body-atom argument in ``binding``; and the
    renamed arguments of each body atom, as term lists."""
    ren = {v: Var(f"{v.name}~{k}", v.sort) for v in variables}
    conjuncts = [rename_injective(h.constraint, ren)]
    if binding:
        conjuncts += [eq(s.renamed(ren), t) for s, t in zip(h.head.args, binding)]
    return ren, conjuncts, [[t.renamed(ren) for t in b.args] for b in h.body]


def _check_recursion_free(hc: ClauseSet):
    cycle = dependence_graph(hc).find_cycle()
    if cycle is not None:
        raise RecursiveSystem(cycle)


def expand(hc: ClauseSet, limit: int = DEFAULT_EXPANSION_LIMIT) -> Constraint:
    """Disjunction over all derivations of false of the accumulated clause
    constraints and argument-binding equalities, variables fresh per node.

    The clause set is solvable exactly when this constraint is
    unsatisfiable.  Clause instances are built by _instance and numbered in
    pre-order, each atom's defining clauses in order, by a walk with an
    explicit stack; instance ``limit + 1`` raises ExpansionLimitExceeded.
    The constraint is built bottom-up from them, in time linear in its size.
    """
    _check_recursion_free(hc)
    by_head: dict = {}
    for h in hc.clauses:
        by_head.setdefault(h.head.symbol if h.head is not None else None, []).append(h)
    # the clause instances in pre-order, each as its conjuncts and, per body
    # atom, the numbers of the instances that derive it
    instances: list = []
    roots: list = []
    stack = [((), h, roots) for h in reversed(by_head.get(None, ()))]
    while stack:
        binding, h, derivers = stack.pop()
        if len(instances) == limit:
            raise ExpansionLimitExceeded(limit)
        derivers.append(len(instances))
        _, conjuncts, args = _instance(h, h.vars, len(instances) + 1, binding)
        slots = [[] for _ in h.body]
        instances.append((conjuncts, slots))
        for b, b_args, slot in zip(reversed(h.body), reversed(args), reversed(slots)):
            stack += [(b_args, d, slot) for d in reversed(by_head.get(b.symbol, ()))]
    # The one instance deriving an atom adds its conjuncts to its parent's
    # conjunction, where cand would flatten them anyway.  So only the other
    # instances build a conjunction, gathering in pre-order the conjuncts of
    # the instances added to it, and no conjunct is copied twice.
    inlined = {slot[0] for _, slots in instances for slot in slots if len(slot) == 1}
    built: dict = {}
    for k in reversed(range(len(instances))):  # every instance after its parent
        if k in inlined:
            continue
        conjuncts: list = []
        todo: list = [k]  # instances to add, and the slots of several derivers
        while todo:
            item = todo.pop()
            if type(item) is list:
                conjuncts.append(cor(*[built.pop(j) for j in item]))
                continue
            parts, slots = instances[item]
            conjuncts += parts
            todo += [slot[0] if len(slot) == 1 else slot for slot in reversed(slots)]
        built[k] = cand(*conjuncts)
    return cor(*[built.pop(j) for j in roots])


def _counterexample_from_model(comp: ClauseSet, origins, nhc: NormalizedClauseSet,
                               cones: ClauseSet, choice: dict, model: Mapping) -> Counterexample:
    """The refuted cone ``choice`` of ``cones``, whose tree ``model``
    satisfies, as a Counterexample over the clauses of ``comp``.

    ``choice`` maps each symbol met, and None for false, to its clause's
    index in ``cones``: ``nhc``'s clause set, or its merge_linear_duplicates,
    where a merged clause stands for the first clause of ``nhc`` with its
    body atom and head that holds under the model.  ``nhc`` normalizes a
    copy of ``comp`` whose clause i copies ``comp.clauses[origins[i]]``.
    Instances are built by _instance, as expand builds them, numbered in
    pre-order from 1, and variable v of instance k becomes ``v~k``, valued
    as its normalized variable (missing variables read 0).  Raises SolverInternalError when no such clause holds, or when
    the accumulated constraint is false under the model or an Int value is
    fractional.
    """
    # integral values as ints, so that evaluating is int arithmetic
    model = defaultdict(int, {v: x.numerator if x.denominator == 1 else x
                              for v, x in model.items()})
    if cones is not nhc.clause_set:
        shapes: dict = {}  # (body, head) -> its clauses' indices in nhc
        for i, h in enumerate(nhc.clauses):
            shapes.setdefault((h.body, h.head), []).append(i)
        merged = {p: cones.clauses[ci] for p, ci in choice.items()}
        choice = {p: next((i for i in shapes[h.body, h.head]
                           if evaluate(nhc.clauses[i].constraint, model)), None)
                  for p, h in merged.items()}
        if None in choice.values():
            raise SolverInternalError("satisfiable cone yielded no counterexample")
    nodes = []  # pre-order: (input clause, number of body atoms)
    parts = []
    values = {}
    stack = [(choice[None], ())]  # clause index, the parent's renamed body atom args
    while stack:
        ci, binding = stack.pop()
        h = comp.clauses[origins[ci]]
        renaming = nhc.renamings[ci]
        ren, conjuncts, args = _instance(h, renaming, len(nodes) + 1, binding)
        for v, w in renaming.items():
            values[ren[v]] = model[w]
        parts += conjuncts
        nodes.append((h, len(h.body)))
        for nb, b_args in reversed(list(zip(nhc.clauses[ci].body, args))):
            stack.append((choice[nb.symbol], b_args))
    built: list = []
    for h, n in reversed(nodes):
        built.append(DerivationTree(h, tuple([built.pop() for _ in range(n)])))
    total = cand(*parts)
    if not evaluate(total, values) or any(
            v.sort == INT and type(x) is not int for v, x in values.items()):
        raise SolverInternalError("counterexample model fails its derivation's constraint")
    return Counterexample(built[0], {v: Fraction(x) for v, x in values.items()}, total)


# ---------------------------------------------------------------------------
# Tree / sequence / DAG interpolation
# ---------------------------------------------------------------------------


def tree_interpolate(tp: TreeProblem, options: SolverOptions = None) -> dict:
    """Tree interpolant of a labeled tree whose node labels are jointly
    unsatisfiable.

    Certificate path: engine.label_tree labels the nodes from their labels'
    DNF (at most ``cube_limit`` cube choices), one rational LP per cube
    choice and integer case split.  Node-by-node path: an
    ``options.interpolate`` backend answers binary problems only, so each
    node gets one binary interpolation and one satisfiability check.

    Either path checks each node once.  Node by node: after node v, the
    labels of the processed nodes whose parent is unprocessed, with the
    remaining node labels, must be unsatisfiable.  From certificates: each
    label must fit its subtree's sum, engine.label_tree's check.
    _label_tree_problem's labeling must then pass check_tree, this entry
    point's gate, and a violated check raises SolverInternalError; solve
    labels its cones without it, since its gate is verify_solution.
    Raises NotUnsat (with a model) when the conjunction of all node labels
    is satisfiable.

    The labels solve the tree's Horn encoding, tree_problem_to_horn: symbol
    p<i> takes the label of v = tp.nodes[i] over sorted(tp.shared[tp.index[v]]).
    """
    options = options or SolverOptions()
    labels = _label_tree_problem(tp, options)
    failures = check_tree(tp, labels, options.branch_depth, options.cube_limit)
    if failures:
        raise SolverInternalError(f"tree labeling rejected: {failures}")
    return labels


def _label_tree_problem(tp: TreeProblem, options: SolverOptions) -> dict:
    """tree_interpolate's labels before its final check_tree: checked
    engine.label_tree labels, or the node-by-node sweep's when
    ``options.interpolate`` is set."""
    if options.interpolate is not None:
        return _node_by_node_labels(tp, options)
    cubes = [to_dnf(tp.labels[v], options.cube_limit) for v in tp.order]
    itps = label_tree(cubes, tp.kids, options.branch_depth, True, options.cube_limit)
    return dict(zip(tp.order, itps))


def _node_by_node_labels(tp: TreeProblem, options: SolverOptions):
    """Labels computed leaf-to-root by the backend's binary interpolation,
    asserting after every step that the frontier of processed-but-unconsumed
    labels plus the remaining node labels stays unsatisfiable."""
    labels: list = []  # by position
    frontier: list = []  # positions whose parent is not yet processed
    for i, v in enumerate(tp.order):
        remaining = [tp.labels[u] for u in tp.order[i + 1:]]
        frontier = [w for w in frontier if tp.parent[w] != i]
        a_side = cand(tp.labels[v], *[labels[c] for c in tp.kids[i]])
        if v == tp.root:
            res = sat(a_side, options.branch_depth, options.cube_limit)
            if isinstance(res, Sat):
                # only reachable at the first step (single-node tree):
                # otherwise the maintained invariant rules it out
                raise NotUnsat(res.model)
            labels.append(FALSE)
        else:
            b_side = cand(*[labels[w] for w in frontier], *remaining)
            labels.append(options.interpolate(a_side, b_side, options.branch_depth,
                                              options.cube_limit).formula)
        frontier.append(i)
        conj = cand(*[labels[w] for w in frontier], *remaining)
        if isinstance(sat(conj, options.branch_depth, options.cube_limit), Sat):
            raise SolverInternalError(f"frontier invariant violated after node {v}")
    return dict(zip(tp.order, labels))


def sequence_interpolants(sp: SequenceProblem, options: SolverOptions = None) -> list:
    """Inductive interpolant sequence I0..In from the path tree sp.tree."""
    labels = tree_interpolate(sp.tree, options)
    return [TRUE] + [labels[i] for i in range(1, len(sp.parts) + 1)]


def dag_interpolate(dp: DagProblem, options: SolverOptions = None) -> dict:
    """Restricted DAG interpolant of ``dp`` from the solution of its Horn
    encoding, encodings.dag_problem_to_horn: node v is labeled by its
    symbol's formula over sorted(dp.allowed_vars(v)), and the labeling must
    pass check_dag.  Raises NotUnsat, with the counterexample's model, when
    the encoding has a counterexample, so that no restricted DAG
    interpolant exists."""
    options = options or SolverOptions()
    res = solve(dag_problem_to_horn(dp), options)
    if isinstance(res, Counterexample):
        raise NotUnsat(res.model, "no restricted DAG interpolant exists:"
                                  " its Horn encoding has a counterexample")
    labels = {}
    for v, (symbol, vector) in dag_node_symbols(dp).items():
        params, formula = res.solution.assignment[symbol]
        labels[v] = rename_injective(formula, dict(zip(params, vector)))
    failures = check_dag(dp, labels, options.branch_depth, options.cube_limit)
    if failures:
        raise SolverInternalError(f"DAG labeling rejected: {failures}")
    return labels


# ---------------------------------------------------------------------------
# Derivation cones (body-disjoint or linear sets)
# ---------------------------------------------------------------------------


def _derivation_cones(comp: ClauseSet, limit: int):
    """Yield (TreeProblem, derivation keys, choice) per derivation cone of
    false of ``comp``, a set that is body-disjoint or linear, so that no
    cone meets a symbol twice.

    A cone fixes one false-head clause and one defining clause per symbol
    met below it; ``choice`` maps each symbol met that has one to its index,
    and None to the false-head clause's.  Its tree's nodes are FALSE_NODE
    and the symbols met, each labeled by its chosen clause's constraint, or
    false when no clause defines it; a symbol's key is the clause-index set
    of its derivation inside the cone.  The false-head clauses are taken in
    order, each by one walk with an explicit stack: symbols are met
    breadth-first, and cones come depth-first over the choices, the first
    defining clause first, so the choice at a symbol met earlier changes
    more slowly.
    Each cone is one more case split, so a false-head clause with more
    than ``limit`` (the run's cube limit) cones below it raises
    CubeLimitExceeded.  The cones are counted before any is built: a
    symbol's count is the sum, over its defining clauses, of the product
    of their body symbols' counts, and an undefined symbol counts 1.
    """
    clauses = comp.clauses
    by_head: dict = {}
    for i, h in enumerate(clauses):
        if h.head is not None:
            by_head.setdefault(h.head.symbol, []).append(i)
    queries = [i for i, h in enumerate(clauses) if h.head is None]
    counts: dict = {}  # defined symbol -> its cone count, children first
    stack = [(b.symbol, False) for qi in queries for b in clauses[qi].body]
    while stack:
        s, ready = stack.pop()
        if s in counts or s not in by_head:
            continue
        if ready:
            counts[s] = sum(prod(counts.get(b.symbol, 1) for b in clauses[i].body)
                            for i in by_head[s])
        else:
            stack.append((s, True))
            stack += [(b.symbol, False) for i in by_head[s] for b in clauses[i].body]
    for qi in queries:
        if prod(counts.get(b.symbol, 1) for b in clauses[qi].body) > limit:
            raise CubeLimitExceeded(limit, "derivation cones below one query clause")
    for qi in queries:
        query = clauses[qi]
        met = [(FALSE_NODE, b.symbol) for b in query.body]  # (parent node, symbol)
        # per symbol met: the position of its chosen clause in by_head[s], and
        # len(met) before that clause's body was met
        chosen: list = []
        while True:
            while len(chosen) < len(met):
                s = met[len(chosen)][1]
                chosen.append((0, len(met)))
                if s in by_head:
                    met += [(s, b.symbol) for b in clauses[by_head[s][0]].body]
            labels = {FALSE_NODE: query.constraint}
            keys: dict = {}
            choice = {None: qi}
            for (_, s), (k, _) in zip(reversed(met), reversed(chosen)):  # children first
                if s in by_head:
                    choice[s] = ci = by_head[s][k]
                    labels[s] = clauses[ci].constraint
                    keys[s] = frozenset({ci}).union(*[keys[b.symbol] for b in clauses[ci].body])
                else:
                    labels[s], keys[s] = FALSE, frozenset()
            nodes = (FALSE_NODE, *[s for _, s in met])
            yield TreeProblem(nodes, frozenset(met), labels, FALSE_NODE), keys, choice
            # the next cone: the last symbol met with a defining clause left
            # takes the next one, and the symbols met after it are met again
            while chosen and chosen[-1][0] + 1 >= len(by_head.get(met[len(chosen) - 1][1], ())):
                chosen.pop()
            if not chosen:
                break
            k, mark = chosen[-1]
            chosen[-1] = (k + 1, mark)
            s = met[len(chosen) - 1][1]
            del met[mark:]
            met += [(s, b.symbol) for b in clauses[by_head[s][k + 1]].body]


def _cone_labels(comp: ClauseSet, options: SolverOptions):
    """(Symbol->Constraint map, None) for ``comp``, a normalized set that is
    body-disjoint or linear, or (None, (choice, model)) for its first cone
    whose tree is satisfiable: _derivation_cones' choice and the NotUnsat
    model.

    Each derivation cone of false is one tree problem, and one case of a
    split whose cases inside a symbol's subtree are its derivation keys.  So
    a symbol's solution is engine.case_split of its labels, in cone order,
    keyed by its derivation key: it disjoins, over the groups of cones that
    derive the symbol by the same clauses, the conjunction of the group's
    labels.  The cones are counted before any is built, and each is labeled
    by _label_tree_problem as it is built, without check_tree: solve's
    verify_solution checks the combined answer.  A set without a false-head
    clause has no cone and gets an empty map.
    """
    split: dict = {}  # symbol -> ([label], [derivation key]), one entry per cone
    for tp, keys, choice in _derivation_cones(comp, options.cube_limit):
        try:
            labels = _label_tree_problem(tp, options)
        except NotUnsat as exc:
            return None, (choice, exc.model)
        for p, key in keys.items():
            ps, ks = split.setdefault(p, ([], []))
            ps.append(labels[p])
            ks.append(key)
    return {p: case_split(*split[p]) for p in sorted(split)}, None


# ---------------------------------------------------------------------------
# Body-disjoint transformation (general recursion-free sets)
# ---------------------------------------------------------------------------


def body_disjoint_transform(hc: ClauseSet, limit: int = DEFAULT_EXPANSION_LIMIT):
    """Duplicate derivation cones until every symbol occurs in at most one
    clause body at most once.

    One top-down walk over a work list of (clause index in ``hc``, head
    copy) pairs that grows as it is walked.  It starts with the input
    clauses in order, heads kept.  The first body occurrence of a symbol
    keeps its name.  Every later one, and so every one in a copied clause,
    becomes a fresh copy ``s~k``, k counting up from the last copy and
    skipping names that ``hc`` already uses, and each clause defining ``s``
    is queued again with ``s~k`` as its head.

    Returns (clause set, copy map, origins) where the copy map lists, per
    original symbol, all symbols standing for it (itself first), and
    origins[i] is the index in ``hc`` of the clause that clause i copies.
    A solution of the result maps back by conjoining the copies' formulas
    per original symbol.
    """
    _check_recursion_free(hc)
    defining: dict = {}
    for i, h in enumerate(hc.clauses):
        if h.head is not None:
            defining.setdefault(h.head.symbol, []).append(i)
    copies: dict = {s: [s] for s in hc.relations}
    taken = {s.name for s in hc.relations}
    seen: set = set()
    work = [(i, None) for i in range(len(hc.clauses))]
    clauses = []
    counter = 0
    for ci, copy in work:  # copies are queued while the list is walked
        h = hc.clauses[ci]
        body = []
        for b in h.body:
            s = b.symbol
            if s in seen:
                counter += 1
                while f"{s.name}~{counter}" in taken:
                    counter += 1
                c = RelationSymbol(f"{s.name}~{counter}", s.arg_sorts)
                copies[s].append(c)
                work += [(di, c) for di in defining.get(s, ())]
                if len(work) > limit:
                    raise ExpansionLimitExceeded(
                        limit, "clauses after duplicating derivation cones")
                b = RelationAtom(c, b.args)
            seen.add(s)
            body.append(b)
        head = h.head if copy is None else RelationAtom(copy, h.head.args)
        clauses.append(HornClause(h.constraint, tuple(body), head))
    return ClauseSet.make(clauses), copies, [ci for ci, _ in work]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _solve_component(comp: ClauseSet, report: FragmentReport, options: SolverOptions):
    """Symbol->Constraint map over normalize's argument vectors, or a
    Counterexample.

    ``report`` is classify(comp).  Every set is solved through its
    derivation cones of false.  A linear set is normalized, and when it is
    not tree-like its duplicate clauses (the same body atom and head) are
    merged into one by disjoining their constraints; each of its cones is
    a path, whether or not the merged set is body-disjoint.  Any other set
    that is not body-disjoint is made so by body_disjoint_transform, one
    top-down walk that keeps each symbol's first body occurrence and gives
    every later one a fresh copy ``s~k`` (k counting the copies made) with
    copies of the clauses below it; the result is normalized.  One call
    of _cone_labels labels the set, whose walk builds every cone's tree
    without classifying or splitting again, and an original symbol's
    solution conjoins those of its copies.  A tree-like set is the one-cone
    case, and the symbols of a set without a false-head clause are left to
    be assigned true.

    When a cone's tree or a backend's first binary problem (the whole tree)
    is satisfiable, that cone is the Counterexample:
    _counterexample_from_model maps its clauses back to those of ``comp``,
    a merged clause through the first of its clauses that holds under the
    model, then through the copies' origins and normalize's renamings.
    """
    copies: dict = {}
    disjoint, origins = comp, range(len(comp.clauses))
    if not (report.linear or report.body_disjoint):
        disjoint, copies, origins = body_disjoint_transform(comp, options.expansion_limit)
    nhc = normalize(disjoint)
    cones = nhc.clause_set
    if report.linear and not report.tree_like:
        cones = merge_linear_duplicates(cones)
    collected, refuted = _cone_labels(cones, options)
    if refuted is not None:
        return _counterexample_from_model(comp, origins, nhc, cones, *refuted)
    assignment: dict = {}
    for p in sorted(comp.relations):
        parts = []
        for c in copies.get(p, [p]):
            if c in collected:
                label = collected[c]
                if c != p:
                    ren = dict(zip(nhc.arg_vectors[c], nhc.arg_vectors[p]))
                    label = rename_injective(label, ren)
                parts.append(label)
        if parts:
            assignment[p] = cand(*parts)
    return assignment


def solve(hc: ClauseSet, options: SolverOptions = None):
    """Solution (verified) or Counterexample (model-checked) for a
    recursion-free clause set; raises RecursiveSystem otherwise.

    The set is split into its connected components and each is classified
    once; a dependence cycle lies inside one component, so their reports
    say whether the set is recursive, and only then is the whole set's
    dependence graph searched for the cycle to name.  The components are
    then solved in order, and the first Counterexample is returned without
    solving the ones after it; otherwise the combined solution, each symbol
    over the argument vector normalize gives it and true where no component
    labeled it, is verified against ``hc``.  That is the answer's one gate,
    as no cone's labels pass check_tree: a labeling that fails it, or a
    label over a variable outside its symbol's vector, raises
    SolverInternalError.
    """
    options = options or SolverOptions()
    components = connected_components(hc)
    reports = [classify(comp) for comp in components]
    if not all(report.recursion_free for report in reports):
        _check_recursion_free(hc)
    formulas: dict = {}
    for comp, report in zip(components, reports):
        result = _solve_component(comp, report, options)
        if isinstance(result, Counterexample):
            return result
        formulas.update(result)
    try:
        sol = Solution({p: (list(_fresh_vector(p)), formulas.get(p, TRUE))
                        for p in sorted(hc.relations)})
    except SortMismatch as exc:
        raise SolverInternalError(f"computed solution rejected: {exc}") from exc
    verdict = verify_solution(sol, hc, options.branch_depth, options.cube_limit)
    if not isinstance(verdict, Valid):
        raise SolverInternalError(
            f"computed solution failed verification on clause: {verdict.clause!r}")
    return Solved(sol)


def find_counterexample(hc: ClauseSet, options: SolverOptions = None) -> Optional[Counterexample]:
    """solve's Counterexample for ``hc``, or None when ``hc`` is solvable."""
    res = solve(hc, options)
    return res if isinstance(res, Counterexample) else None
