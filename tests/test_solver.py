"""End-to-end solving: dispatch, interpolation sweeps, expansion oracle."""

import random
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

import worked_examples as PE
from generators import chain_clauses, diamond, ladder, random_clause_set, random_cube
from hornitp import engine, solver
from hornitp import chc
from hornitp.analysis import (
    NormalizedClauseSet,
    classify,
    connected_components,
    merge_linear_duplicates,
    normalize,
)
from hornitp.encodings import dag_problem_from_linear, tree_problem_from_treelike
from hornitp.engine import binary_interpolant, sat
from hornitp.errors import (
    CubeLimitExceeded,
    ExpansionLimitExceeded,
    MalformedProblem,
    NotUnsat,
    RecursiveSystem,
    SolverInternalError,
    UnknownResult,
)
from hornitp.horn import (
    ClauseSet,
    HornClause,
    RelationAtom,
    RelationSymbol,
    rel_atom,
    verify_solution,
)
from hornitp.lp import Sat, Unsat, decide_rational
from hornitp.problems import (
    DagProblem,
    SequenceProblem,
    TreeProblem,
    check_dag,
    check_sequence,
    check_tree,
)
from hornitp.solver import (
    Counterexample,
    DerivationTree,
    Solved,
    SolverOptions,
    body_disjoint_transform,
    dag_interpolate,
    expand,
    find_counterexample,
    sequence_interpolants,
    solve,
    tree_interpolate,
)
from hornitp.terms import (
    FALSE,
    INT,
    REAL,
    TRUE,
    COr,
    LinearTerm,
    Var,
    cand,
    cor,
    eq,
    evaluate,
    free_vars,
    ge,
    gt,
    le,
    lt,
    ne,
    rename_injective,
    substitute,
    to_dnf,
)

X = Var("x", INT)
TX = LinearTerm.of(X)


class _Budget:
    """Clause instances numbered in creation order, at most ``limit`` of
    them: the renaming that solver.expand used before its instances were
    built by solver._instance."""

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def rename(self, h: HornClause):
        self.used += 1
        if self.used > self.limit:
            raise ExpansionLimitExceeded(self.limit)
        ren = {v: Var(f"{v.name}~{self.used}", v.sort) for v in sorted(h.vars)}

        def ratom(a: RelationAtom) -> RelationAtom:
            return RelationAtom(a.symbol, tuple([t.renamed(ren) for t in a.args]))

        return (rename_injective(h.constraint, ren),
                tuple([ratom(b) for b in h.body]),
                ratom(h.head) if h.head is not None else None)


def _recursive_expand(hc, limit=solver.DEFAULT_EXPANSION_LIMIT):
    """solver.expand as a recursion per derivation level."""
    solver._check_recursion_free(hc)
    budget = _Budget(limit)
    by_head: dict = {}
    for h in hc.clauses:
        if h.head is not None:
            by_head.setdefault(h.head.symbol, []).append(h)

    def derive(atom):
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


def _data_sets() -> list:
    """The recursion-free clause sets of tests/data."""
    sets = []
    for name in ("increment_treelike", "increment_unwound"):
        with open(f"tests/data/{name}.chc") as fh:
            sets.append(chc.parse_chc(fh.read()))
    return sets


class TestExpand:
    def test_iterative_matches_recursive(self):
        """The same constraint, instances numbered alike, and the budget
        exceeded at the same instance."""
        rng = random.Random(17)
        sets = _data_sets() + [random_clause_set(rng) for _ in range(300)]
        limited = 0
        for hc in sets:
            for limit in (0, 1, 2, 3, 5, 8, 100_000):
                try:
                    expected = _recursive_expand(hc, limit)
                except ExpansionLimitExceeded:
                    limited += 1
                    with pytest.raises(ExpansionLimitExceeded):
                        expand(hc, limit)
                else:
                    assert expand(hc, limit) == expected
        assert limited >= 100

    def test_long_chain(self):
        # 1,202 instances nested 1,201 deep, past the default recursion limit
        expansion = expand(chain_clauses(1200, unsat=True))
        fvs = free_vars(expansion)
        # x in the query and the fact, x and y in each step
        assert len(fvs) == 2402 and {Var("x~1", INT), Var("y~1201", INT)} <= fvs

    def test_treelike_subset_expansion_unsat(self):
        assert isinstance(sat(expand(PE.treelike_clauses())), Unsat)

    def test_expansion_limit(self):
        with pytest.raises(ExpansionLimitExceeded):
            expand(PE.treelike_clauses(), limit=3)

    def test_recursive_set_rejected(self):
        with pytest.raises(RecursiveSystem):
            expand(PE.recursive_clauses())

    def test_no_false_clause_expands_to_false(self):
        p = RelationSymbol("p", (INT,))
        hc = ClauseSet.make([HornClause(TRUE, (), rel_atom(p, X))])
        assert isinstance(sat(expand(hc)), Unsat)


class TestFindCounterexample:
    def test_unsolvable_set_yields_witness(self):
        p = RelationSymbol("p", (INT,))
        hc = ClauseSet.make([
            HornClause(ge(TX, 0), (), rel_atom(p, X)),
            HornClause(ge(TX, 5), (rel_atom(p, X),), None),
        ])
        cx = find_counterexample(hc, SolverOptions())
        assert cx is not None
        assert evaluate(cx.constraint, cx.model)
        assert cx.tree.size() == 2

    def test_solvable_set_yields_none(self):
        assert find_counterexample(PE.treelike_clauses()) is None


class TestTreeInterpolate:
    def test_treelike_subset_labels_pass_checks(self, monkeypatch):
        nhc = normalize(PE.treelike_clauses())
        (tp,) = tree_problem_from_treelike(nhc)
        gates = _counting(monkeypatch, "check_tree")
        labels = tree_interpolate(tp)
        from hornitp.problems import check_tree

        assert check_tree(tp, labels) == [] and len(gates) == 1

    def test_satisfiable_tree_raises_not_unsat(self):
        from hornitp.problems import TreeProblem

        tp = TreeProblem(("a", "root"), frozenset({("root", "a")}),
                         {"a": ge(TX, 0), "root": ge(TX, 1)}, "root")
        with pytest.raises(NotUnsat) as exc:
            tree_interpolate(tp)
        assert evaluate(ge(TX, 0), exc.value.model)

    def test_one_frontier_check_per_node_and_certificate(self, monkeypatch):
        nhc = normalize(PE.treelike_clauses())
        (tp,) = tree_problem_from_treelike(nhc)
        per_certificate = _label_checks_per_certificate(monkeypatch)
        tree_interpolate(tp)
        assert per_certificate and set(per_certificate) == {len(tp.nodes)}


class TestSequenceInterpolants:
    def test_labels_form_inductive_sequence(self, monkeypatch):
        y = Var("y", INT)
        sp = SequenceProblem((ge(TX, 0), le(TX - LinearTerm.of(y), 0),
                              lt(LinearTerm.of(y), 0)))
        gates = _counting(monkeypatch, "check_tree")
        labels = sequence_interpolants(sp)
        assert labels[0] is TRUE and len(gates) == 1
        assert check_sequence(sp, labels) == []


def _dag_shaped_sets(seed: int, count: int) -> list:
    """The first ``count`` random_clause_set draws of ``seed`` with a
    component that is linear and, normalized with its duplicate clauses
    merged, still not tree-like: a restricted DAG interpolation problem."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        hc = random_clause_set(rng)
        for comp in connected_components(hc):
            if classify(comp).linear and not classify(
                    merge_linear_duplicates(normalize(comp).clause_set)).tree_like:
                out.append(hc)
                break
    return out


class TestDagInterpolate:
    def test_diamond_labels_pass_checks(self, monkeypatch):
        nodes = ("en", "a", "b", "ex")
        edges = (("en", "a"), ("en", "b"), ("a", "ex"), ("b", "ex"))
        edge_labels = {("en", "a"): ge(TX, 0), ("en", "b"): ge(TX, 2),
                       ("a", "ex"): lt(TX, 0), ("b", "ex"): lt(TX, 2)}
        dp = DagProblem(nodes, edges, "en", "ex", edge_labels,
                        {v: TRUE for v in nodes},
                        {"en": frozenset(), "a": frozenset({X}),
                         "b": frozenset({X}), "ex": frozenset()})
        gates = _counting(monkeypatch, "check_dag")
        labels = dag_interpolate(dp)
        assert check_dag(dp, labels) == [] and len(gates) == 1

    def test_cone_budget_bounds_a_linear_dag_before_any_lp(self, monkeypatch):
        # 2^14 derivations of false, one cone each, as a clause set and as
        # the DAG problem read off it: over the default cube limit of 10,000
        def no_lp(atoms):
            raise AssertionError("an LP was solved")

        hc = ladder(14)
        ((dp, _),) = dag_problem_from_linear(normalize(hc))
        monkeypatch.setattr(engine, "decide_rational", no_lp)
        with pytest.raises(CubeLimitExceeded, match="derivation cones.*--cube-limit"):
            solve(hc)
        with pytest.raises(CubeLimitExceeded, match="derivation cones.*--cube-limit"):
            dag_interpolate(dp)

    def test_feasible_path_raises_not_unsat(self):
        nodes = ("en", "a", "ex")
        edges = (("en", "a"), ("a", "ex"))
        edge_labels = {("en", "a"): ge(TX, 0), ("a", "ex"): ge(TX, 5)}
        dp = DagProblem(nodes, edges, "en", "ex", edge_labels,
                        {v: TRUE for v in nodes},
                        {"en": frozenset(), "a": frozenset({X}),
                         "ex": frozenset()})
        with pytest.raises(NotUnsat):
            dag_interpolate(dp)

    def test_no_restricted_interpolant_raises_not_unsat(self):
        # every path is infeasible, but x may not pass through a or b
        nodes = ("en", "a", "b", "ex")
        edges = (("en", "a"), ("a", "b"), ("b", "ex"))
        edge_labels = {("en", "a"): ge(TX, 0), ("a", "b"): TRUE, ("b", "ex"): lt(TX, 0)}
        dp = DagProblem(nodes, edges, "en", "ex", edge_labels, {v: TRUE for v in nodes})
        assert dp.allowed_vars("a") == dp.allowed_vars("b") == frozenset()
        with pytest.raises(NotUnsat, match="no restricted DAG interpolant exists") as info:
            dag_interpolate(dp)
        assert "entry-to-exit path is satisfiable" not in str(info.value)
        # two instances of x, one for each edge
        assert sorted(info.value.model.values()) == [-1, 0]

    def test_cyclic_problem_is_malformed(self):
        nodes = ("en", "a", "b", "ex")
        edges = (("en", "a"), ("a", "b"), ("b", "a"), ("b", "ex"))
        with pytest.raises(MalformedProblem, match="cycle"):
            DagProblem(nodes, edges, "en", "ex", dict.fromkeys(edges, TRUE),
                       {v: TRUE for v in nodes})

    @pytest.mark.parametrize("fact, solvable", [(TRUE, False), (FALSE, True)],
                             ids=["refuted", "solved"])
    def test_symbol_named_like_the_entry_keeps_its_own_node(self, fact, solvable):
        # en <- false, q <- en, q <- true (or false), false <- q: the symbol
        # en and the entry sentinel "en" print alike, but are two nodes
        en, q = RelationSymbol("en", ()), RelationSymbol("q", ())
        hc = ClauseSet.make([
            HornClause(FALSE, (), rel_atom(en)),
            HornClause(TRUE, (rel_atom(en),), rel_atom(q)),
            HornClause(fact, (), rel_atom(q)),
            HornClause(TRUE, (rel_atom(q),), None),
        ])
        ((dp, _),) = dag_problem_from_linear(normalize(hc))
        assert "en" in dp.nodes and en in dp.nodes
        if solvable:
            assert check_dag(dp, dag_interpolate(dp)) == []
        else:
            with pytest.raises(NotUnsat, match="no restricted DAG interpolant exists"):
                dag_interpolate(dp)

    def test_each_linear_component_as_a_dag_problem(self):
        solved = refuted = 0
        for hc in _dag_shaped_sets(17, 40):
            for comp in connected_components(hc):
                if not classify(comp).linear:
                    continue
                ((dp, _),) = dag_problem_from_linear(normalize(comp))
                oracle_unsat = isinstance(sat(expand(comp)), Unsat)
                try:
                    labels = dag_interpolate(dp)
                except NotUnsat:
                    assert not oracle_unsat
                    refuted += 1
                else:
                    assert oracle_unsat and check_dag(dp, labels) == []
                    solved += 1
        assert solved >= 10 and refuted >= 10


class TestLinearDagRoute:
    """Linear components that stay not tree-like after merging go through
    the derivation cones, one path each."""

    def test_verdicts_match_expansion(self):
        verdicts = set()
        undecided = 0  # the oracle's integer branching gives up
        for hc in _dag_shaped_sets(11, 60):
            res = solve(hc)
            try:
                oracle_unsat = isinstance(sat(expand(hc)), Unsat)
            except UnknownResult:
                undecided += 1
                continue
            assert isinstance(res, Solved) == oracle_unsat
            if isinstance(res, Solved):
                assert verify_solution(res.solution, hc)
            verdicts.add(type(res))
        assert verdicts == {Solved, Counterexample} and undecided <= 2

    def test_ladder(self):
        hc = ladder(4)
        report = classify(hc)
        assert report.linear and not report.tree_like
        assert not classify(merge_linear_duplicates(normalize(hc).clause_set)).tree_like
        res = solve(hc)
        assert isinstance(res, Solved) and verify_solution(res.solution, hc)
        res = solve(ladder(4, unsafe=True))
        assert isinstance(res, Counterexample)
        # the all-b derivation: x = 2 * 4 at the query
        assert res.tree.size() == 2 + 2 * 4

    def test_one_cone_per_path_below_every_query(self):
        # two queries on one linear DAG, each counted against its own budget
        p, q, r = (RelationSymbol(n, (INT,)) for n in "pqr")
        hc = ClauseSet.make([
            HornClause(eq(TX, 0), (), rel_atom(p, X)),
            HornClause(eq(TX, 1), (), rel_atom(p, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(q, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(r, X)),
            HornClause(lt(TX, 0), (rel_atom(q, X),), None),
            HornClause(gt(TX, 1), (rel_atom(r, X),), None),
        ])
        comp = normalize(hc).clause_set
        assert len(list(solver._derivation_cones(comp, 2))) == 4
        with pytest.raises(CubeLimitExceeded):
            next(solver._derivation_cones(comp, 1))
        res = solve(hc)
        assert isinstance(res, Solved) and verify_solution(res.solution, hc)


class TestBodyDisjointTransform:
    def test_shared_body_symbol_copied(self):
        p = RelationSymbol("p", (INT,))
        q = RelationSymbol("q", (INT,))
        r = RelationSymbol("r", (INT,))
        hc = ClauseSet.make([
            HornClause(TRUE, (), rel_atom(p, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(q, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(r, X)),
            HornClause(TRUE, (rel_atom(q, X), rel_atom(r, X)), None),
        ])
        from hornitp.analysis import classify

        assert not classify(hc).body_disjoint
        transformed, copies, _ = body_disjoint_transform(hc)
        assert classify(transformed).body_disjoint
        assert len(copies[p]) >= 2

    def test_already_disjoint_is_identity(self):
        hc = PE.unwinding_clauses()
        transformed, copies, _ = body_disjoint_transform(hc)
        assert transformed.clauses == hc.clauses
        assert all(copies[s] == [s] for s in hc.relations)


def _reference_body_disjoint_transform(hc, limit=solver.DEFAULT_EXPANSION_LIMIT):
    """The fixpoint transform body_disjoint_transform replaced: copy the
    cone of the least-named shared body symbol for each of its later
    occurrences, recount every occurrence, repeat."""
    solver._check_recursion_free(hc)
    clauses = list(hc.clauses)
    origins = list(range(len(clauses)))
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

            def mapped(a):
                return RelationAtom(sigma.get(a.symbol, a.symbol), a.args)

            h = clauses[ci]
            body = list(h.body)
            body[pos] = mapped(body[pos])
            clauses[ci] = HornClause(h.constraint, tuple(body), h.head)
            for di, d in enumerate(list(clauses)):
                if d.head is not None and d.head.symbol in cone:
                    clauses.append(HornClause(d.constraint,
                                              tuple(mapped(b) for b in d.body),
                                              mapped(d.head)))
                    origins.append(origins[di])
                    if len(clauses) > limit:
                        raise ExpansionLimitExceeded(
                            limit, "clauses after duplicating derivation cones")
    return ClauseSet.make(clauses), copies, origins


def _verdict_class(hc) -> str:
    try:
        return type(solve(hc)).__name__
    except Exception as exc:  # a budget or an undecided integer problem
        return type(exc).__name__


class TestBodyDisjointWalk:
    def _duplicating(self) -> list:
        """The random_clause_set draws of seeds 0-3 (1,500 each) that
        _solve_component hands to the transform."""
        sets = []
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(1500):
                hc = random_clause_set(rng)
                report = classify(hc)
                if not (report.linear or report.body_disjoint):
                    sets.append(hc)
        return sets

    def test_matches_fixpoint_reference(self, monkeypatch):
        sets = self._duplicating()
        assert len(sets) == 2281
        verdicts = []
        for hc in sets:
            out, copies, origins = body_disjoint_transform(hc)
            ref, ref_copies, _ = _reference_body_disjoint_transform(hc)
            assert classify(out).body_disjoint
            assert len(out.clauses) == len(ref.clauses) == len(origins)
            assert ({s: len(c) for s, c in copies.items()}
                    == {s: len(c) for s, c in ref_copies.items()})
            assert all(copies[s][0] == s for s in copies)
            assert all(h.constraint == hc.clauses[i].constraint
                       for h, i in zip(out.clauses, origins))
            verdicts.append(_verdict_class(hc))
        monkeypatch.setattr(solver, "body_disjoint_transform", _reference_body_disjoint_transform)
        assert verdicts == [_verdict_class(hc) for hc in sets]
        assert {"Solved", "Counterexample"} <= set(verdicts)

    def test_copies_follow_the_walk(self):
        """The first body occurrence keeps its symbol; later ones and those in
        copied clauses get copies numbered in work-list order."""
        hc = diamond(2)
        out, copies, origins = body_disjoint_transform(hc)
        names = [(h.head.symbol.name if h.head is not None else None,
                  [b.symbol.name for b in h.body]) for h in out.clauses]
        assert names == [("p0", []), ("p1", ["p0", "p0~1"]), ("p2", ["p1", "p1~2"]),
                         (None, ["p2"]), ("p0~1", []), ("p1~2", ["p0~3", "p0~4"]),
                         ("p0~3", []), ("p0~4", [])]
        assert origins == [0, 1, 2, 3, 0, 1, 0, 0]
        assert [len(copies[s]) for s in sorted(copies)] == [4, 2, 1]

    def test_copies_skip_names_the_input_uses(self):
        # p~1 is an input symbol; a copy of p named p~1 merged with it, so
        # q(5) became derivable and solve reported a counterexample
        hc = chc.parse_chc("""(set-logic HORN)
            (declare-fun p (Int) Bool) (declare-fun p~1 (Int) Bool) (declare-fun q (Int) Bool)
            (assert (forall ((x Int)) (=> (= x 0) (p x))))
            (assert (forall ((x Int)) (=> (= x 5) (p~1 x))))
            (assert (forall ((x Int) (y Int)) (=> (and (p x) (p y)) (q (+ x y)))))
            (assert (forall ((x Int) (y Int)) (=> (and (q x) (p~1 y) (>= x 1)) false)))
            (assert (forall ((x Int)) (=> (and (p~1 x) (< x 0)) false)))""")
        out, copies, _ = body_disjoint_transform(hc)
        assert [c.name for c in copies[RelationSymbol("p", (INT,))]] == ["p", "p~2"]
        assert classify(out).body_disjoint
        res = solve(hc)
        assert isinstance(res, Solved) and verify_solution(res.solution, hc)

    def test_expansion_limit_counts_output_clauses(self):
        hc = diamond(6)  # 2^7 clauses after the transform
        assert len(body_disjoint_transform(hc, 128)[0].clauses) == 128
        with pytest.raises(ExpansionLimitExceeded, match="--expansion-limit"):
            body_disjoint_transform(hc, 127)


class TestSolve:
    def test_treelike_subset_solved_and_verified(self):
        res = solve(PE.treelike_clauses())
        assert isinstance(res, Solved)
        assert bool(verify_solution(res.solution, PE.treelike_clauses()))

    def test_unwinding_solved_and_verified(self):
        res = solve(PE.unwinding_clauses())
        assert isinstance(res, Solved)
        assert bool(verify_solution(res.solution, PE.unwinding_clauses()))

    def test_recursive_set_raises(self):
        with pytest.raises(RecursiveSystem):
            solve(PE.recursive_clauses())

    def test_counterexample_for_unsolvable(self):
        p = RelationSymbol("p", (INT,))
        hc = ClauseSet.make([
            HornClause(ge(TX, 0), (), rel_atom(p, X)),
            HornClause(ge(TX, 5), (rel_atom(p, X),), None),
        ])
        res = solve(hc)
        assert isinstance(res, Counterexample)
        assert evaluate(res.constraint, res.model)

    def test_missing_counterexample_is_an_internal_error(self, monkeypatch):
        # a merged step clause whose two clauses both fail under the model
        # (every variable 0): the check must raise, not assert or stop an
        # iteration, so that it holds under python -O
        cone_labels = solver._cone_labels

        def zero_model(comp, options):
            labels, (choice, _) = cone_labels(comp, options)
            return labels, (choice, {})

        monkeypatch.setattr(solver, "_cone_labels", zero_model)
        with pytest.raises(SolverInternalError, match="no counterexample"):
            solve(_shared(2, ge(TX, 3)))

    def test_branching_over_the_whole_tree_finds_a_counterexample(self):
        # draw 48 of this stream: branch and bound over the whole tree's LP
        # reaches an integral model within the default branch depth
        rng = random.Random(11)
        for _ in range(48):
            random_clause_set(rng)
        res = solve(random_clause_set(rng))
        assert isinstance(res, Counterexample)
        assert evaluate(res.constraint, res.model)

    @pytest.mark.parametrize("linear", [True, False])
    def test_query_free_component_gets_true(self, linear):
        # r(x) and y = x + 1 -> q(y), or r(x) and s(z) and y = x + z -> q(y):
        # without a false-head clause nothing constrains the symbols
        y, z = Var("y", INT), Var("z", INT)
        q, r, s = (RelationSymbol(n, (INT,)) for n in "qrs")
        body = (rel_atom(r, X),) if linear else (rel_atom(r, X), rel_atom(s, z))
        rhs = TX + 1 if linear else TX + LinearTerm.of(z)
        hc = ClauseSet.make([HornClause(eq(LinearTerm.of(y), rhs), body, rel_atom(q, y))])
        assert classify(hc).linear == linear
        res = solve(hc)
        assert isinstance(res, Solved)
        assert {p: body for p, (_, body) in res.solution.assignment.items()} == \
            {p: TRUE for p in hc.relations}

    def test_oracle_equivalence_sample(self):
        rng = random.Random(14)
        for _ in range(40):
            hc = random_clause_set(rng)
            try:
                oracle = sat(expand(hc))
                res = solve(hc)
            except UnknownResult:
                continue
            solvable = isinstance(res, Solved)
            assert solvable == isinstance(oracle, Unsat)
            if solvable:
                assert bool(verify_solution(res.solution, hc))
            else:
                assert evaluate(res.constraint, res.model)


def _accumulated(tree):
    """The accumulated constraint of a derivation, rebuilt from its tree:
    instances numbered in pre-order from 1, variable v of instance k renamed
    to v~k, each renamed constraint followed by its head's bindings."""
    parts, stack = [], [(tree, ())]
    while stack:
        t, binding = stack.pop()
        k = len(parts) + 1
        h = t.clause
        sigma = {v: LinearTerm.of(Var(f"{v.name}~{k}", v.sort)) for v in h.vars}
        parts.append(cand(substitute(h.constraint, sigma),
                          *(eq(s.substituted(sigma), b)
                            for s, b in zip(h.head.args if binding else (), binding))))
        stack += [(c, [x.substituted(sigma) for x in b.args])
                  for c, b in reversed(list(zip(t.children, h.body)))]
    return cand(*parts)


def _assert_checked(cx, hc):
    """cx is a derivation of false built from hc's own clause objects whose
    accumulated constraint holds under its model, Int values integral."""
    inputs = {id(h) for h in hc.clauses}
    assert cx.tree.clause.head is None
    stack = [cx.tree]
    while stack:
        t = stack.pop()
        assert id(t.clause) in inputs
        assert [c.clause.head.symbol for c in t.children] == [b.symbol for b in t.clause.body]
        stack += t.children
    assert cx.constraint == _accumulated(cx.tree)
    assert set(cx.model) == free_vars(cx.constraint)
    assert all(val.denominator == 1 for v, val in cx.model.items() if v.sort == INT)
    assert evaluate(cx.constraint, cx.model)


def _shared(n: int, query) -> ClauseSet:
    """p0(x) <- x = 0; two steps p_{i+1}(y) <- p_i(x), y = x+1 or y = x+2;
    query(x) and p_n(x) -> false.  Linear, shaped as a DAG."""
    y = Var("y", INT)
    ps = [RelationSymbol(f"p{i}", (INT,)) for i in range(n + 1)]
    clauses = [HornClause(eq(TX, 0), (), rel_atom(ps[0], X))]
    for i in range(n):
        for step in (1, 2):
            clauses.append(HornClause(eq(LinearTerm.of(y), TX + step),
                                      (rel_atom(ps[i], X),), rel_atom(ps[i + 1], y)))
    clauses.append(HornClause(query, (rel_atom(ps[n], X),), None))
    return ClauseSet.make(clauses)


def _duplicated_cone() -> ClauseSet:
    """p is defined twice and used by both q and r, so solving copies p's
    cone; only the second definition of p (x = 1) in both copies reaches
    false."""
    a, b, y = (Var(n, INT) for n in "aby")
    ty = LinearTerm.of(y)
    p, q, r = (RelationSymbol(n, (INT,)) for n in "pqr")
    return ClauseSet.make([
        HornClause(eq(TX, 0), (), rel_atom(p, X)),
        HornClause(eq(TX, 1), (), rel_atom(p, X)),
        HornClause(eq(ty, TX + 1), (rel_atom(p, X),), rel_atom(q, y)),
        HornClause(eq(ty, TX + 2), (rel_atom(p, X),), rel_atom(r, y)),
        HornClause(ge(LinearTerm.of(a) + LinearTerm.of(b), 5),
                   (rel_atom(q, a), rel_atom(r, b)), None),
    ])


def _unsolvable() -> ClauseSet:
    p = RelationSymbol("p", (INT,))
    return ClauseSet.make([
        HornClause(ge(TX, 0), (), rel_atom(p, X)),
        HornClause(ge(TX, 5), (rel_atom(p, X),), None),
    ])


def _relabeling(monkeypatch, change):
    """Make solver._label_tree_problem return its labels with ``change``
    applied to each non-root node's label."""
    label_tree_problem = solver._label_tree_problem

    def relabeled(tp, options):
        labels = label_tree_problem(tp, options)
        return {v: c if v == tp.root else change(c) for v, c in labels.items()}

    monkeypatch.setattr(solver, "_label_tree_problem", relabeled)


class TestOneGatePerAnswer:
    """solve's one gate is verify_solution on its input: its cone trees are
    labeled without check_tree (the tree, sequence and DAG entry points'
    own checks are counted in their classes), and each certificate's label
    checks still run."""

    @pytest.mark.parametrize("hc", [PE.treelike_clauses(), ladder(4)], ids=["treelike", "ladder4"])
    def test_solve_runs_no_check_tree(self, monkeypatch, hc):
        checks = _counting(monkeypatch, "check_tree")
        gates = _counting(monkeypatch, "verify_solution")
        label_checks = _counting(monkeypatch, "_fits_sum", engine)
        assert isinstance(solve(hc), Solved)
        assert checks == [] and len(gates) == 1 and label_checks

    @pytest.mark.parametrize("hc", [PE.treelike_clauses(), ladder(4)], ids=["treelike", "ladder4"])
    def test_too_weak_labeling_fails_verification(self, monkeypatch, hc):
        _relabeling(monkeypatch, lambda c: TRUE)
        with pytest.raises(SolverInternalError, match="failed verification"):
            solve(hc)

    def test_stray_variable_is_an_internal_error(self, monkeypatch):
        stray = ge(LinearTerm.of(Var("stray", INT)), 0)
        _relabeling(monkeypatch, lambda c: cor(c, stray))
        with pytest.raises(SolverInternalError, match="outside its parameters"):
            solve(PE.treelike_clauses())


class TestCounterexampleFromModel:
    """solve builds a Counterexample from the refuted cone and its tree's
    model, gated by evaluating its accumulated constraint."""

    def test_model_failing_the_derivation_is_an_internal_error(self, monkeypatch):
        # the refuted cone comes back with its model changed: the evaluation
        # gate must raise, not assert (python -O)
        cone_labels = solver._cone_labels

        def corrupting(comp, options):
            labels, (choice, model) = cone_labels(comp, options)
            return labels, (choice, {v: x - 10 for v, x in model.items()})

        monkeypatch.setattr(solver, "_cone_labels", corrupting)
        with pytest.raises(SolverInternalError, match="fails its derivation"):
            solve(_unsolvable())

    def test_fractional_int_model_is_an_internal_error(self, monkeypatch):
        # x + y = 1 and x = y hold at x = y = 1/2 but have no integer model
        y = Var("y", INT)
        p = RelationSymbol("p", (INT, INT))
        hc = ClauseSet.make([
            HornClause(cand(eq(TX + LinearTerm.of(y), 1), eq(TX, LinearTerm.of(y))), (),
                       rel_atom(p, X, y)),
            HornClause(TRUE, (rel_atom(p, X, y),), None),
        ])
        assert isinstance(solve(hc), Solved)
        half = {Var("p#0", INT): Fraction(1, 2), Var("p#1", INT): Fraction(1, 2)}

        def rational_model(*args, **kwargs):
            raise NotUnsat(half)

        monkeypatch.setattr(solver, "label_tree", rational_model)
        with pytest.raises(SolverInternalError, match="fails its derivation"):
            solve(hc)

    def test_solve_does_not_search_again(self, monkeypatch):
        def no_search(hc, options):
            raise AssertionError("find_counterexample called")

        monkeypatch.setattr(solver, "find_counterexample", no_search)
        sets = [_unsolvable(), _duplicated_cone(), _shared(3, ge(TX, 6)),
                chain_clauses(8, unsat=True)]
        for hc in sets:
            cx = solve(hc)
            assert isinstance(cx, Counterexample)
            _assert_checked(cx, hc)
        hc = _unsolvable()
        cx = solve(hc, SolverOptions(interpolate=binary_interpolant))
        assert isinstance(cx, Counterexample)  # the node-by-node path's first step
        _assert_checked(cx, hc)
        rng = random.Random(3)
        found = 0
        for _ in range(150):
            hc = random_clause_set(rng)
            try:
                res = solve(hc)
            except UnknownResult:
                continue
            if isinstance(res, Counterexample):
                found += 1
                _assert_checked(res, hc)
        assert found >= 20

    def test_one_derivation_has_the_expansion_as_constraint(self):
        # solve and expand build their clause instances by one rule, so a set
        # with exactly one derivation of false has the expansion as its
        # counterexample's constraint
        c = PE.increment_clauses()
        rec_is_2 = HornClause(eq(LinearTerm.of(PE.REC2), 2), c[10].body, c[10].head)
        treelike = ClauseSet.make([c[i - 1] for i in (1, 2, 3, 5, 6, 9, 12)] + [rec_is_2])
        assert classify(treelike).tree_like
        for hc in [chain_clauses(n, unsat=True) for n in range(1, 31)] + [treelike]:
            cx = solve(hc)
            assert isinstance(cx, Counterexample)
            assert cx.constraint == expand(hc)

    def test_branching_model_is_a_counterexample(self):
        # draw 722 of this stream: label_tree's branch and bound reaches an
        # integral model, where a search over derivations ran out of branch
        # depth; find_counterexample returns solve's
        rng = random.Random(2)
        for _ in range(722):
            random_clause_set(rng)
        hc = random_clause_set(rng)
        cx = solve(hc)
        assert isinstance(cx, Counterexample)
        _assert_checked(cx, hc)
        cx = find_counterexample(hc, SolverOptions())
        assert isinstance(cx, Counterexample)
        _assert_checked(cx, hc)

    def test_long_chain_counterexample(self):
        # 1,200 nested derivation steps, under the default recursion limit
        n = 1200
        hc = chc.parse_chc(chc.print_chc(chain_clauses(n, unsat=True)))
        cx = solve(hc)
        assert isinstance(cx, Counterexample)
        _assert_checked(cx, hc)
        assert len(cx.model) == 2 * n + 2
        assert cx.tree.size() == n + 2
        cx = find_counterexample(hc, SolverOptions())
        assert isinstance(cx, Counterexample)
        _assert_checked(cx, hc)

    @pytest.mark.parametrize("build", [_duplicated_cone, lambda: _shared(3, ge(TX, 6)),
                                       lambda: _shared(3, lt(TX, 0))],
                             ids=["duplicated-cone", "shared-3-reachable", "shared-3"])
    def test_verdict_matches_expansion(self, build):
        hc = build()
        res = solve(hc)
        assert isinstance(res, Counterexample) == isinstance(sat(expand(hc)), Sat)
        if isinstance(res, Counterexample):
            _assert_checked(res, hc)

    def test_counterexample_is_the_refuted_cone(self):
        # copies: only x = 1 for both copies of p reaches false, and the cone
        # gives back p's second input clause object for each copy
        hc = _duplicated_cone()
        cx = solve(hc)
        _assert_checked(cx, hc)
        assert [c.clause for c in cx.tree.children] == [hc.clauses[2], hc.clauses[3]]
        assert all(c.children[0].clause is hc.clauses[1] for c in cx.tree.children)
        # merged steps: only the +2 step everywhere reaches x >= 6
        hc = _shared(3, ge(TX, 6))
        cx = solve(hc)
        t, steps = cx.tree, []
        while t.children:
            (t,) = t.children
            steps.append(t.clause)
        assert steps == [hc.clauses[6], hc.clauses[4], hc.clauses[2], hc.clauses[0]]
        # several step choices reach x >= 6 in four steps: instance k reports
        # the first of its step's two clauses that holds on its variables v~k
        hc = _shared(4, ge(TX, 6))
        cx = solve(hc)
        _assert_checked(cx, hc)
        t, k = cx.tree, 1
        while t.children:
            (t,) = t.children
            k += 1
            if t.clause.body:
                twins = [h for h in hc.clauses if h.head == t.clause.head and h.body]
                ren = {v: Var(f"{v.name}~{k}", v.sort) for v in t.clause.vars}
                holds = [h for h in twins
                         if evaluate(rename_injective(h.constraint, ren), cx.model)]
                assert len(twins) == 2 and t.clause is holds[0]

    def test_first_refuted_cone_in_query_order(self):
        # q(x) <- p(x) & t(y) and r(x) <- p(x) share the underivable p, so
        # its copy splits the set in two; both halves reach false, and the
        # cone below the first query clause (r's, x >= 7) is the one
        # reported, although q's clauses come first
        p, q, r, t = (RelationSymbol(n, (INT,)) for n in "pqrt")
        y = Var("y", INT)
        hc = ClauseSet.make([
            HornClause(TRUE, (rel_atom(p, X), rel_atom(t, y)), rel_atom(q, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(r, X)),
            HornClause(ge(TX, 0), (), rel_atom(r, X)),
            HornClause(ge(TX, 7), (rel_atom(r, X),), None),
            HornClause(ge(TX, 0), (), rel_atom(q, X)),
            HornClause(ge(TX, 5), (rel_atom(q, X),), None),
        ])
        assert len(connected_components(hc)) == 1
        assert len(connected_components(normalize(body_disjoint_transform(hc)[0]).clause_set)) == 2
        cx = solve(hc)
        _assert_checked(cx, hc)
        assert cx.tree.clause is hc.clauses[3]
        assert cx.tree.children[0].clause is hc.clauses[2]

    def test_cone_budget_spans_the_halves_a_copy_splits(self):
        # the copy of the underivable p splits off an unsafe half (r) and a
        # half with 4 cones below its query (q, through t's 4 facts); every
        # query is counted before any cone is built, so a cube limit of 3
        # stops the run, as it does when the two halves are separate
        # components of the input, rather than reporting r's counterexample
        p, q, r, t = (RelationSymbol(n, (INT,)) for n in "pqrt")
        y = Var("y", INT)
        hc = ClauseSet.make([
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(r, X)),
            HornClause(ge(TX, 0), (), rel_atom(r, X)),
            HornClause(ge(TX, 7), (rel_atom(r, X),), None),
            HornClause(TRUE, (rel_atom(p, X), rel_atom(t, y)), rel_atom(q, X)),
            *[HornClause(eq(LinearTerm.of(y), k), (), rel_atom(t, y)) for k in range(4)],
            HornClause(ge(TX, 5), (rel_atom(q, X),), None),
        ])
        assert len(connected_components(normalize(body_disjoint_transform(hc)[0]).clause_set)) == 2
        _assert_checked(solve(hc), hc)
        with pytest.raises(CubeLimitExceeded, match="derivation cones.*--cube-limit"):
            solve(hc, SolverOptions(cube_limit=3))


def _rebuilt(tree, cls=DerivationTree, clause_of=lambda t: t.clause):
    """A node-by-node copy of ``tree`` as ``cls`` instances, node t getting
    the clause ``clause_of(t)``; built bottom-up, without recursion."""
    order, stack = [], [tree]
    while stack:
        t = stack.pop()
        order.append(t)
        stack += t.children
    built: dict = {}
    for t in reversed(order):
        built[id(t)] = cls(clause_of(t), tuple(built[id(c)] for c in t.children))
    return built[id(tree)]


class TestDerivationTree:
    """repr, hash and == of a DerivationTree do not recurse per tree level
    and give what the generated dataclass methods give."""

    def test_long_chain_tree(self):
        # 1,202 nested nodes under the default recursion limit
        hc = chain_clauses(1200, unsat=True)
        tree = solve(hc).tree
        copy = _rebuilt(tree)
        assert copy is not tree and copy.children[0] is not tree.children[0]
        assert copy == tree and not copy != tree
        assert hash(copy) == hash(tree)
        text = repr(tree)
        assert text == repr(copy) and text.count("DerivationTree(clause=") == 1202
        # the same tree but for its deepest leaf
        other = _rebuilt(tree, clause_of=lambda t: t.clause if t.children else hc.clauses[1])
        assert other != tree and tree != other
        assert len({tree, copy, other}) == 2

    def test_small_trees_match_the_generated_methods(self):
        generated = make_dataclass("DerivationTree", [("clause", object), ("children", tuple)],
                                   frozen=True)
        for hc in (_duplicated_cone(), chain_clauses(2, unsat=True)):
            tree = solve(hc).tree
            ref = _rebuilt(tree, generated)
            assert repr(tree) == repr(ref) and hash(tree) == hash(ref)
            assert tree == _rebuilt(tree) and tree != ref

    def test_unequal_shapes(self):
        hc = _duplicated_cone()
        tree = solve(hc).tree
        pruned = DerivationTree(tree.clause, tree.children[:1])
        assert tree != pruned and pruned != tree
        assert tree.children[0] != tree.children[1]
        assert DerivationTree(tree.clause, tree.children[::-1]) != tree


def _recursive_enumerate_cones(comp, limit):
    """The clause-index sets of solver._derivation_cones, in order, by a
    recursive depth-first search over a queue of symbols to derive."""
    clauses = comp.clauses
    false_idx = [i for i, h in enumerate(clauses) if h.head is None]
    if not false_idx:
        return []
    by_head: dict = {}
    for i, h in enumerate(clauses):
        if h.head is not None:
            by_head.setdefault(h.head.symbol, []).append(i)
    cones: list = []

    def go(pending, chosen):
        if not pending:
            if len(cones) == limit:
                raise CubeLimitExceeded(limit, "derivation cones below one query clause")
            cones.append(chosen)
            return
        s, rest = pending[0], pending[1:]
        defining = by_head.get(s, [])
        if not defining:
            go(rest, chosen)
            return
        for ci in defining:
            go(rest + tuple(b.symbol for b in clauses[ci].body), chosen | {ci})

    go(tuple(b.symbol for b in clauses[false_idx[0]].body), frozenset({false_idx[0]}))
    unique = []
    for c in cones:
        if c not in unique:
            unique.append(c)
    return unique


def _recursive_subcones(comp, cone):
    """The derivation keys of solver._derivation_cones for ``cone``, as a
    memoized recursion."""
    head_of = {comp.clauses[i].head.symbol: i for i in cone
               if comp.clauses[i].head is not None}
    memo: dict = {}

    def sub(p):
        if p not in memo:
            acc = frozenset()
            if p in head_of:
                acc = frozenset({head_of[p]})
                for b in comp.clauses[head_of[p]].body:
                    acc |= sub(b.symbol)
            memo[p] = acc
        return memo[p]

    symbols = set()
    for i in cone:
        symbols |= comp.clauses[i].symbols
    for p in symbols:
        sub(p)
    return memo


def _cone_of(comp, keys) -> frozenset:
    """The clause-index set of the cone of ``comp`` whose derivation keys
    are ``keys``: its false-head clause and every key."""
    query = next(i for i, h in enumerate(comp.clauses) if h.head is None)
    return frozenset({query}).union(*keys.values())


class TestDerivationCones:
    def _components(self):
        """Normalized body-disjoint components: the tests/data sets, seeded
        random sets, and random sets made body-disjoint by the transform."""
        sets = _data_sets()
        rng = random.Random(41)
        while len(sets) < 120:
            hc = random_clause_set(rng)
            if not classify(hc).body_disjoint:
                hc, _, _ = body_disjoint_transform(hc)
            sets.append(hc)
        return [sub for hc in sets
                for sub in connected_components(normalize(hc).clause_set)]

    def test_iterative_matches_recursive(self):
        several = 0
        for comp in self._components():
            cones = list(solver._derivation_cones(comp, 4096))
            assert ([_cone_of(comp, keys) for _, keys, _ in cones]
                    == _recursive_enumerate_cones(comp, 4096))
            several += len(cones) > 1
            for _, keys, choice in cones:
                assert keys == _recursive_subcones(comp, _cone_of(comp, keys))
                # the choice is each defined symbol's clause in its key
                assert comp.clauses[choice.pop(None)].head is None
                assert choice == {s: ci for s, key in keys.items() for ci in key
                                  if comp.clauses[ci].head.symbol == s}
        assert several >= 5

    def test_trees_match_tree_problem_from_treelike(self):
        """Each cone's tree is the one tree_problem_from_treelike reads off
        the cone's clauses; the walk lists the same nodes in its own order."""
        for comp in self._components():
            for tp, keys, _ in solver._derivation_cones(comp, 4096):
                cone = ClauseSet.make([comp.clauses[i] for i in sorted(_cone_of(comp, keys))])
                (ref,) = tree_problem_from_treelike(NormalizedClauseSet(cone, {}))
                assert (tp.edges, tp.labels, tp.root) == (ref.edges, ref.labels, ref.root)
                assert len(tp.nodes) == len(ref.nodes) and set(tp.nodes) == set(ref.nodes)
                assert set(keys) == set(tp.nodes) - {tp.root}

    def test_cone_budget_follows_cube_limit(self, monkeypatch):
        # one query over two symbols with two facts each: 4 cones below one
        # query clause, and the set is not linear, so no merge makes the
        # facts one label's cubes
        q0, q1 = RelationSymbol("q0", (INT,)), RelationSymbol("q1", (INT,))
        y = Var("y", INT)
        hc = ClauseSet.make([
            *(HornClause(eq(TX, v), (), rel_atom(q, X)) for q in (q0, q1) for v in (0, 1)),
            HornClause(lt(TX, 0), (rel_atom(q0, X), rel_atom(q1, y)), None),
        ])
        lps, decide = [], engine.decide_rational
        monkeypatch.setattr(engine, "decide_rational",
                            lambda atoms: lps.append(atoms) or decide(atoms))
        res = solve(hc)
        assert isinstance(res, Solved) and verify_solution(res.solution, hc) and lps
        lps.clear()
        with pytest.raises(CubeLimitExceeded,
                           match=r"^derivation cones below one query clause would exceed 3"
                                 r" \(--cube-limit\)$"):
            solve(hc, SolverOptions(cube_limit=3))
        assert lps == []

    def test_cones_are_counted_before_any_is_built(self, monkeypatch):
        # ladder(14): 2^14 cones below its one query clause, over the
        # default cube limit of 10,000
        trees = _counting(monkeypatch, "TreeProblem")
        lps = _counting(monkeypatch, "decide_rational", engine)
        with pytest.raises(CubeLimitExceeded, match="^derivation cones below one query clause"):
            solve(ladder(14))
        assert trees == [] and lps == []

    def test_subset_limit_matches_recursive(self):
        comps = [c for c in self._components()
                 if len(_recursive_enumerate_cones(c, 4096)) > 1]
        for comp in comps:
            for limit in range(4):
                try:
                    expected = _recursive_enumerate_cones(comp, limit)
                except CubeLimitExceeded:
                    with pytest.raises(CubeLimitExceeded):
                        next(solver._derivation_cones(comp, limit))
                else:
                    cones = solver._derivation_cones(comp, limit)
                    assert [_cone_of(comp, keys) for _, keys, _ in cones] == expected

    def test_long_chain(self):
        n = 3000
        comp = normalize(chain_clauses(n)).clause_set
        ((tp, keys, choice),) = solver._derivation_cones(comp, 4096)
        assert _cone_of(comp, keys) == frozenset(range(n + 2))
        assert len(tp.nodes) == n + 2 and tp.order[-1] == tp.root
        # p_i is derived by the fact and the first i steps
        assert sorted(len(s) for s in keys.values()) == list(range(1, n + 2))
        assert sorted(choice.values()) == list(range(n + 2))


def _path_tree(labels):
    """Path tree over ``labels`` (first one a leaf, last one the root)."""
    nodes = tuple(range(len(labels)))
    edges = frozenset((i + 1, i) for i in range(len(labels) - 1))
    return TreeProblem(nodes, edges, dict(enumerate(labels)), nodes[-1])


def _counting(monkeypatch, name, module=solver):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _label_checks_per_certificate(monkeypatch) -> list:
    """A list that gets, per certificate engine.label_tree reads, the
    number of engine._fits_sum checks made on its labels."""
    per_certificate = []
    read, fits = engine._subtree_labels, engine._fits_sum

    def reading(*args):
        per_certificate.append(0)
        return read(*args)

    def fitting(*args):
        per_certificate[-1] += 1
        return fits(*args)

    monkeypatch.setattr(engine, "_subtree_labels", reading)
    monkeypatch.setattr(engine, "_fits_sum", fitting)
    return per_certificate


class TestCertificateLabels:
    """Labels read off one Farkas certificate per cube choice."""

    VARS = [Var(f"u{i}", INT) for i in range(3)]

    def _random_tree(self, rng, disjunctive):
        n = rng.randint(1, 6)
        edges = frozenset((rng.randrange(i), i) for i in range(1, n))
        labels = {i: random_cube(rng, self.VARS, max_atoms=3) for i in range(n)}
        for i in rng.sample(range(n), min(disjunctive, n)):
            labels[i] = cor(random_cube(rng, self.VARS),
                            ne(LinearTerm.of(rng.choice(self.VARS)), rng.randint(-2, 2)))
        return TreeProblem(tuple(range(n)), edges, labels, 0)

    def test_random_trees_pass_check_tree(self, monkeypatch):
        rng = random.Random(31)
        sweeps = _counting(monkeypatch, "_node_by_node_labels")
        per_certificate = _label_checks_per_certificate(monkeypatch)
        solved = {0: 0, 1: 0, 2: 0}
        while min(solved.values()) < 15:
            disjunctive = rng.choice(list(solved))
            tp = self._random_tree(rng, disjunctive)
            # keep trees whose every cube choice is rationally unsatisfiable,
            # so that no choice needs integer branching; a label without
            # cubes (false) may go either way
            if not (all(to_dnf(c) for c in tp.labels.values())
                    and all(isinstance(decide_rational(list(c.atoms)), Unsat)
                            for c in to_dnf(cand(*tp.labels.values())))):
                continue
            per_certificate.clear()
            labels = tree_interpolate(tp)
            assert check_tree(tp, labels) == []
            assert per_certificate and set(per_certificate) == {len(tp.nodes)}
            solved[disjunctive] += 1
        assert sweeps == []

    def test_sequence_is_one_lp(self, monkeypatch):
        xs = [Var(f"x{i}", INT) for i in range(10)]
        parts = [ge(LinearTerm.of(xs[0]), 0)]
        parts += [eq(LinearTerm.of(xs[i]), LinearTerm.of(xs[i - 1]) + 1) for i in range(1, 9)]
        parts.append(cand(eq(LinearTerm.of(xs[9]), LinearTerm.of(xs[8]) + 1),
                          lt(LinearTerm.of(xs[9]), 9)))
        sp = SequenceProblem(tuple(parts))
        # each _interpolate_cubes call solves one LP; engine.decide_rational
        # also serves the satisfiability checks of check_tree and check_sequence
        lps = _counting(monkeypatch, "_interpolate_cubes", engine)
        labels = sequence_interpolants(sp)
        assert check_sequence(sp, labels) == []
        assert len(lps) == 1

    def test_false_label_needs_no_lp(self, monkeypatch):
        # an underivable symbol gets the label false
        tp = TreeProblem(("a", "b", "c", "root"),
                         frozenset({("root", "a"), ("a", "b"), ("root", "c")}),
                         {"a": ge(TX, 1), "b": FALSE, "c": le(TX, 3), "root": TRUE}, "root")
        lps = _counting(monkeypatch, "decide_rational", engine)
        sweeps = _counting(monkeypatch, "_node_by_node_labels")
        labels = tree_interpolate(tp)
        assert check_tree(tp, labels) == []
        assert labels == {"a": FALSE, "b": FALSE, "c": TRUE, "root": FALSE}
        assert (len(lps), len(sweeps)) == (0, 0)

    def test_integer_branching_is_a_case_split(self, monkeypatch):
        # x = 2y in [0, 6] against x = 2z + 1: rationally satisfiable, so the
        # one cube choice is refuted only by branching on a fractional value
        y, z = Var("y", INT), Var("z", INT)
        node = cand(eq(TX, LinearTerm.of(y).scale(2)), ge(TX, 0), le(TX, 6))
        tp = _path_tree([node, eq(TX, LinearTerm.of(z).scale(2) + 1)])
        lps = _counting(monkeypatch, "_interpolate_cubes", engine)
        sweeps = _counting(monkeypatch, "_node_by_node_labels")
        labels = tree_interpolate(tp)
        assert check_tree(tp, labels) == []
        assert len(lps) > 1
        assert sweeps == []

    def test_label_false_only_after_dnf_is_a_false_label(self, monkeypatch):
        # an empty or has no cubes but is not the constant FALSE
        tp = TreeProblem(("a", "b", "c", "root"),
                         frozenset({("root", "a"), ("a", "b"), ("root", "c")}),
                         {"a": ge(TX, 1), "b": COr(()), "c": le(TX, 3), "root": TRUE},
                         "root")
        sweeps = _counting(monkeypatch, "_node_by_node_labels")
        labels = tree_interpolate(tp)
        assert check_tree(tp, labels) == []
        assert labels == {"a": FALSE, "b": FALSE, "c": TRUE, "root": FALSE}
        assert sweeps == []

    def test_random_sets_need_no_sweep(self, monkeypatch):
        # draws 19, 89 and 139 of this stream have a cube choice whose
        # rational model is fractional on an Int variable; without a backend
        # no tree goes node by node
        rng = random.Random(5)
        sweeps = _counting(monkeypatch, "_node_by_node_labels")
        for _ in range(140):
            solve(random_clause_set(rng))
        assert sweeps == []

    def test_external_interpolate_goes_node_by_node(self):
        calls = []

        def recorder(a, b, branch_depth, cube_limit):
            calls.append((a, b))
            return binary_interpolant(a, b, branch_depth, cube_limit)

        y = Var("y", INT)
        tp = TreeProblem(("l1", "l2", "root"),
                         frozenset({("root", "l1"), ("root", "l2")}),
                         {"l1": ge(TX, 0), "l2": le(TX - LinearTerm.of(y), 0),
                          "root": lt(LinearTerm.of(y), 0)}, "root")
        labels = tree_interpolate(tp, SolverOptions(interpolate=recorder))
        assert check_tree(tp, labels) == []
        assert len(calls) == 2

    def test_satisfiable_disjunctive_tree_raises_not_unsat(self):
        y, z = Var("y", INT), Var("z", INT)
        labels = [cor(le(TX, 0), ge(TX, 5)),
                  cand(eq(LinearTerm.of(y), TX + 1), ge(LinearTerm.of(z), 0)),
                  ge(LinearTerm.of(y), 3)]
        with pytest.raises(NotUnsat) as exc:
            tree_interpolate(_path_tree(labels))
        assert all(evaluate(c, exc.value.model) for c in labels)

    def test_weakened_labels_fail_the_frontier_check(self, monkeypatch):
        # x >= 0, y = x, y < 0 over the reals: the certificate sums to 0 < 0,
        # at every scale, so labels weakened by 1 leave -1 < 0; the label
        # check finds node 0's constant below its subtree's sum's, and it
        # runs under solve as under tree_interpolate
        x, y = Var("x", REAL), Var("y", REAL)
        tp = _path_tree([ge(LinearTerm.of(x), 0), eq(LinearTerm.of(y), LinearTerm.of(x)),
                         lt(LinearTerm.of(y), 0)])
        assert check_tree(tp, tree_interpolate(tp)) == []
        weakened = engine.atom
        monkeypatch.setattr(engine, "atom", lambda term, rel: weakened(term - 1, rel))
        with pytest.raises(SolverInternalError, match="certificate label of node 0 does not fit"):
            tree_interpolate(tp)
        with pytest.raises(SolverInternalError, match="certificate label of node .* does not fit"):
            solve(PE.treelike_clauses())

    def test_label_that_drops_strictness_fails_the_label_check(self, monkeypatch):
        # y < 0, y = x, x >= 0 over the reals: leaf 0's label y < 0 keeps its
        # sum's strictness, and y <= 0 in its place would leave the remaining
        # atoms satisfiable (x = y = 0)
        x, y = Var("x", REAL), Var("y", REAL)
        tp = _path_tree([lt(LinearTerm.of(y), 0), eq(LinearTerm.of(y), LinearTerm.of(x)),
                         ge(LinearTerm.of(x), 0)])
        assert tree_interpolate(tp)[0] == lt(LinearTerm.of(y), 0)
        unstrict = engine.atom
        monkeypatch.setattr(engine, "atom", lambda term, rel: unstrict(term, "<="))
        with pytest.raises(SolverInternalError, match="certificate label of node 0 does not fit"):
            tree_interpolate(tp)

    def test_dropped_child_sum_fails_the_root_check(self):
        # leaf 0 says x >= 0 and root 1 says x <= -1; with the leaf left out
        # of the root's children, leaf 0's label still fits its own sum, but
        # the root's atoms alone sum to x + 1, no contradiction
        cubes = [to_dnf(ge(TX, 0)), to_dnf(le(TX, -1))]
        assert engine.label_tree(cubes, ([], [0]), check=True) == [le(-TX, 0), FALSE]
        with pytest.raises(SolverInternalError, match="certificate label of node 1 does not fit"):
            engine.label_tree(cubes, ([], []), check=True)

    def test_cube_product_over_limit(self):
        # five labels of two cubes each: 32 choices
        tp = _path_tree([ne(TX, i) for i in range(5)] + [eq(TX, 0)])
        with pytest.raises(CubeLimitExceeded, match=r"^cube choices .*\(--cube-limit\)$"):
            tree_interpolate(tp, SolverOptions(cube_limit=20))
