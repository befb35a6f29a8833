"""Reductions between interpolation problems and clause fragments."""

import random

import pytest

import worked_examples as PE
from generators import random_cube
from hornitp import chc, solver
from hornitp.analysis import classify, normalize
from hornitp.encodings import (
    ENTRY_NODE,
    EXIT_NODE,
    FALSE_NODE,
    _atom_on,
    _symbol_for,
    binary_to_horn,
    dag_problem_from_linear,
    dag_problem_to_horn,
    sequence_from_linear_treelike,
    sequence_to_horn,
    tree_problem_from_treelike,
    tree_problem_to_horn,
)
from hornitp.errors import WrongFragment
from hornitp.horn import ClauseSet, HornClause, Solution, verify_solution
from hornitp.problems import DagProblem, SequenceProblem, TreeProblem
from hornitp.solver import Solved, solve
from hornitp.terms import FALSE, INT, TRUE, LinearTerm, Var, free_vars, ge, le, lt

X = Var("x", INT)
Y = Var("y", INT)
TX = LinearTerm.of(X)
TY = LinearTerm.of(Y)


class TestBinaryToHorn:
    def test_fragment_and_shape(self):
        hc = binary_to_horn(ge(TX, 0), le(TX, -1))
        report = classify(hc)
        assert report.recursion_free and report.linear_tree_like
        assert len(hc.clauses) == 2

    def test_solutions_are_interpolants(self):
        a, b = ge(TX, 0), le(TX, -1)
        hc = binary_to_horn(a, b)
        res = solve(hc)
        assert isinstance(res, Solved)
        ((params, formula),) = [res.solution.assignment[s] for s in hc.relations]
        from hornitp.engine import check_interpolant
        from hornitp.terms import rename_injective

        itp = rename_injective(formula, {params[0]: X})
        assert check_interpolant(a, b, itp) == []


class TestSequenceToHorn:
    def _sp(self):
        return SequenceProblem((ge(TX, 0), le(TX - TY, 0), lt(TY, 0)))

    def test_fragment_and_clause_count(self):
        hc = sequence_to_horn(self._sp())
        report = classify(hc)
        assert report.recursion_free and report.linear_tree_like
        assert len(hc.clauses) == len(self._sp().parts) + 2

    def test_argument_vectors_are_shared_variables(self):
        sp = self._sp()
        hc = sequence_to_horn(sp)
        fvs = [free_vars(t) for t in sp.parts]
        by_name = {s.name: s for s in hc.relations}
        for i in range(len(sp.parts) + 1):
            prefix = frozenset().union(*fvs[:i], frozenset())
            suffix = frozenset().union(*fvs[i:], frozenset())
            assert by_name[f"p{i}"].arity == len(prefix & suffix)

    def test_solution_labels_check_as_sequence(self):
        from hornitp.problems import check_sequence
        from hornitp.solver import sequence_interpolants

        labels = sequence_interpolants(self._sp())
        assert check_sequence(self._sp(), labels) == []


class TestSequenceFromLinearTreelike:
    def test_chain_recovered(self):
        sp = SequenceProblem((ge(TX, 0), le(TX - TY, 0), lt(TY, 0)))
        hc = sequence_to_horn(sp)
        problems = sequence_from_linear_treelike(normalize(hc))
        assert len(problems) == 1
        got_sp, chain = problems[0]
        assert len(got_sp.parts) == len(sp.parts) + 2  # entry/exit parts
        assert len(chain) == len(sp.parts) + 1

    def test_wrong_fragment_rejected(self):
        with pytest.raises(WrongFragment):
            sequence_from_linear_treelike(normalize(PE.treelike_clauses()))


class TestTreeProblemToHorn:
    def _tp(self):
        nodes = ("l1", "l2", "root")
        edges = frozenset({("root", "l1"), ("root", "l2")})
        labels = {"l1": ge(TX, 0), "l2": le(TX - TY, 0), "root": lt(TY, 0)}
        return TreeProblem(nodes, edges, labels, "root")

    def test_fragment_and_clause_count(self):
        hc = tree_problem_to_horn(self._tp())
        report = classify(hc)
        assert report.recursion_free and report.tree_like
        assert len(hc.clauses) == len(self._tp().nodes) + 1

    def test_treelike_subset_encodes_to_8_plus_1(self):
        nhc = normalize(PE.treelike_clauses())
        (tp,) = tree_problem_from_treelike(nhc)
        hc = tree_problem_to_horn(tp)
        assert len(hc.clauses) == len(tp.nodes) + 1
        assert classify(hc).tree_like

    def test_nodes_that_print_alike_keep_their_own_symbols(self):
        # the path 0 -> "1" -> 1: symbols named by str(v) merged "1" and 1
        tp = TreeProblem((0, "1", 1), frozenset({(0, "1"), ("1", 1)}),
                         {0: le(TX, 5), "1": le(TX, -1), 1: ge(TX, 0)}, 0)
        solver.tree_interpolate(tp)
        hc = tree_problem_to_horn(tp)
        assert sorted(s.name for s in hc.relations) == ["p0", "p1", "p2"]
        assert isinstance(solve(hc), Solved)


def _children(tp, v):
    """The children of v in str order, by a scan of the edges."""
    return sorted((c for p, c in tp.edges if p == v), key=str)


def _subtree(tp, v):
    """The nodes reachable from v, v included."""
    out, stack = {v}, [v]
    while stack:
        for c in _children(tp, stack.pop()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return frozenset(out)


def _reference_tree_problem_to_horn(tp):
    """tree_problem_to_horn as the definition reads: every subtree by
    reachability, every shared set by union over the nodes in and out."""
    vectors = {}
    symbols = {}
    all_nodes = set(tp.nodes)
    for i, v in enumerate(tp.nodes):
        inside = _subtree(tp, v)
        below = frozenset().union(*(free_vars(tp.labels[w]) for w in inside), frozenset())
        above = frozenset().union(
            *(free_vars(tp.labels[w]) for w in all_nodes - inside), frozenset())
        vectors[v] = sorted(below & above)
        symbols[v] = _symbol_for(f"p{i}", vectors[v])
    clauses = []
    for v in sorted(tp.nodes, key=str):
        body = tuple(_atom_on(symbols[c], vectors[c]) for c in _children(tp, v))
        clauses.append(HornClause(tp.labels[v], body, _atom_on(symbols[v], vectors[v])))
    clauses.append(HornClause(TRUE, (_atom_on(symbols[tp.root], vectors[tp.root]),), None))
    return ClauseSet.make(clauses)


class _NoScans:
    """An edge set that fails when it is iterated."""

    def __iter__(self):
        raise AssertionError("tree_problem_to_horn rescanned the edges")


class TestTreeProblemToHornBookkeeping:
    def _problems(self, solved_trees):
        """The trees solved for tests/data, then seeded random trees with
        mixed node names and cube labels over a small shared pool."""
        for name in ("increment_treelike", "increment_unwound"):
            with open(f"tests/data/{name}.chc") as fh:
                solver.solve(chc.parse_chc(fh.read()))
        problems = [tp for tp, _ in solved_trees]
        assert len(problems) >= 3
        rng = random.Random(31)
        pool = [Var(f"u{i}", INT) for i in range(6)]
        for _ in range(60):
            n = rng.randint(1, 30)
            names = [i if rng.random() < 0.5 else f"n{i}" for i in range(n)]
            edges = frozenset((names[rng.randrange(i)], names[i]) for i in range(1, n))
            labels = {v: random_cube(rng, pool, max_atoms=2) for v in names}
            problems.append(TreeProblem(tuple(names), edges, labels, names[0]))
        return problems

    def test_same_clause_set_as_the_definition(self, solved_trees):
        problems = self._problems(solved_trees)
        expected = [_reference_tree_problem_to_horn(tp) for tp in problems]
        assert sum(any(s.arity for s in hc.relations) for hc in expected) >= 40
        for tp in problems:
            object.__setattr__(tp, "edges", _NoScans())
        assert [tree_problem_to_horn(tp) for tp in problems] == expected


class TestTreeProblemFromTreelike:
    def test_nodes_are_symbols_plus_false(self):
        nhc = normalize(PE.treelike_clauses())
        (tp,) = tree_problem_from_treelike(nhc)
        names = {v.name if hasattr(v, "name") else v for v in tp.nodes}
        assert FALSE_NODE in names
        assert len(tp.nodes) == len(PE.treelike_clauses().relations) + 1

    def test_component_without_false_clause_omitted(self):
        from hornitp.horn import ClauseSet, HornClause, rel_atom

        hc = ClauseSet.make([HornClause(TRUE, (), rel_atom(PE.r1, X, Y))])
        assert tree_problem_from_treelike(normalize(hc)) == []

    def test_wrong_fragment_rejected(self):
        with pytest.raises(WrongFragment):
            tree_problem_from_treelike(normalize(PE.unwinding_clauses()))


class TestDagProblemToHorn:
    def _dp(self):
        nodes = ("en", "a", "ex")
        edges = (("en", "a"), ("a", "ex"))
        edge_labels = {("en", "a"): ge(TX, 0), ("a", "ex"): lt(TX, 0)}
        return DagProblem(nodes, edges, "en", "ex", edge_labels,
                          {v: TRUE for v in nodes},
                          {"en": frozenset(), "a": frozenset({X}),
                           "ex": frozenset()})

    def test_fragment_is_linear(self):
        hc = dag_problem_to_horn(self._dp())
        report = classify(hc)
        assert report.recursion_free and report.linear

    def test_trivial_guards_folded(self):
        # node labels are all true, so no guard clauses survive
        hc = dag_problem_to_horn(self._dp())
        false_heads = [h for h in hc.clauses if h.head is None]
        assert len(false_heads) == 1  # only the exit query


class TestDagProblemFromLinear:
    def test_chain_becomes_path(self):
        from hornitp.horn import ClauseSet, HornClause, RelationSymbol, rel_atom

        p = RelationSymbol("p", (INT,))
        q = RelationSymbol("q", (INT,))
        hc = ClauseSet.make([
            HornClause(ge(TX, 0), (), rel_atom(p, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(q, X)),
            HornClause(lt(TX, 0), (rel_atom(q, X),), None),
        ])
        ((dp, symbols),) = dag_problem_from_linear(normalize(hc))
        assert dp.entry == ENTRY_NODE and dp.exit == EXIT_NODE
        assert [s.name for s in symbols] == ["p", "q"]
        assert len(dp.edges) == 3

    def test_fanout_at_shared_body_symbol(self):
        from hornitp.horn import ClauseSet, HornClause, RelationSymbol, rel_atom

        p = RelationSymbol("p", (INT,))
        q = RelationSymbol("q", (INT,))
        r = RelationSymbol("r", (INT,))
        hc = ClauseSet.make([
            HornClause(TRUE, (), rel_atom(p, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(q, X)),
            HornClause(TRUE, (rel_atom(p, X),), rel_atom(r, X)),
        ])
        ((dp, _),) = dag_problem_from_linear(normalize(hc))
        out = [e for e in dp.edges if e[0] not in (ENTRY_NODE,)]
        p_sym = [s for s in hc.relations if s.name == "p"][0]
        assert len(dp.outgoing(p_sym)) == 2

    def test_component_without_facts_or_queries(self):
        from hornitp.horn import ClauseSet, HornClause, RelationSymbol, rel_atom

        p, q, r = (RelationSymbol(n, (INT,)) for n in "pqr")
        hc = ClauseSet.make([
            HornClause(le(TX, 0), (rel_atom(p, X),), rel_atom(q, X)),
            HornClause(ge(TX, 1), (rel_atom(p, X),), rel_atom(r, X)),
        ])
        ((dp, _),) = dag_problem_from_linear(normalize(hc))
        assert not dp.outgoing(ENTRY_NODE) and not dp.incoming(EXIT_NODE)
        assert isinstance(solve(hc), Solved)

    def test_wrong_fragment_rejected(self):
        with pytest.raises(WrongFragment):
            dag_problem_from_linear(normalize(PE.treelike_clauses()))


class TestRoundTripFaithfulness:
    def test_sequence_round_trip_solution_verifies(self):
        sp = SequenceProblem((ge(TX, 0), le(TX - TY, 0), lt(TY, 0)))
        hc = sequence_to_horn(sp)
        res = solve(hc)
        assert isinstance(res, Solved)
        assert bool(verify_solution(res.solution, hc))

    def test_tree_round_trip_solution_verifies(self):
        nhc = normalize(PE.treelike_clauses())
        (tp,) = tree_problem_from_treelike(nhc)
        hc = tree_problem_to_horn(tp)
        res = solve(hc)
        assert isinstance(res, Solved)
        assert bool(verify_solution(res.solution, hc))
