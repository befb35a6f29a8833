"""Dependence graph, fragment classification, components, normalization."""

import pathlib
import random
import sys

import pytest

import worked_examples as PE
from generators import chain_clauses, random_clause_set
from hornitp import chc
from hornitp.analysis import (
    DependenceGraph,
    NormalizedClauseSet,
    _fresh_vector,
    classify,
    connected_components,
    dependence_graph,
    merge_linear_duplicates,
    normalize,
)
from hornitp.errors import NotLinear, UnknownResult
from hornitp.horn import (
    ClauseSet,
    HornClause,
    RelationAtom,
    RelationSymbol,
    Solution,
    rel_atom,
    verify_solution,
)
from hornitp.solver import Counterexample, Solved, solve
from hornitp.terms import (
    INT,
    REAL,
    TRUE,
    CAtom,
    LinearTerm,
    Var,
    cand,
    cor,
    eq,
    free_vars,
    ge,
    le,
    lt,
    ne,
    substitute,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDependenceGraph:
    def test_recursive_cycle_found(self):
        g = dependence_graph(PE.recursive_clauses())
        cycle = g.find_cycle()
        assert cycle is not None
        assert {s.name for s in cycle} >= {"rf", "r9", "r7"}

    def test_treelike_subset_acyclic(self):
        assert dependence_graph(PE.treelike_clauses()).is_acyclic()

    def test_empty_set(self):
        g = dependence_graph(ClauseSet.make([]))
        assert g.is_acyclic() and not g.nodes


def _recursive_find_cycle(g):
    """DependenceGraph.find_cycle as a recursive depth-first search."""
    succ: dict = {p: [] for p in g.nodes}
    for h, q in sorted(g.edges):
        succ[h].append(q)
    state: dict = {}
    stack_path: list = []

    def visit(p):
        state[p] = 0
        stack_path.append(p)
        for q in succ[p]:
            if q not in state:
                cyc = visit(q)
                if cyc is not None:
                    return cyc
            elif state[q] == 0:
                return stack_path[stack_path.index(q):] + [q]
        stack_path.pop()
        state[p] = 1
        return None

    for p in sorted(g.nodes):
        if p not in state:
            cyc = visit(p)
            if cyc is not None:
                return cyc
    return None


class TestFindCycleDepth:
    N = 1500

    def _reversed_chain(self):
        # higher steps sort first, so the search starts at the deepest symbol
        return chain_clauses(self.N, lambda i: f"p{self.N - i:04d}")

    def test_reversed_name_chain_is_recursion_free(self):
        hc = self._reversed_chain()
        report = classify(hc)
        assert report.recursion_free and report.linear_tree_like

    def test_cycle_through_long_chain(self):
        hc = self._reversed_chain()
        top, bottom = hc.clauses[-1].body[0], hc.clauses[0].head
        back = ClauseSet.make(list(hc.clauses) + [HornClause(TRUE, (top,), bottom)])
        cycle = dependence_graph(back).find_cycle()
        edges = dependence_graph(back).edges
        assert len(cycle) == self.N + 2 and cycle[0] == cycle[-1]
        assert all((h, q) in edges for h, q in zip(cycle, cycle[1:]))

    def test_matches_recursive_search(self):
        rng = random.Random(23)
        cyclic = 0
        for _ in range(400):
            nodes = [RelationSymbol(f"s{i}", ()) for i in range(rng.randint(1, 12))]
            edges = frozenset((rng.choice(nodes), rng.choice(nodes))
                              for _ in range(rng.randint(0, 2 * len(nodes))))
            g = DependenceGraph(frozenset(nodes), edges)
            expected = _recursive_find_cycle(g)
            assert g.find_cycle() == expected
            cyclic += expected is not None
        assert 50 < cyclic < 350


class TestClassify:
    def test_treelike_subset(self):
        report = classify(PE.treelike_clauses())
        assert report.recursion_free
        assert report.tree_like
        assert not report.linear  # one clause has two body atoms
        assert not report.linear_tree_like

    def test_unwinding_body_disjoint_not_head_disjoint(self):
        report = classify(PE.unwinding_clauses())
        assert report.recursion_free
        assert report.body_disjoint
        assert not report.head_disjoint
        assert not report.tree_like

    def test_full_system_recursive(self):
        assert not classify(PE.recursive_clauses()).recursion_free

    def test_body_disjoint_rejects_repeated_occurrence(self):
        p = RelationSymbol("p", ())
        x = Var("x", INT)
        h = HornClause(TRUE, (rel_atom(p), rel_atom(p)), None)
        report = classify(ClauseSet.make([h, HornClause(TRUE, (), rel_atom(p))]))
        assert not report.body_disjoint

    def test_as_text_fixed_keys(self):
        text = classify(PE.treelike_clauses()).as_text()
        for key in ("recursionFree", "linear", "bodyDisjoint", "headDisjoint",
                    "treeLike", "linearTreeLike"):
            assert f"{key}: " in text


class TestConnectedComponents:
    def test_single_component(self):
        assert len(connected_components(PE.treelike_clauses())) == 1

    def test_two_chains(self):
        x = Var("x", INT)
        p, q = RelationSymbol("p", (INT,)), RelationSymbol("q", (INT,))
        hc = ClauseSet.make([
            HornClause(TRUE, (), rel_atom(p, x)),
            HornClause(TRUE, (rel_atom(p, x),), None),
            HornClause(TRUE, (), rel_atom(q, x)),
            HornClause(TRUE, (rel_atom(q, x),), None),
        ])
        assert len(connected_components(hc)) == 2

    def test_pure_constraint_clause_is_singleton(self):
        x = Var("x", INT)
        hc = ClauseSet.make([
            HornClause(ge(LinearTerm.of(x), 1), (), None),
            HornClause(TRUE, (), rel_atom(RelationSymbol("p", ()))),
        ])
        assert len(connected_components(hc)) == 2

    def test_partition_exact(self):
        rng = random.Random(4)
        for _ in range(50):
            hc = random_clause_set(rng)
            comps = connected_components(hc)
            collected = [h for c in comps for h in c.clauses]
            assert sorted(map(repr, collected)) == sorted(map(repr, hc.clauses))


class TestNormalize:
    def test_relation_atoms_use_fixed_vectors(self):
        nhc = normalize(PE.treelike_clauses())
        for h in nhc.clauses:
            for a in list(h.body) + ([h.head] if h.head else []):
                expected = nhc.arg_vectors[a.symbol]
                got = [t.coeffs[0][0] if t.coeffs else None for t in a.args]
                # every occurrence is either the fixed vector or a fresh copy
                assert all(v is not None for v in got)
                assert all(t.constant == 0 and len(t.coeffs) == 1 and
                           t.coeffs[0][1] == 1 for t in a.args)

    def test_non_argument_vars_local_to_one_clause(self):
        nhc = normalize(PE.unwinding_clauses())
        vector_vars = {v for vec in nhc.arg_vectors.values() for v in vec}
        seen = {}
        for idx, h in enumerate(nhc.clauses):
            for v in h.vars - vector_vars:
                assert seen.setdefault(v, idx) == idx

    def test_solution_transfers_to_original(self):
        hc = PE.treelike_clauses()
        nhc = normalize(hc)
        res = solve(nhc.clause_set)
        assert isinstance(res, Solved)
        # normalized argument vectors are the formal parameters, so the
        # solution carries over verbatim
        assert bool(verify_solution(res.solution, hc))

    def test_recursive_call_binding(self):
        # the recursive-call clause binds the callee's first argument to n-1
        hc = ClauseSet.make([PE.increment_clauses()[7]])
        nhc = normalize(hc)
        (h,) = nhc.clauses
        rf_vec = nhc.arg_vectors[PE.rf]
        r6_vec = nhc.arg_vectors[PE.r6]
        binding = eq(LinearTerm.of(rf_vec[0]) - LinearTerm.of(r6_vec[0]) + 1)
        from hornitp.engine import entails

        assert entails([h.constraint], binding)

    # aliasing: a plain-variable argument is renamed onto its slot, and a
    # binding equality is left only where the argument is not that slot

    def _one(self, clause):
        nhc = normalize(ClauseSet.make([clause]))
        (h,) = nhc.clauses
        return h, nhc.arg_vectors

    def test_plain_variable_argument_adds_no_binding(self):
        p = RelationSymbol("p", (INT,))
        x = Var("x", INT)
        h, vec = self._one(HornClause(ge(LinearTerm.of(x), 0), (), rel_atom(p, x)))
        (p0,) = vec[p]
        assert h.constraint == ge(LinearTerm.of(p0), 0)
        assert h.head == rel_atom(p, p0)

    def test_repeated_variable_gives_one_alias_and_one_equality(self):
        p = RelationSymbol("p", (INT, INT))
        x = Var("x", INT)
        h, vec = self._one(HornClause(ge(LinearTerm.of(x), 0), (), rel_atom(p, x, x)))
        p0, p1 = vec[p]
        assert h.constraint == cand(ge(LinearTerm.of(p0), 0), eq(LinearTerm.of(p1), LinearTerm.of(p0)))
        assert h.head == rel_atom(p, p0, p1)

    def test_int_variable_in_real_slot_keeps_binding(self):
        p = RelationSymbol("p", (REAL,))
        x = Var("x", INT)
        h, vec = self._one(HornClause(ge(LinearTerm.of(x), 0), (), rel_atom(p, x)))
        (p0,) = vec[p]
        x0 = LinearTerm.of(Var("x@0", INT))
        assert h.constraint == cand(ge(x0, 0), eq(LinearTerm.of(p0), x0))

    def test_compound_argument_keeps_binding(self):
        q = RelationSymbol("q", (INT,))
        x = Var("x", INT)
        h, vec = self._one(HornClause(ge(LinearTerm.of(x), 0), (), rel_atom(q, LinearTerm.of(x) + 1)))
        (q0,) = vec[q]
        x0 = LinearTerm.of(Var("x@0", INT))
        assert h.constraint == cand(ge(x0, 0), eq(LinearTerm.of(q0), x0 + 1))

    def test_second_body_occurrence_aliases_onto_its_copy(self):
        p = RelationSymbol("p", (INT,))
        x, y = Var("x", INT), Var("y", INT)
        h, vec = self._one(HornClause(lt(LinearTerm.of(x), LinearTerm.of(y)),
                                      (rel_atom(p, x), rel_atom(p, y)), None))
        (p0,) = vec[p]
        copy = Var("p#0~0.1", INT)
        assert h.constraint == lt(LinearTerm.of(p0), LinearTerm.of(copy))
        assert h.body == (rel_atom(p, p0), rel_atom(p, copy))

    def test_chain_steps_normalize_to_their_input_atom(self):
        hc = chain_clauses(8)
        nhc = normalize(hc)
        steps = list(zip(hc.clauses, nhc.clauses))[1:-1]
        assert len(steps) == 8
        for orig, h in steps:
            (body,) = orig.body
            renaming = {body.args[0].coeffs[0][0]: nhc.arg_vectors[body.symbol][0],
                        orig.head.args[0].coeffs[0][0]: nhc.arg_vectors[orig.head.symbol][0]}
            assert isinstance(h.constraint, CAtom)
            assert h.constraint == substitute(
                orig.constraint, {v: LinearTerm.of(w) for v, w in renaming.items()})

    def test_normalized_set_solves_like_the_original(self):
        # integer branching may run out of depth (UnknownResult): that is
        # incompleteness, not a verdict, so it is counted and bounded
        rng = random.Random(11)
        unknown = 0
        for _ in range(300):
            hc = random_clause_set(rng)
            try:
                res = solve(normalize(hc).clause_set)
                if isinstance(res, Solved):
                    assert bool(verify_solution(res.solution, hc))
                else:
                    assert isinstance(res, Counterexample)
                    assert isinstance(solve(hc), Counterexample)
            except UnknownResult:
                unknown += 1
        assert unknown <= 3


def _substitute_normalize(hc: ClauseSet) -> NormalizedClauseSet:
    """analysis.normalize as it was built on terms.substitute, each atom
    canonicalised again after the substitution."""
    arg_vectors = {p: _fresh_vector(p) for p in sorted(hc.relations)}
    new_clauses, renamings = [], []
    for idx, h in enumerate(hc.clauses):
        atoms = ([h.head] if h.head is not None else []) + list(h.body)
        vectors = []
        used: dict = {}
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
            renaming[v] = Var(f"{v.name}@{idx}", v.sort)
        sigma = {v: LinearTerm.of(w) for v, w in renaming.items()}
        bindings = [eq(x, t.substituted(sigma))
                    for a, vec in zip(atoms, vectors)
                    for x, t in zip(vec, a.args) if x not in aliased]
        new_atoms = [RelationAtom(a.symbol, tuple(LinearTerm.of(x) for x in vec))
                     for a, vec in zip(atoms, vectors)]
        head = new_atoms.pop(0) if h.head is not None else None
        constraint = cand(substitute(h.constraint, sigma), *bindings)
        new_clauses.append(HornClause(constraint, tuple(new_atoms), head))
        renamings.append(renaming)
    return NormalizedClauseSet(ClauseSet(hc.relations, tuple(new_clauses)), arg_vectors,
                               tuple(renamings))


def _random_stream_sets(seed: int, count: int) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    stream = workloads.random_stream(seed)
    return [chc.parse_chc(next(stream)[1]) for _ in range(count)]


class TestNormalizeMatchesSubstitution:
    """normalize renames without canonicalising again; it must give what
    substituting and canonicalising gave."""

    def _assert_same(self, hc):
        got, expected = normalize(hc), _substitute_normalize(hc)
        assert got == expected
        assert repr(got) == repr(expected)

    def test_data_sets(self):
        for path in sorted((ROOT / "tests" / "data").glob("*.chc")):
            self._assert_same(chc.parse_chc(path.read_text()))

    def test_random_stream_sets(self):
        for hc in _random_stream_sets(5, 3000):
            self._assert_same(hc)

    def test_bindings_and_copies(self):
        p = RelationSymbol("p", (INT, INT))
        r = RelationSymbol("r", (REAL,))
        x, y, z = (Var(n, INT) for n in "xyz")
        w = Var("w", REAL)
        tx, ty = LinearTerm.of(x), LinearTerm.of(y)
        hc = ClauseSet.make([
            HornClause(le(tx, ty), (), rel_atom(p, x, x)),  # repeated variable
            HornClause(ge(ty, 1), (rel_atom(p, x, ty + 2),), rel_atom(r, y)),  # compound, Int in Real
            HornClause(lt(LinearTerm.of(w), 0), (rel_atom(r, w), rel_atom(p, z, y),
                                                 rel_atom(p, y, z)), None),  # a second copy
        ])
        self._assert_same(hc)

    @pytest.mark.parametrize("rel", [eq, ne])
    @pytest.mark.parametrize("sort", [INT, REAL])
    def test_equality_leading_coefficient_changes_sign(self, rel, sort):
        # a - 2b = 1 leads with a; renaming a onto q's slot q#0 puts b@0
        # first, with coefficient -2, so the atom is negated
        q = RelationSymbol("q", (sort,))
        a, b = Var("a", sort), Var("b", sort)
        hc = ClauseSet.make([HornClause(rel(LinearTerm.of(a) - LinearTerm.of(b).scale(2), 1),
                                        (), rel_atom(q, a))])
        self._assert_same(hc)
        (h,) = normalize(hc).clauses
        ((v, c), _) = h.constraint.atom.term.coeffs
        assert (v.name, c) == ("b@0", 2)

    def test_deep_nesting_normalizes(self):
        # and/or alternate 3,000 deep, past the recursion limit; the
        # reference recursion cannot follow, so the renamed nest is built
        # directly and compared by its rendering, which is iterative
        p = RelationSymbol("p", (INT,))
        x, y = Var("x", INT), Var("y", INT)

        def nest(u, v):
            c = le(LinearTerm.of(u), 0)
            for i in range(1500):
                c = cand(ge(LinearTerm.of(v), i), cor(le(LinearTerm.of(u), -i), c))
            return c

        hc = ClauseSet.make([HornClause(nest(x, y), (), rel_atom(p, x))])
        (h,) = normalize(hc).clauses
        assert repr(h.constraint) == repr(nest(Var("p#0", INT), Var("y@0", INT)))


class TestMergeLinearDuplicates:
    def _pq(self):
        p = RelationSymbol("p", (INT,))
        q = RelationSymbol("q", (INT,))
        return p, q

    def test_duplicates_disjoined(self):
        p, q = self._pq()
        hc = normalize(ClauseSet.make([
            HornClause(ge(LinearTerm.of(Var("x", INT)), 0),
                       (rel_atom(p, Var("x", INT)),), rel_atom(q, Var("x", INT))),
            HornClause(le(LinearTerm.of(Var("x", INT)), -5),
                       (rel_atom(p, Var("x", INT)),), rel_atom(q, Var("x", INT))),
        ])).clause_set
        merged = merge_linear_duplicates(hc)
        assert len(merged.clauses) == 1
        # the surviving clause must admit both original guards
        from hornitp.engine import entails

        survivors = merged.clauses[0].constraint
        for guard in (h.constraint for h in hc.clauses):
            assert entails([guard], survivors)

    def test_no_duplicates_identity(self):
        p, q = self._pq()
        x = Var("x", INT)
        hc = ClauseSet.make([
            HornClause(TRUE, (rel_atom(p, x),), rel_atom(q, x)),
            HornClause(TRUE, (), rel_atom(p, x)),
        ])
        assert merge_linear_duplicates(hc).clauses == hc.clauses

    def test_not_linear_rejected(self):
        p, q = self._pq()
        x = Var("x", INT)
        hc = ClauseSet.make([
            HornClause(TRUE, (rel_atom(p, x), rel_atom(q, x)), None),
        ])
        with pytest.raises(NotLinear):
            merge_linear_duplicates(hc)


def test_recursion_free_iff_acyclic_random():
    rng = random.Random(9)
    for _ in range(100):
        hc = random_clause_set(rng)
        assert classify(hc).recursion_free == dependence_graph(hc).is_acyclic()
