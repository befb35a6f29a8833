"""Problem shapes and their mechanical condition checkers."""

import random

import pytest

from generators import random_cube
from hornitp import chc, solver
from hornitp.engine import entails, sat
from hornitp.errors import MalformedProblem, NotUnsat
from hornitp.lp import Sat
from hornitp.problems import (
    DagProblem,
    SequenceProblem,
    TreeProblem,
    check_dag,
    check_sequence,
    check_tree,
)
from hornitp.terms import (
    FALSE,
    INT,
    TRUE,
    LinearTerm,
    Var,
    cand,
    cor,
    eq,
    free_vars,
    ge,
    le,
    lt,
)

X = Var("x", INT)
Y = Var("y", INT)
TX = LinearTerm.of(X)
TY = LinearTerm.of(Y)


class TestSequence:
    def _problem(self):
        return SequenceProblem((ge(TX, 0), le(TX - TY, 0), lt(TY, 0)))

    def test_valid_labeling(self):
        labels = [TRUE, ge(TX, 0), ge(TY, 0), FALSE]
        assert check_sequence(self._problem(), labels) == []

    def test_step_entailment_violation(self):
        labels = [TRUE, ge(TX, 0), ge(TY, 1), FALSE]
        assert "step-entailment-2" in check_sequence(self._problem(), labels)

    def test_variable_condition_violation(self):
        # I1 may only use fv(T1) intersect fv(T2 T3) = {x}
        labels = [TRUE, ge(TY, 0), ge(TY, 0), FALSE]
        failures = check_sequence(self._problem(), labels)
        assert "variable-condition-1" in failures

    def test_start_label_must_be_true(self):
        # I0 = false makes every step entailment hold and uses no variable:
        # only the start condition fails
        labels = [FALSE, ge(TX, 0), ge(TY, 0), FALSE]
        assert check_sequence(self._problem(), labels) == ["start-label-not-true"]

    def test_end_label_must_be_false(self):
        labels = [TRUE, ge(TX, 0), ge(TY, 0), TRUE]
        assert "end-label-not-false" in check_sequence(self._problem(), labels)

    def test_wrong_length_rejected(self):
        assert check_sequence(self._problem(), [TRUE, FALSE]) != []

    def test_last_label_is_closed(self):
        # In is over the variables T1..Tn share with no later part: none,
        # as at the root of a tree and as p3 of the Horn encoding
        last = cand(le(TX - TY, -1), le(TY - TX, -1))
        failures = check_sequence(self._problem(), [TRUE, ge(TX, 0), ge(TY, 0), last])
        assert failures == ["variable-condition-3"]

    def test_shared_is_the_prefix_and_suffix_intersection(self):
        rng = random.Random(3)
        pool = [Var(f"u{i}", INT) for i in range(6)]
        for _ in range(50):
            parts = tuple(random_cube(rng, pool, max_atoms=2) for _ in range(rng.randint(1, 8)))
            fvs = [free_vars(t) for t in parts]
            expected = tuple(frozenset().union(*fvs[:i], frozenset())
                             & frozenset().union(*fvs[i:], frozenset())
                             for i in range(len(parts) + 1))
            assert SequenceProblem(parts).shared == expected

    def test_tree_is_the_path(self):
        sp = self._problem()
        tp = sp.tree
        assert tp.order == (1, 2, 3) and tp.root == 3
        assert tp.edges == {(2, 1), (3, 2)}
        assert [tp.labels[i] for i in tp.order] == list(sp.parts)


class TestTree:
    def _problem(self):
        # root conjoins contradictory children constraints
        nodes = ("l1", "l2", "root")
        edges = frozenset({("root", "l1"), ("root", "l2")})
        labels = {"l1": ge(TX, 0), "l2": le(TX - TY, 0), "root": lt(TY, 0)}
        return TreeProblem(nodes, edges, labels, "root")

    def test_valid_labeling(self):
        labeling = {"l1": ge(TX, 0), "l2": le(TX - TY, 0), "root": FALSE}
        assert check_tree(self._problem(), labeling) == []

    def test_root_must_be_unsat(self):
        labeling = {"l1": ge(TX, 0), "l2": le(TX - TY, 0), "root": TRUE}
        failures = check_tree(self._problem(), labeling)
        assert "root-label-not-false" in failures

    def test_node_entailment_checked(self):
        labeling = {"l1": ge(TX, 5), "l2": le(TX - TY, 0), "root": FALSE}
        assert "node-entailment-l1" in check_tree(self._problem(), labeling)

    def test_variable_condition_checked(self):
        z = Var("z", INT)
        labeling = {"l1": ge(LinearTerm.of(z), 0), "l2": le(TX - TY, 0),
                    "root": FALSE}
        failures = check_tree(self._problem(), labeling)
        assert "variable-condition-l1" in failures

    def test_two_parents_rejected(self):
        with pytest.raises(MalformedProblem):
            TreeProblem(("a", "b", "c"),
                        frozenset({("a", "c"), ("b", "c"), ("a", "b")}),
                        {"a": TRUE, "b": TRUE, "c": TRUE}, "a")

    def test_post_order_children_first(self):
        tp = self._problem()
        order = tp.order
        assert order.index("l1") < order.index("root")
        assert order.index("l2") < order.index("root")

    def test_post_order_long_path_iterative(self):
        n = 1200
        tp = TreeProblem(tuple(range(n)), frozenset((i, i + 1) for i in range(n - 1)),
                         {i: TRUE for i in range(n)}, 0)
        assert list(tp.order) == list(reversed(range(n)))

    def test_post_order_matches_recursive_definition(self, solved_trees):
        def recursive(tp):
            out = []

            def walk(v):
                for c in _children(tp, v):
                    walk(c)
                out.append(v)

            walk(tp.root)
            return out

        for name in ("increment_treelike", "increment_unwound"):
            with open(f"tests/data/{name}.chc") as fh:
                solver.solve(chc.parse_chc(fh.read()))
        problems = [tp for tp, _ in solved_trees]
        assert len(problems) >= 3
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 25)
            # mixed names: children sort by str, so 10 comes before 9
            names = [i if rng.random() < 0.5 else f"n{i}" for i in range(n)]
            edges = frozenset((names[rng.randrange(i)], names[i]) for i in range(1, n))
            problems.append(TreeProblem(tuple(names), edges,
                                        {v: TRUE for v in names}, names[0]))
        for tp in problems:
            assert list(tp.order) == recursive(tp)
            assert [[tp.order[c] for c in cs] for cs in tp.kids] == [
                _children(tp, v) for v in tp.order]
            assert [tp.order[tp.first[i]:i + 1] for i in range(len(tp.order))] == [
                tuple(w for w in tp.order if w in _subtree(tp, v)) for v in tp.order]

    def test_detached_cycle_rejected(self):
        # every node but the root has one parent, but a and b only reach
        # each other: a walk from the root alone finds r's label
        # satisfiable, though the labels x <= -1 and x >= 0 conflict
        labels = {"r": le(TX, -1), "a": ge(TX, 0), "b": TRUE}
        with pytest.raises(MalformedProblem, match="cycle"):
            TreeProblem(("r", "a", "b"), frozenset({("a", "b"), ("b", "a")}), labels, "r")

    def test_edge_to_undeclared_node_rejected(self):
        with pytest.raises(MalformedProblem, match="undeclared"):
            TreeProblem(("r", "a"), frozenset({("r", "a"), ("a", "z")}),
                        {"r": TRUE, "a": TRUE}, "r")


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


def _reference_check_tree(tp, labels):
    """check_tree as the definition reads: subtree(v) by reachability."""
    failures = []
    if isinstance(sat(labels[tp.root]), Sat):
        failures.append("root-label-not-false")
    for v in tp.nodes:
        premises = [tp.labels[v]] + [labels[c] for c in _children(tp, v)]
        if not entails(premises, labels[v]):
            failures.append(f"node-entailment-{v}")
        inside = _subtree(tp, v)
        below = frozenset().union(*(free_vars(tp.labels[w]) for w in inside), frozenset())
        above = frozenset().union(
            *(free_vars(tp.labels[w]) for w in tp.nodes if w not in inside), frozenset())
        if not free_vars(labels[v]) <= (below & above):
            failures.append(f"variable-condition-{v}")
    return failures


class TestCheckTreeBookkeeping:
    FOREIGN = LinearTerm.of(Var("foreign", INT))

    def _cases(self, solved_trees):
        """(problem, labeling): solved tests/data trees and seeded random
        trees, each with its valid labeling, one label weakened to true and
        one label disjoined with an atom over a foreign variable."""
        for name in ("increment_treelike", "increment_unwound"):
            with open(f"tests/data/{name}.chc") as fh:
                solver.solve(chc.parse_chc(fh.read()))
        solved = list(solved_trees)
        wanted = len(solved) + 20
        rng = random.Random(13)
        pool = [Var(f"u{i}", INT) for i in range(3)]
        while len(solved) < wanted:
            n = rng.randint(1, 7)
            edges = frozenset((rng.randrange(i), i) for i in range(1, n))
            tp = TreeProblem(tuple(range(n)), edges,
                             {i: random_cube(rng, pool, max_atoms=3) for i in range(n)}, 0)
            try:
                solved.append((tp, solver.tree_interpolate(tp)))
            except NotUnsat:
                continue
        cases = []
        for tp, labels in solved:
            cases.append((tp, labels))
            for change in (lambda c: TRUE, lambda c: cor(c, eq(self.FOREIGN, 7))):
                v = rng.choice(tp.nodes)
                cases.append((tp, {**labels, v: change(labels[v])}))
        return cases

    def test_failures_match_the_definition(self, solved_trees):
        cases = self._cases(solved_trees)
        expected = [_reference_check_tree(tp, labels) for tp, labels in cases]
        assert sum(e == [] for e in expected) >= 23
        assert sum(any(f.startswith("variable-condition") for f in e) for e in expected) >= 10
        for tp, _ in cases:
            object.__setattr__(tp, "edges", _NoScans())
        assert [check_tree(tp, labels) for tp, labels in cases] == expected


class _NoScans:
    """An edge set that fails when it is iterated."""

    def __iter__(self):
        raise AssertionError("check_tree rescanned the edges")


class TestDag:
    def _problem(self):
        # diamond: en -> a -> ex and en -> b -> ex, jointly infeasible paths
        nodes = ("en", "a", "b", "ex")
        edges = (("en", "a"), ("en", "b"), ("a", "ex"), ("b", "ex"))
        edge_labels = {
            ("en", "a"): ge(TX, 0),
            ("en", "b"): ge(TX, 1),
            ("a", "ex"): lt(TX, 0),
            ("b", "ex"): lt(TX, 1),
        }
        node_labels = {v: TRUE for v in nodes}
        allowed = {"en": frozenset(), "a": frozenset({X}), "b": frozenset({X}),
                   "ex": frozenset()}
        return DagProblem(nodes, edges, "en", "ex", edge_labels, node_labels,
                          allowed)

    def test_valid_labeling(self):
        labeling = {"en": TRUE, "a": ge(TX, 0), "b": ge(TX, 1), "ex": FALSE}
        assert check_dag(self._problem(), labeling) == []

    def test_edge_entailment_checked(self):
        labeling = {"en": TRUE, "a": ge(TX, 5), "b": ge(TX, 1), "ex": FALSE}
        failures = check_dag(self._problem(), labeling)
        assert any(f.startswith("edge-entailment-en->a") for f in failures)

    def test_allowed_variables_enforced(self):
        labeling = {"en": ge(TX, 0), "a": ge(TX, 0), "b": ge(TX, 1), "ex": FALSE}
        failures = check_dag(self._problem(), labeling)
        assert "variable-condition-en" in failures

    def test_exit_must_be_unsat(self):
        labeling = {"en": TRUE, "a": ge(TX, 0), "b": ge(TX, 1), "ex": TRUE}
        assert "exit-label-not-false" in check_dag(self._problem(), labeling)

    def test_detached_cycle_rejected(self):
        # a and b only reach each other, apart from the entry and the exit
        edges = (("en", "ex"), ("a", "b"), ("b", "a"))
        with pytest.raises(MalformedProblem, match="the edge relation has a cycle"):
            DagProblem(("en", "a", "b", "ex"), edges, "en", "ex",
                       dict.fromkeys(edges, TRUE), dict.fromkeys(("en", "a", "b", "ex"), TRUE))

    def test_node_without_edges_rejected(self):
        dp = self._problem()
        with pytest.raises(MalformedProblem) as info:
            DagProblem(dp.nodes + ("u",), dp.edges, dp.entry, dp.exit,
                       dp.edge_labels, {**dp.node_labels, "u": TRUE})
        assert info.value.node == "u"

    def test_entry_and_exit_may_touch_no_edge(self):
        # what dag_problem_from_linear builds for a component with neither
        # facts nor queries
        dp = DagProblem(("en", "a", "b", "ex"), (("a", "b"),), "en", "ex",
                        {("a", "b"): TRUE}, dict.fromkeys(("en", "a", "b", "ex"), TRUE))
        assert check_dag(dp, {"en": TRUE, "a": FALSE, "b": FALSE, "ex": FALSE}) == []

    def test_allowed_vars_default_from_edge_labels(self):
        dp = self._problem()
        no_allowed = DagProblem(dp.nodes, dp.edges, dp.entry, dp.exit,
                                dp.edge_labels, dp.node_labels)
        assert no_allowed.allowed_vars("a") == frozenset({X})
