"""Reading and writing clause sets, solutions, and interpolation problems.

Clause files use the common exchange subset::

    (set-logic HORN)
    (declare-fun p (Int Int) Bool)
    (assert (forall ((x Int) (y Int)) (=> <body> <head>)))
    (check-sat)

where ``<body>`` is ``(and ...)`` over relation atoms and constraints (or a
single such item, or ``true``) and ``<head>`` is a relation atom or
``false``.  Solution files hold one ``(define-rel p ((x Int)...) <c>)`` per
symbol.  Problem files for the ``encode`` pipeline are

    (binary (vars ...) (A <c>) (B <c>))
    (sequence (vars ...) <c> ...)
    (tree (vars ...) (nodes (name <c>) ...) (edges (parent child) ...)
          (root name))
    (dag (vars ...) (nodes (name <c>) ...) (edges (u v <c>) ...)
         (entry name) (exit name) [(allowed (name var ...) ...)])

with ``(vars (x Int) (y Real) ...)`` declaring every variable used.
"""

from __future__ import annotations

from .errors import MalformedProblem, ParseError, SortError, SortMismatch, UndeclaredSymbol
from .horn import ClauseSet, HornClause, RelationAtom, RelationSymbol, Solution
from .problems import DagProblem, SequenceProblem, TreeProblem
from .sexpr import (
    Misread,
    node_str,
    constraint_str,
    head_name,
    parse_with,
    read_constraint,
    read_sort,
    read_term,
    read_var_decls,
    sort_str,
    term_str,
)
from .terms import cand

# Each reader below takes its node as ``(parent, index)``, the node being
# ``parent[index]`` in the nested lists that sexpr.parse_with reads, and
# reports an error as a sexpr.Misread about the node it is at.


def _expect_list(parent: list, index: int, what: str) -> list:
    node = parent[index]
    if type(node) is str:
        raise Misread(ParseError, f"expected {what}", parent, index)
    return node


# ---------------------------------------------------------------------------
# clause files
# ---------------------------------------------------------------------------


def parse_chc(text: str) -> ClauseSet:
    return parse_with(text, _clause_set)


def _clause_set(forms: list) -> ClauseSet:
    relations: dict = {}
    clauses: list = []
    for j in range(len(forms)):
        form = _expect_list(forms, j, "a top-level command")
        if not form or type(form[0]) is not str:
            raise Misread(ParseError, "expected a command", forms, j)
        cmd = form[0]
        if cmd == "assert":
            if len(form) != 2:
                raise Misread(ParseError, "malformed assert", forms, j)
            clauses.append(_clause(form, 1, relations))
            continue
        if cmd in ("set-logic", "check-sat", "exit", "get-model"):
            continue
        if cmd == "declare-fun":
            if len(form) != 4 or type(form[1]) is not str:
                raise Misread(ParseError, "malformed declare-fun", forms, j)
            name = form[1]
            sorts = _expect_list(form, 2, "argument sorts")
            sorts = tuple([read_sort(sorts, i) for i in range(len(sorts))])
            if form[3] != "Bool":
                raise Misread(ParseError, "relation result sort must be Bool", form, 3)
            if name in relations:
                raise Misread(ParseError, f"duplicate declaration of {name!r}", form, 1)
            relations[name] = RelationSymbol(name, sorts)
            continue
        raise Misread(ParseError, f"unknown command {cmd!r}", forms, j)
    return ClauseSet.make(clauses, relations.values())


def _clause(parent: list, index: int, relations: dict) -> HornClause:
    variables: dict = {}
    node = parent[index]
    if head_name(node) == "forall":
        if len(node) != 3:
            raise Misread(ParseError, "malformed forall", parent, index)
        variables = read_var_decls(node, 1)
        parent, index = node, 2
        node = node[2]
    if head_name(node) == "=>":
        if len(node) != 3:
            raise Misread(ParseError, "'=>' takes a body and a head", parent, index)
        # the premise's parts: an (and ...)'s arguments, or the premise
        if head_name(node[1]) == "and":
            parts, first, last = node[1], 1, len(node[1])
        else:
            parts, first, last = node, 1, 2
        parent, index = node, 2
    else:
        parts, first, last = None, 0, 0
    atoms: list = []
    constraints: list = []
    for i in range(first, last):
        p = parts[i]
        if (p if type(p) is str else head_name(p)) in relations:
            atoms.append(_rel_atom(parts, i, relations, variables))
        else:
            constraints.append(read_constraint(parts, i, variables))
    head = None
    conclusion = parent[index]
    if conclusion != "false":
        name = conclusion if type(conclusion) is str else head_name(conclusion)
        if name is None or name not in relations:
            got = repr(name) if name is not None else node_str(conclusion)
            at = (conclusion, 0) if type(conclusion) is list and conclusion else (parent, index)
            raise Misread(ParseError, "clause head must be a declared relation atom or"
                          f" 'false', got {got}", *at)
        head = _rel_atom(parent, index, relations, variables)
    # cand of one constraint is that constraint
    constraint = constraints[0] if len(constraints) == 1 else cand(*constraints)
    return HornClause(constraint, tuple(atoms), head)


def _rel_atom(parent: list, index: int, relations: dict, variables: dict) -> RelationAtom:
    node = parent[index]
    if type(node) is str:
        return RelationAtom(relations[node], ())
    args = tuple([read_term(node, i, variables) for i in range(1, len(node))])
    try:
        return RelationAtom(relations[node[0]], args)
    except SortMismatch as exc:
        raise Misread(SortError, str(exc), parent, index) from None


def _clause_str(h: HornClause) -> str:
    body_parts = [constraint_str(h.constraint)]
    body_parts += [_atom_str(a) for a in h.body]
    body = body_parts[0] if len(body_parts) == 1 else "(and " + " ".join(body_parts) + ")"
    head = _atom_str(h.head) if h.head is not None else "false"
    inner = f"(=> {body} {head})"
    decls = sorted(h.vars)
    if decls:
        inner = "(forall (" + " ".join(
            f"({v.name} {sort_str(v.sort)})" for v in decls) + f") {inner})"
    return f"(assert {inner})"


def _atom_str(a: RelationAtom) -> str:
    if not a.args:
        return a.symbol.name
    return "(" + a.symbol.name + " " + " ".join(term_str(t) for t in a.args) + ")"


def print_chc(hc: ClauseSet) -> str:
    lines = ["(set-logic HORN)"]
    for sym in sorted(hc.relations):
        sorts = " ".join(sort_str(s) for s in sym.arg_sorts)
        lines.append(f"(declare-fun {sym.name} ({sorts}) Bool)")
    lines.extend(_clause_str(h) for h in hc.clauses)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------


def parse_solution(text: str, hc: ClauseSet) -> Solution:
    by_name = {sym.name: sym for sym in hc.relations}
    return parse_with(text, lambda forms: _solution(forms, by_name))


def _solution(forms: list, by_name: dict) -> Solution:
    assignment: dict = {}
    for j in range(len(forms)):
        form = _expect_list(forms, j, "a define-rel")
        if len(form) != 4 or form[0] != "define-rel":
            raise Misread(ParseError, "expected (define-rel name params constraint)", forms, j)
        name = form[1] if type(form[1]) is str else None
        if name not in by_name:
            raise Misread(UndeclaredSymbol, f"undeclared relation {name!r}", form, 1)
        sym = by_name[name]
        params = read_var_decls(form, 2)
        if tuple([v.sort for v in params.values()]) != sym.arg_sorts:
            raise Misread(SortError, f"parameter sorts of {name!r} do not match its declaration",
                          form, 2)
        if sym in assignment:
            raise Misread(ParseError, f"duplicate definition of {name!r}", form, 1)
        assignment[sym] = (list(params.values()), read_constraint(form, 3, params))
    try:
        return Solution(assignment)
    except SortMismatch as exc:
        raise SortError(str(exc), 1, 1) from None


def print_solution(sol: Solution) -> str:
    lines = []
    for sym in sorted(sol.symbols()):
        params, body = sol.assignment[sym]
        decls = " ".join(f"({v.name} {sort_str(v.sort)})" for v in params)
        lines.append(f"(define-rel {sym.name} ({decls}) {constraint_str(body)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _sections(form: list, start: int) -> dict:
    """Key -> index in ``form`` of each (key ...) section from ``start`` on."""
    out = {}
    for i in range(start, len(form)):
        key = head_name(form[i])
        if key is None:
            raise Misread(ParseError, "expected a (key ...) section", form, i)
        if key in out:
            raise Misread(ParseError, f"duplicate section {key!r}", form, i)
        out[key] = i
    return out


def _section(sec: dict, key: str, forms: list) -> int:
    if key not in sec:
        raise Misread(ParseError, f"problem needs a ({key} ...) section", forms, 0)
    return sec[key]


def _declared(parent: list, index: int, table: dict, what: str) -> str:
    """The name an atom gives, which must be a key of ``table``."""
    node = parent[index]
    if type(node) is not str or node not in table:
        raise Misread(ParseError, f"undeclared {what} {node_str(node)!r}", parent, index)
    return node


def _named_node(sec: dict, key: str, forms: list, nodes: dict) -> str:
    """The declared node of a (key name) section."""
    form = forms[0]
    i = _section(sec, key, forms)
    if len(form[i]) != 2:
        raise Misread(ParseError, f"expected ({key} name)", form, i)
    return _declared(form[i], 1, nodes, "node")


def _named_constraints(node: list, variables: dict) -> dict:
    out = {}
    for i in range(1, len(node)):
        item = _expect_list(node, i, "a (name constraint) pair")
        if len(item) != 2 or type(item[0]) is not str:
            raise Misread(ParseError, "expected (name constraint)", node, i)
        if item[0] in out:
            raise Misread(ParseError, f"duplicate node {item[0]!r}", node, i)
        out[item[0]] = read_constraint(item, 1, variables)
    return out


def _edges(sec: dict, forms: list, nodes: dict, shape: str) -> dict:
    """(u, v) -> item for each item of the (edges ...) section, a list of the
    ``shape`` given, such as (parent child), whose first two entries name
    declared nodes.  An edge given twice is an error here, as a problem type
    would keep it once."""
    edges = forms[0][_section(sec, "edges", forms)]
    out = {}
    for i in range(1, len(edges)):
        item = _expect_list(edges, i, f"an edge {shape}")
        if len(item) != len(shape.split()):
            raise Misread(ParseError, f"expected {shape}", edges, i)
        key = (_declared(item, 0, nodes, "node"), _declared(item, 1, nodes, "node"))
        if key in out:
            raise Misread(ParseError, f"duplicate edge {key[0]!r} -> {key[1]!r}", edges, i)
        out[key] = item
    return out


def parse_problem(text: str):
    """Returns ("binary", (a, b)), a SequenceProblem, TreeProblem, or
    DagProblem according to the leading keyword.  A problem whose shape
    breaks its type's definition (a node with two parents, an edge into a
    DAG's entry, a cycle, ...) is a ParseError with the type's message, at
    the declaration of the node it names, else at the (edges ...) section,
    else at the problem."""
    return parse_with(text, _problem)


def _problem(forms: list):
    if len(forms) != 1:
        raise ParseError("expected a single problem expression", 1, 1)
    form = _expect_list(forms, 0, "a problem")
    kind = head_name(form)
    if len(form) < 2 or head_name(form[1]) != "vars":
        raise Misread(ParseError, "problem must start with a (vars ...) declaration", forms, 0)
    variables = read_var_decls(form, 1, 1)
    if kind == "binary":
        sec = _sections(form, 2)
        for key in ("A", "B"):
            if key not in sec or len(form[sec[key]]) != 2:
                raise Misread(ParseError, f"binary problem needs ({key} <constraint>)",
                              forms, 0)
        return ("binary", (read_constraint(form[sec["A"]], 1, variables),
                           read_constraint(form[sec["B"]], 1, variables)))
    if kind == "sequence":
        nodes, at = (), (forms, 0)  # where an error that names no node goes
        problem, args = SequenceProblem, (tuple(read_constraint(form, i, variables)
                                                for i in range(2, len(form))),)
    elif kind in ("tree", "dag"):
        sec = _sections(form, 2)
        nodes = form[_section(sec, "nodes", forms)]
        labels = _named_constraints(nodes, variables)
        if kind == "tree":
            root = _named_node(sec, "root", forms, labels)
            edges = _edges(sec, forms, labels, "(parent child)")
            problem, args = TreeProblem, (tuple(labels), frozenset(edges), labels, root)
        else:
            entry = _named_node(sec, "entry", forms, labels)
            exit_ = _named_node(sec, "exit", forms, labels)
            edges = _edges(sec, forms, labels, "(u v constraint)")
            edge_labels = {key: read_constraint(item, 2, variables) for key, item in edges.items()}
            allowed = None
            if "allowed" in sec:
                allowed = {v: frozenset() for v in labels}
                sets = form[sec["allowed"]]
                for i in range(1, len(sets)):
                    names = _expect_list(sets, i, "an allowed set (node var ...)")
                    if not names:
                        raise Misread(ParseError, "expected (node var ...)", sets, i)
                    allowed[_declared(names, 0, labels, "node")] = frozenset(
                        variables[_declared(names, k, variables, "variable")]
                        for k in range(1, len(names)))
            problem, args = DagProblem, (tuple(labels), tuple(edges), entry, exit_, edge_labels,
                                         labels, allowed)
        at = (form, sec["edges"])
    else:
        raise Misread(ParseError, f"unknown problem kind {kind!r}", forms, 0)
    try:
        return problem(*args)
    except MalformedProblem as exc:
        at = next(((nodes, i) for i in range(1, len(nodes)) if nodes[i][0] == exc.node), at)
        raise Misread(ParseError, str(exc), *at) from None
