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
    SNode,
    constraint_str,
    parse_all,
    parse_constraint,
    parse_sort,
    parse_term,
    parse_var_decls,
    sort_str,
    term_str,
)
from .terms import TRUE, cand


def _expect_list(node: SNode, what: str) -> list:
    if node.is_atom:
        raise ParseError(f"expected {what}", node.line, node.col)
    return node.items


def _head_name(node: SNode) -> str | None:
    return node.items[0].value if node.items else None  # a list's value is None


# ---------------------------------------------------------------------------
# clause files
# ---------------------------------------------------------------------------


def parse_chc(text: str) -> ClauseSet:
    relations: dict = {}
    clauses: list = []
    for form in parse_all(text):
        items = _expect_list(form, "a top-level command")
        if not items or not items[0].is_atom:
            raise ParseError("expected a command", form.line, form.col)
        cmd = items[0].value
        if cmd == "set-logic":
            continue
        if cmd == "check-sat" or cmd == "exit" or cmd == "get-model":
            continue
        if cmd == "declare-fun":
            if len(items) != 4 or not items[1].is_atom:
                raise ParseError("malformed declare-fun", form.line, form.col)
            name = items[1].value
            sorts = tuple(parse_sort(s) for s in _expect_list(items[2], "argument sorts"))
            if not (items[3].is_atom and items[3].value == "Bool"):
                raise ParseError("relation result sort must be Bool",
                                 items[3].line, items[3].col)
            if name in relations:
                raise ParseError(f"duplicate declaration of {name!r}",
                                 items[1].line, items[1].col)
            relations[name] = RelationSymbol(name, sorts)
            continue
        if cmd == "assert":
            if len(items) != 2:
                raise ParseError("malformed assert", form.line, form.col)
            clauses.append(_parse_clause(items[1], relations))
            continue
        raise ParseError(f"unknown command {cmd!r}", form.line, form.col)
    return ClauseSet.make(clauses, relations.values())


def _parse_clause(node: SNode, relations: dict) -> HornClause:
    variables: dict = {}
    body_node = node
    if _head_name(node) == "forall":
        if len(node.items) != 3:
            raise ParseError("malformed forall", node.line, node.col)
        variables = parse_var_decls(node.items[1])
        body_node = node.items[2]
    if _head_name(body_node) == "=>":
        if len(body_node.items) != 3:
            raise ParseError("'=>' takes a body and a head", body_node.line, body_node.col)
        premise, conclusion = body_node.items[1], body_node.items[2]
    else:
        premise, conclusion = None, body_node
    atoms: list = []
    constraints: list = []
    if premise is not None:
        parts = (premise.items[1:] if _head_name(premise) == "and" else [premise])
        for p in parts:
            name = p.value if p.items is None else _head_name(p)
            if name in relations:
                atoms.append(_parse_rel_atom(p, relations, variables))
            else:
                constraints.append(parse_constraint(p, variables))
    head = None
    if not (conclusion.is_atom and conclusion.value == "false"):
        name = conclusion.value if conclusion.is_atom else _head_name(conclusion)
        if name is None or name not in relations:
            where = conclusion if conclusion.is_atom else conclusion.items[0]
            raise ParseError(
                f"clause head must be a declared relation atom or 'false', got {name or conclusion!r}",
                where.line, where.col)
        head = _parse_rel_atom(conclusion, relations, variables)
    return HornClause(cand(*constraints) if constraints else TRUE, tuple(atoms), head)


def _parse_rel_atom(node: SNode, relations: dict, variables: dict) -> RelationAtom:
    if node.is_atom:
        return RelationAtom(relations[node.value], ())
    sym = relations[node.items[0].value]
    args = tuple([parse_term(a, variables) for a in node.items[1:]])
    try:
        return RelationAtom(sym, args)
    except SortMismatch as exc:
        raise SortError(str(exc), node.line, node.col) from None


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
    assignment: dict = {}
    for form in parse_all(text):
        items = _expect_list(form, "a define-rel")
        if len(items) != 4 or not items[0].is_atom or items[0].value != "define-rel":
            raise ParseError("expected (define-rel name params constraint)",
                             form.line, form.col)
        name = items[1].value if items[1].is_atom else None
        if name not in by_name:
            raise UndeclaredSymbol(f"undeclared relation {name!r}", items[1].line, items[1].col)
        sym = by_name[name]
        params = parse_var_decls(items[2])
        if tuple(v.sort for v in params.values()) != sym.arg_sorts:
            raise SortError(f"parameter sorts of {name!r} do not match its declaration",
                            items[2].line, items[2].col)
        if sym in assignment:
            raise ParseError(f"duplicate definition of {name!r}", items[1].line, items[1].col)
        body = parse_constraint(items[3], params)
        try:
            assignment[sym] = (list(params.values()), body)
        except SortMismatch as exc:
            raise SortError(str(exc), form.line, form.col) from None
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


def _sections(items: list) -> dict:
    out = {}
    for it in items:
        key = _head_name(it)
        if key is None:
            raise ParseError("expected a (key ...) section", it.line, it.col)
        if key in out:
            raise ParseError(f"duplicate section {key!r}", it.line, it.col)
        out[key] = it
    return out


def _section(sec: dict, key: str, form: SNode) -> SNode:
    if key not in sec:
        raise ParseError(f"problem needs a ({key} ...) section", form.line, form.col)
    return sec[key]


def _declared(node: SNode, table: dict, what: str) -> str:
    """The name an atom gives, which must be a key of ``table``."""
    if not node.is_atom or node.value not in table:
        raise ParseError(f"undeclared {what} {str(node)!r}", node.line, node.col)
    return node.value


def _named_node(sec: dict, key: str, form: SNode, nodes: dict) -> str:
    """The declared node of a (key name) section."""
    node = _section(sec, key, form)
    if len(node.items) != 2:
        raise ParseError(f"expected ({key} name)", node.line, node.col)
    return _declared(node.items[1], nodes, "node")


def _named_constraints(node: SNode, variables: dict) -> dict:
    out = {}
    for it in node.items[1:]:
        items = _expect_list(it, "a (name constraint) pair")
        if len(items) != 2 or not items[0].is_atom:
            raise ParseError("expected (name constraint)", it.line, it.col)
        if items[0].value in out:
            raise ParseError(f"duplicate node {items[0].value!r}", it.line, it.col)
        out[items[0].value] = parse_constraint(items[1], variables)
    return out


def parse_problem(text: str):
    """Returns ("binary", (a, b)), a SequenceProblem, TreeProblem, or
    DagProblem according to the leading keyword.  A problem whose shape
    breaks its definition (a node with two parents, an edge into a DAG's
    entry, a cycle, ...) is a ParseError at the offending part."""
    form = parse_all(text)
    if len(form) != 1:
        raise ParseError("expected a single problem expression", 1, 1)
    items = _expect_list(form[0], "a problem")
    kind = _head_name(form[0])
    body = items[1:]
    if not body or _head_name(body[0]) != "vars":
        raise ParseError("problem must start with a (vars ...) declaration",
                         form[0].line, form[0].col)
    variables = parse_var_decls(
        SNode(None, body[0].items[1:], body[0].offset, body[0].source))
    rest = body[1:]
    if kind == "binary":
        sec = _sections(rest)
        for key in ("A", "B"):
            if key not in sec or len(sec[key].items) != 2:
                raise ParseError(f"binary problem needs ({key} <constraint>)",
                                 form[0].line, form[0].col)
        return ("binary", (parse_constraint(sec["A"].items[1], variables),
                           parse_constraint(sec["B"].items[1], variables)))
    if kind == "sequence":
        if not rest:
            raise ParseError("sequence problem needs at least one part",
                             form[0].line, form[0].col)
        return SequenceProblem(tuple(parse_constraint(p, variables) for p in rest))
    if kind == "tree":
        sec = _sections(rest)
        nodes = _section(sec, "nodes", form[0])
        labels = _named_constraints(nodes, variables)
        root = _named_node(sec, "root", form[0], labels)
        edges = _section(sec, "edges", form[0])
        parent = {}
        for e in edges.items[1:]:
            pair = _expect_list(e, "an edge (parent child)")
            if len(pair) != 2:
                raise ParseError("expected (parent child)", e.line, e.col)
            p, c = (_declared(x, labels, "node") for x in pair)
            if c == root:
                raise ParseError(f"edge into the root {c!r}", e.line, e.col)
            if c in parent:
                raise ParseError(f"node {c!r} has two parents", e.line, e.col)
            parent[c] = p
        for v in labels:
            if v != root and v not in parent:
                raise ParseError(f"node {v!r} has no parent", nodes.line, nodes.col)
        tp = TreeProblem(tuple(labels), frozenset((p, c) for c, p in parent.items()),
                         labels, root)
        # one parent per node but the root: what the root misses is a cycle
        if len(tp.post_order()) != len(labels):
            raise ParseError("edges form a cycle", edges.line, edges.col)
        return tp
    if kind == "dag":
        sec = _sections(rest)
        nodes = _section(sec, "nodes", form[0])
        node_labels = _named_constraints(nodes, variables)
        entry = _named_node(sec, "entry", form[0], node_labels)
        exit_ = _named_node(sec, "exit", form[0], node_labels)
        edges = _section(sec, "edges", form[0])
        edge_labels = {}
        for e in edges.items[1:]:
            triple = _expect_list(e, "an edge (u v constraint)")
            if len(triple) != 3:
                raise ParseError("expected (u v constraint)", e.line, e.col)
            key = (_declared(triple[0], node_labels, "node"),
                   _declared(triple[1], node_labels, "node"))
            if key[1] == entry:
                raise ParseError(f"edge into the entry {entry!r}", e.line, e.col)
            if key[0] == exit_:
                raise ParseError(f"edge out of the exit {exit_!r}", e.line, e.col)
            if key in edge_labels:
                raise ParseError(f"duplicate edge {key[0]!r} -> {key[1]!r}", e.line, e.col)
            edge_labels[key] = parse_constraint(triple[2], variables)
        allowed = None
        if "allowed" in sec:
            allowed = {v: frozenset() for v in node_labels}
            for a in sec["allowed"].items[1:]:
                items_a = _expect_list(a, "an allowed set (node var ...)")
                if not items_a:
                    raise ParseError("expected (node var ...)", a.line, a.col)
                allowed[_declared(items_a[0], node_labels, "node")] = frozenset(
                    variables[_declared(v, variables, "variable")] for v in items_a[1:])
        try:
            dp = DagProblem(tuple(node_labels), tuple(edge_labels), entry, exit_,
                            edge_labels, node_labels, allowed)
            dp.topological_order()
        except MalformedProblem as exc:
            at = next((it for it in nodes.items[1:] if it.items[0].value == exc.node), edges)
            raise ParseError(str(exc), at.line, at.col) from None
        return dp
    raise ParseError(f"unknown problem kind {kind!r}", form[0].line, form[0].col)
