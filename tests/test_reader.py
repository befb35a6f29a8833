"""The reader against the one it replaced.

The reference below is the reader that built one positioned node per token
(one ``re.finditer`` scan, strings read by ``str.find``) and the clause
reading that walked those nodes.  On the clause files of the repository and
on seeded token mutants of them, ``parse_chc`` must give an equal clause set
or raise the same error class with the same message, line and column, and
``parse_all`` must give the same nodes, which ``sexpr._placed`` must place
at the same positions.
"""

import pathlib
import random
import re

import pytest

from hornitp.chc import parse_chc
from hornitp.errors import HornitpError, ParseError, SortError, SortMismatch
from hornitp.horn import ClauseSet, HornClause, RelationAtom, RelationSymbol
from hornitp.sexpr import (
    Misread,
    _placed,
    parse_all,
    read_constraint,
    read_term,
    read_var_decls,
)
from hornitp.terms import INT, REAL, TRUE, cand

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _position(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Node:
    """A reference node: an atom or a list, with its offset in the text."""

    def __init__(self, value, items, offset, source):
        self.value, self.items, self.offset, self.source = value, items, offset, source

    @property
    def line(self):
        return _position(self.source, self.offset)[0]

    @property
    def col(self):
        return _position(self.source, self.offset)[1]

    @property
    def is_atom(self):
        return self.items is None

    def __repr__(self):
        if self.items is None:
            return self.value
        return "(" + " ".join(repr(item) for item in self.items) + ")"


_TOKEN = re.compile(r'[^\s();"][^\s();]*|[()]|;[^\n]*|"')


def _string_end(text, start):
    end = text.find('"', start + 1)
    while end >= 0 and text.startswith('"', end + 1):
        end = text.find('"', end + 2)
    if end < 0:
        raise ParseError("unterminated string", *_position(text, start))
    return end


def _reference_parse_all(text):
    stack, top, pos = [], [], 0
    while pos is not None:
        tokens, pos = _TOKEN.finditer(text, pos), None
        for m in tokens:
            tok = m[0]
            if tok == "(":
                node = _Node(None, [], m.start(), text)
                top.append(node)
                stack.append(top)
                top = node.items
            elif tok == ")":
                if not stack:
                    raise ParseError("unbalanced ')'", *_position(text, m.start()))
                top = stack.pop()
            elif tok == '"':
                start = m.start()
                end = _string_end(text, start)
                top.append(_Node('"' + text[start + 1:end].replace('""', '"') + '"',
                                 None, start, text))
                pos = end + 1
                break
            elif tok[0] != ";":
                top.append(_Node(tok, None, m.start(), text))
    if stack:
        node = stack[-1][-1]
        raise ParseError("unbalanced '('", node.line, node.col)
    return top


def _reference_read(read, node, *args):
    """``read`` on the reference node as nested lists; a Misread is raised
    as its error class at the reference node it names."""
    root, refs = [], {}  # (id of a list, index) -> the reference node read there
    stack = [(node, root)]
    while stack:
        ref, parent = stack.pop()
        refs[id(parent), len(parent)] = ref
        if ref.items is None:
            parent.append(ref.value)
        else:
            items = []
            parent.append(items)
            stack += [(item, items) for item in reversed(ref.items)]
    try:
        return read(root, 0, *args)
    except Misread as exc:
        cls, message, parent, index = exc.args
        ref = refs[id(parent), index]
        raise cls(message, ref.line, ref.col) from None


def _head_name(node):
    return node.items[0].value if node.items else None


def _expect_list(node, what):
    if node.is_atom:
        raise ParseError(f"expected {what}", node.line, node.col)
    return node.items


def _reference_sort(node):
    sort = {"Int": INT, "Real": REAL}.get(node.value)
    if sort is None:
        raise ParseError(f"unknown sort {node!r}", node.line, node.col)
    return sort


def _reference_parse_chc(text):
    relations, clauses = {}, []
    for form in _reference_parse_all(text):
        items = _expect_list(form, "a top-level command")
        if not items or not items[0].is_atom:
            raise ParseError("expected a command", form.line, form.col)
        cmd = items[0].value
        if cmd in ("set-logic", "check-sat", "exit", "get-model"):
            continue
        if cmd == "declare-fun":
            if len(items) != 4 or not items[1].is_atom:
                raise ParseError("malformed declare-fun", form.line, form.col)
            name = items[1].value
            sorts = tuple(_reference_sort(s) for s in _expect_list(items[2], "argument sorts"))
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
            clauses.append(_reference_clause(items[1], relations))
            continue
        raise ParseError(f"unknown command {cmd!r}", form.line, form.col)
    return ClauseSet.make(clauses, relations.values())


def _reference_clause(node, relations):
    variables, body_node = {}, node
    if _head_name(node) == "forall":
        if len(node.items) != 3:
            raise ParseError("malformed forall", node.line, node.col)
        variables = _reference_read(read_var_decls, node.items[1])
        body_node = node.items[2]
    if _head_name(body_node) == "=>":
        if len(body_node.items) != 3:
            raise ParseError("'=>' takes a body and a head", body_node.line, body_node.col)
        premise, conclusion = body_node.items[1], body_node.items[2]
    else:
        premise, conclusion = None, body_node
    atoms, constraints = [], []
    if premise is not None:
        parts = premise.items[1:] if _head_name(premise) == "and" else [premise]
        for p in parts:
            name = p.value if p.items is None else _head_name(p)
            if name in relations:
                atoms.append(_reference_rel_atom(p, relations, variables))
            else:
                constraints.append(_reference_read(read_constraint, p, variables))
    head = None
    if not (conclusion.is_atom and conclusion.value == "false"):
        name = conclusion.value if conclusion.is_atom else _head_name(conclusion)
        if name is None or name not in relations:
            # an empty list as the head is reported at itself (the reader it
            # replaced indexed its first item and raised IndexError)
            where = conclusion.items[0] if conclusion.items else conclusion
            raise ParseError(
                f"clause head must be a declared relation atom or 'false', got {name or conclusion!r}",
                where.line, where.col)
        head = _reference_rel_atom(conclusion, relations, variables)
    return HornClause(cand(*constraints) if constraints else TRUE, tuple(atoms), head)


def _reference_rel_atom(node, relations, variables):
    if node.is_atom:
        return RelationAtom(relations[node.value], ())
    sym = relations[node.items[0].value]
    args = tuple([_reference_read(read_term, a, variables) for a in node.items[1:]])
    try:
        return RelationAtom(sym, args)
    except SortMismatch as exc:
        raise SortError(str(exc), node.line, node.col) from None


def _outcome(read, text):
    try:
        return "read", read(text)
    except HornitpError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _nodes(nodes):
    """(value, or "(" for a list; line; col) of every node, in text order."""
    out, stack = [], list(reversed(nodes))
    while stack:
        n = stack.pop()
        out.append(("(" if n.items is not None else n.value, n.line, n.col))
        if n.items is not None:
            stack.extend(reversed(n.items))
    return out


def _placed_nodes(text):
    """(value, or "(" for a list; line; col) of every node that parse_all
    reads, in text order, placed by sexpr._placed."""
    forms = parse_all(text)
    return [("(" if type(parent[index]) is list else parent[index], *_position(text, offset))
            for parent, index, offset in _placed(forms, text)]


def _files() -> list:
    paths = (sorted((ROOT / "tests" / "data").glob("*.chc"))
             + sorted((ROOT / "tests" / "data" / "golden").glob("*.chc"))
             + sorted((ROOT / "perfbench" / "data").glob("*.chc")))
    return [p.read_text() for p in paths]


# what a mutated token may become
_POOL = ["(", ")", "x", "y", "zz", "Int", "Real", "Bool", "and", "or", "not", "=>", "forall",
         "false", "true", "1/0", "2/3", "-1", "1.5", '"s"', '"', '"a""b"', "+", "-", "*",
         "<=", "=", "declare-fun", "assert", "r1", ";c\n", ""]


def _mutants(texts, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = rng.choice(texts)
        spans = [m.span() for m in re.finditer(r'[^\s();"][^\s();]*|[()]|;[^\n]*|"', text)]
        start, end = rng.choice(spans)
        op = rng.randrange(3)
        if op == 0:  # replace (or, with "", delete) one token
            new = rng.choice(_POOL)
        elif op == 1:  # duplicate it
            new = text[start:end] + " " + text[start:end]
        else:  # swap it with the next token
            later = [s for s in spans if s[0] >= end]
            if not later:
                continue
            (s2, e2) = later[0]
            out.append(text[:start] + text[s2:e2] + text[end:s2] + text[start:end] + text[e2:])
            continue
        out.append(text[:start] + new + text[end:])
    return out


class TestReaderMatchesReference:
    def test_files(self):
        for text in _files():
            assert parse_chc(text) == _reference_parse_chc(text)
            assert _placed_nodes(text) == _nodes(_reference_parse_all(text))

    @pytest.mark.parametrize("seed", range(3))
    def test_token_mutants(self, seed):
        kinds = set()
        for i, text in enumerate(_mutants(_files(), 500, seed)):
            got = _outcome(parse_chc, text)
            assert got == _outcome(_reference_parse_chc, text), text
            kinds.add(got[0])
            if i % 4 == 0:  # every node's position, on a quarter of them
                nodes = _outcome(_placed_nodes, text)
                assert nodes == _outcome(lambda t: _nodes(_reference_parse_all(t)), text), text
        # the mutants reach the reader, the clause reader and the terms
        assert {"read", "ParseError", "UndeclaredSymbol"} <= kinds
