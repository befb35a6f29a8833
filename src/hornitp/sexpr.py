"""S-expression reading/writing for constraints, models, and problems.

The constraint grammar is shared by the solver protocol, the ``encode``
subcommand, and solution files::

    c ::= true | false | (and c...) | (or c...) | (not c)
        | (<= t t) | (< t t) | (= t t) | (>= t t) | (> t t)
    t ::= (+ t...) | (- t) | (- t t...) | (* q t) | (* t q)
        | <integer> | <rational n/d> | <decimal> | <variable>

Rationals are written ``n/d``; every emitted expression fits on one line.
Between tokens the reader skips whitespace and ``;`` comments that run to
the end of the line.  A string is ``"..."`` with ``""`` for one quote, as in
SMT-LIB 2.6, and may span lines.

:func:`parse_all` reads a text in one pass of one regular expression,
which resumes after each string.  Each node keeps its character offset in
the text; its ``line`` and ``col`` are counted from the text only when asked
for, which in practice means when an error is reported.  Terms and
constraints are read with explicit stacks, so their nesting depth is not
limited by the recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, UndeclaredSymbol
from .terms import (
    EQ,
    FALSE,
    INT,
    LE,
    LT,
    NE,
    REAL,
    TRUE,
    Constraint,
    LinearTerm,
    Var,
    _clean,
    _rat,
    atom,
    cand,
    cnot,
    cor,
    render,
)


def _position(text: str, offset: int) -> tuple:
    """(line, col) of ``text[offset]``, both counted from 1; only "\n" ends
    a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class SNode:
    """Parsed s-expression: either an atom or a list, with a position.

    A node read from a text holds the text and its offset in it; ``line``
    and ``col`` are computed from them on demand.  A node built by hand may
    give ``line`` and ``col`` directly instead."""

    __slots__ = ("value", "items", "offset", "source", "_line", "_col")

    def __init__(self, value=None, items=None, offset=0, source=None, line=0, col=0):
        self.value = value  # str for atoms, None for lists
        self.items = items  # list of SNode for lists, None for atoms
        self.offset = offset
        self.source = source  # the text read, or None for a given position
        if source is None:
            self._line = line
            self._col = col

    @property
    def line(self) -> int:
        return self._line if self.source is None else _position(self.source, self.offset)[0]

    @property
    def col(self) -> int:
        return self._col if self.source is None else _position(self.source, self.offset)[1]

    @property
    def is_atom(self):
        return self.items is None

    def __repr__(self):
        out = []
        stack: list = [self]  # nodes, and the text between them
        while stack:
            node = stack.pop()
            if type(node) is str:
                out.append(node)
            elif node.items is None:
                out.append(node.value)
            else:
                out.append("(")
                stack.append(")")
                for i, item in enumerate(reversed(node.items)):
                    if i:
                        stack.append(" ")
                    stack.append(item)
        return "".join(out)


# One token per match.  Whitespace matches no alternative, so ``finditer``
# skips it; every other character starts a match.  A string is read from its
# opening quote by ``_string_end``, and the scan goes on after it.
_TOKEN = re.compile(r'[^\s();"][^\s();]*|[()]|;[^\n]*|"')


def _string_end(text: str, start: int) -> int:
    """Index of the quote that closes the string opened at ``start``: the
    first one not followed by another, since ``""`` is one escaped quote."""
    end = text.find('"', start + 1)
    while end >= 0 and text.startswith('"', end + 1):
        end = text.find('"', end + 2)
    if end < 0:
        raise ParseError("unterminated string", *_position(text, start))
    return end


def parse_all(text: str) -> list:
    """All top-level s-expressions in the text."""
    stack: list = []  # the enclosing lists of the open list nodes
    top: list = []
    pos = 0
    while pos is not None:  # one pass, resumed after each string
        tokens, pos = _TOKEN.finditer(text, pos), None
        for m in tokens:
            tok = m[0]
            if tok == "(":
                node = SNode(None, [], m.start(), text)
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
                top.append(SNode('"' + text[start + 1:end].replace('""', '"') + '"',
                                 None, start, text))
                pos = end + 1
                break
            elif tok[0] != ";":
                top.append(SNode(tok, None, m.start(), text))
    if stack:
        node = stack[-1][-1]  # the innermost open list
        raise ParseError("unbalanced '('", node.line, node.col)
    return top


def parse_one(text: str) -> SNode:
    nodes = parse_all(text)
    if len(nodes) != 1:
        raise ParseError(f"expected one expression, found {len(nodes)}", 1, 1)
    return nodes[0]


# ---------------------------------------------------------------------------
# numbers, sorts, variables
# ---------------------------------------------------------------------------


def parse_number(node: SNode) -> int | Fraction:
    """An int for an integral literal, else a Fraction (never a float)."""
    if not node.is_atom:
        raise ParseError("expected a number", node.line, node.col)
    try:
        if "/" in node.value:
            num, den = node.value.split("/", 1)
            return _rat(Fraction(int(num), int(den)))
        if "." in node.value:
            return _rat(Fraction(node.value))
        return int(node.value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed number {node.value!r}", node.line, node.col) from None


def number_str(q: int | Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_SORTS = {"Int": INT, "Real": REAL}


def parse_sort(node: SNode):
    sort = _SORTS.get(node.value)  # a list's value is None
    if sort is None:
        raise ParseError(f"unknown sort {node!r}", node.line, node.col)
    return sort


def sort_str(sort) -> str:
    return "Int" if sort is INT else "Real"


def _is_number_token(s: str) -> bool:
    body = s[1:] if s[:1] == "-" else s
    return bool(body) and (body.replace("/", "", 1).replace(".", "", 1).isdigit())


# ---------------------------------------------------------------------------
# terms and constraints
# ---------------------------------------------------------------------------


def _collect(stack: list, acc: dict, variables: dict):
    """Adds k * t to the coefficient dict ``acc`` for every (t, k) on
    ``stack`` and returns the sum of their constants.  Subterms are read
    left to right, so the first error raised is the first in the text."""
    const = 0
    while stack:
        node, k = stack.pop()
        if k is None:  # a malformed factor, reported once its term is read
            raise node
        items = node.items
        if items is None:
            tok = node.value
            v = variables.get(tok)
            # a number token reads as a number even where a variable has its
            # name; a token that starts with a letter is no number token
            if v is not None and (tok[0].isalpha() or not _is_number_token(tok)):
                acc[v] = acc.get(v, 0) + k
            elif _is_number_token(tok):
                const += k * parse_number(node)
            else:
                raise UndeclaredSymbol(f"undeclared variable {tok!r}", node.line, node.col)
            continue
        if not items or items[0].items is not None:
            raise ParseError("malformed term", node.line, node.col)
        op = items[0].value
        if op == "+":
            stack += [(a, k) for a in reversed(items[1:])]
        elif op == "-":
            if len(items) == 1:
                raise ParseError("'-' needs arguments", node.line, node.col)
            if len(items) == 2:
                stack.append((items[1], -k))
            else:
                stack += [(a, -k) for a in reversed(items[2:])]
                stack.append((items[1], k))
        elif op == "*":
            if len(items) != 3:
                raise ParseError("'*' takes a constant and a term", node.line, node.col)
            _, factor, term = items
            if not (factor.items is None and _is_number_token(factor.value)):
                factor, term = term, factor
                if not (factor.items is None and _is_number_token(factor.value)):
                    raise ParseError("'*' needs a constant factor", node.line, node.col)
            try:
                q = parse_number(factor)
            except ParseError as exc:
                stack.append((exc, None))
                q = 0
            stack.append((term, k * q))
        else:
            raise ParseError(f"unknown term operator {op!r}", node.line, node.col)
    return const


def parse_term(node: SNode, variables: dict) -> LinearTerm:
    """``variables`` maps names to Var; unknown names raise."""
    tok = node.value
    if tok is not None and tok[0].isalpha():  # the common case: a variable
        v = variables.get(tok)
        if v is not None:
            return LinearTerm(((v, 1),), 0)
    acc: dict = {}
    const = _collect([(node, 1)], acc, variables)
    return LinearTerm(_clean(acc), _rat(const))


def term_str(t: LinearTerm) -> str:
    pieces = []
    for v, c in t.coeffs:
        pieces.append(v.name if c == 1 else f"(* {number_str(c)} {v.name})")
    if t.constant != 0 or not pieces:
        pieces.append(number_str(t.constant))
    return pieces[0] if len(pieces) == 1 else "(+ " + " ".join(pieces) + ")"


# operator -> (relation, sign of the first term in ``first - second rel 0``)
_REL_OPS = {"<=": (LE, 1), "<": (LT, 1), "=": (EQ, 1), ">=": (LE, -1), ">": (LT, -1)}
_CONSTANTS = {"true": TRUE, "false": FALSE}


def parse_constraint(node: SNode, variables: dict) -> Constraint:
    done: list = []  # the constraints read so far, in text order
    stack: list = [node]  # nodes to read, and (combine, n) for the last n done
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            combine, n = node
            args = done[len(done) - n:]
            del done[len(done) - n:]
            done.append(combine(*args))
            continue
        items = node.items
        if items is None:
            c = _CONSTANTS.get(node.value)
            if c is None:
                raise ParseError(f"unexpected constraint atom {node.value!r}",
                                 node.line, node.col)
            done.append(c)
            continue
        if not items or items[0].items is not None:
            raise ParseError("malformed constraint", node.line, node.col)
        op = items[0].value
        if op == "and" or op == "or":
            stack.append((cand if op == "and" else cor, len(items) - 1))
            stack += reversed(items[1:])
        elif op == "not":
            if len(items) != 2:
                raise ParseError("'not' takes one argument", node.line, node.col)
            stack.append((cnot, 1))
            stack.append(items[1])
        elif op in _REL_OPS:
            if len(items) != 3:
                raise ParseError(f"{op!r} takes two terms", node.line, node.col)
            rel, sign = _REL_OPS[op]
            acc: dict = {}
            const = _collect([(items[2], -sign), (items[1], sign)], acc, variables)
            done.append(atom(LinearTerm(_clean(acc), _rat(const)), rel))
        else:
            raise ParseError(f"unknown constraint operator {op!r}", node.line, node.col)
    return done[0]


def _atom_str(a) -> str:
    if a.rel == NE:
        return f"(not (= {term_str(a.term)} 0))"
    return f"({a.rel} {term_str(a.term)} 0)"


def constraint_str(c: Constraint) -> str:
    return render(c, _atom_str)


# ---------------------------------------------------------------------------
# variable declaration lists and models
# ---------------------------------------------------------------------------


def parse_var_decls(node: SNode) -> dict:
    """``((x Int) (y Real) ...)`` -> ordered name-to-Var map."""
    if node.is_atom:
        raise ParseError("expected a variable declaration list", node.line, node.col)
    out: dict = {}
    for d in node.items:
        items = d.items
        if items is None or len(items) != 2 or items[0].items is not None:
            raise ParseError("malformed variable declaration", d.line, d.col)
        name = items[0].value
        if name in out:
            raise ParseError(f"duplicate variable {name!r}", d.line, d.col)
        out[name] = Var(name, parse_sort(items[1]))
    return out


def var_decls_str(variables) -> str:
    return "(" + " ".join(f"({v.name} {sort_str(v.sort)})" for v in variables) + ")"


def model_str(model: dict) -> str:
    entries = " ".join(
        f"({v.name} {number_str(val)})" for v, val in sorted(model.items()))
    return f"(model {entries})"


def parse_model(node: SNode, variables: dict) -> dict:
    if node.is_atom or not node.items or node.items[0].value != "model":
        raise ParseError("expected (model ...)", node.line, node.col)
    out = {}
    for e in node.items[1:]:
        if e.is_atom or len(e.items) != 2 or not e.items[0].is_atom:
            raise ParseError("malformed model entry", e.line, e.col)
        name = e.items[0].value
        v = variables.get(name, Var(name, INT))
        out[v] = Fraction(parse_number(e.items[1]))
    return out
