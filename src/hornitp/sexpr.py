"""S-expression reading/writing for constraints, models, and problems.

The constraint grammar is shared by the solver protocol, the ``encode``
subcommand, and solution files::

    c ::= true | false | (and c...) | (or c...) | (not c)
        | (<= t t) | (< t t) | (= t t)
    t ::= (+ t...) | (* q v) | <integer> | <rational n/d> | <variable>

Rationals are written ``n/d``; every emitted expression fits on one line.
"""

from __future__ import annotations

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
    _rat,
    atom,
    cand,
    cnot,
    cor,
    render,
)


class SNode:
    """Parsed s-expression: either an atom or a list, with a position."""

    __slots__ = ("value", "items", "line", "col")

    def __init__(self, value=None, items=None, line=0, col=0):
        self.value = value  # str for atoms, None for lists
        self.items = items  # list of SNode for lists, None for atoms
        self.line = line
        self.col = col

    @property
    def is_atom(self):
        return self.items is None

    def __repr__(self):
        return self.value if self.is_atom else "(" + " ".join(map(repr, self.items)) + ")"


def tokenize(text: str):
    """(token, line, col) triples.  A string token keeps its enclosing quotes,
    and a doubled quote inside it reads as one, as in SMT-LIB 2.6."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, line, col)
            col += 1
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            while j >= 0 and text.startswith('"', j + 1):  # "" is one escaped "
                j = text.find('"', j + 2)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            yield ('"' + text[i + 1:j].replace('""', '"') + '"', line, col)
            newlines = text.count("\n", i, j)
            if newlines:
                line += newlines
                col = j + 1 - text.rfind("\n", i, j)
            else:
                col += j + 1 - i
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            yield (text[i:j], line, col)
            col += j - i
            i = j


def parse_all(text: str) -> list:
    """All top-level s-expressions in the text."""
    stack: list = []
    top: list = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            stack.append((SNode(items=[], line=line, col=col), top))
            top = stack[-1][0].items
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            node, top = stack.pop()
            top.append(node)
        else:
            top.append(SNode(value=tok, line=line, col=col))
    if stack:
        node = stack[-1][0]
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


def parse_sort(node: SNode):
    if node.is_atom and node.value == "Int":
        return INT
    if node.is_atom and node.value == "Real":
        return REAL
    raise ParseError(f"unknown sort {node!r}", node.line, node.col)


def sort_str(sort) -> str:
    return "Int" if sort is INT else "Real"


def _is_number_token(s: str) -> bool:
    body = s[1:] if s[:1] == "-" else s
    return bool(body) and (body.replace("/", "", 1).replace(".", "", 1).isdigit())


# ---------------------------------------------------------------------------
# terms and constraints
# ---------------------------------------------------------------------------


def parse_term(node: SNode, variables: dict) -> LinearTerm:
    """``variables`` maps names to Var; unknown names raise."""
    if node.is_atom:
        if _is_number_token(node.value):
            return LinearTerm.const(parse_number(node))
        v = variables.get(node.value)
        if v is None:
            raise UndeclaredSymbol(f"undeclared variable {node.value!r}")
        return LinearTerm.of(v)
    if not node.items or not node.items[0].is_atom:
        raise ParseError("malformed term", node.line, node.col)
    op = node.items[0].value
    args = node.items[1:]
    if op == "+":
        total = LinearTerm.const(0)
        for a in args:
            total = total + parse_term(a, variables)
        return total
    if op == "-":
        if len(args) == 1:
            return -parse_term(args[0], variables)
        if len(args) >= 2:
            total = parse_term(args[0], variables)
            for a in args[1:]:
                total = total - parse_term(a, variables)
            return total
        raise ParseError("'-' needs arguments", node.line, node.col)
    if op == "*":
        if len(args) != 2:
            raise ParseError("'*' takes a constant and a term", node.line, node.col)
        left, right = args
        if left.is_atom and _is_number_token(left.value):
            return parse_term(right, variables).scale(parse_number(left))
        if right.is_atom and _is_number_token(right.value):
            return parse_term(left, variables).scale(parse_number(right))
        raise ParseError("'*' needs a constant factor", node.line, node.col)
    raise ParseError(f"unknown term operator {op!r}", node.line, node.col)


def term_str(t: LinearTerm) -> str:
    pieces = []
    for v, c in t.coeffs:
        pieces.append(v.name if c == 1 else f"(* {number_str(c)} {v.name})")
    if t.constant != 0 or not pieces:
        pieces.append(number_str(t.constant))
    return pieces[0] if len(pieces) == 1 else "(+ " + " ".join(pieces) + ")"


_REL_OPS = {"<=": LE, "<": LT, "=": EQ}


def parse_constraint(node: SNode, variables: dict) -> Constraint:
    if node.is_atom:
        if node.value == "true":
            return TRUE
        if node.value == "false":
            return FALSE
        raise ParseError(f"unexpected constraint atom {node.value!r}", node.line, node.col)
    if not node.items or not node.items[0].is_atom:
        raise ParseError("malformed constraint", node.line, node.col)
    op = node.items[0].value
    args = node.items[1:]
    if op == "and":
        return cand(*(parse_constraint(a, variables) for a in args))
    if op == "or":
        return cor(*(parse_constraint(a, variables) for a in args))
    if op == "not":
        if len(args) != 1:
            raise ParseError("'not' takes one argument", node.line, node.col)
        return cnot(parse_constraint(args[0], variables))
    if op in _REL_OPS or op in (">=", ">"):
        if len(args) != 2:
            raise ParseError(f"{op!r} takes two terms", node.line, node.col)
        left = parse_term(args[0], variables)
        right = parse_term(args[1], variables)
        if op in (">=", ">"):
            left, right = right, left
            op = "<=" if op == ">=" else "<"
        return atom(left - right, _REL_OPS[op])
    raise ParseError(f"unknown constraint operator {op!r}", node.line, node.col)


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
        if d.is_atom or len(d.items) != 2 or not d.items[0].is_atom:
            raise ParseError("malformed variable declaration", d.line, d.col)
        name = d.items[0].value
        if name in out:
            raise ParseError(f"duplicate variable {name!r}", d.line, d.col)
        out[name] = Var(name, parse_sort(d.items[1]))
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
