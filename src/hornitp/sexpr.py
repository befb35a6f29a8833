"""S-expression reading/writing for constraints, models, and problems.

The constraint grammar is shared by the solver protocol, the ``encode``
subcommand, and solution files::

    c ::= true | false | (and c...) | (or c...) | (not c)
        | (<= t t) | (< t t) | (= t t) | (>= t t) | (> t t)
    t ::= (+ t...) | (- t) | (- t t...) | (* q t) | (* t q)
        | <integer> | <rational n/d> | <decimal> | <variable>

``(not c)`` is accepted on input, and a constraint is read in negation
normal form.  Printed constraints are in that form too: ``not`` appears only
as ``(not (= t 0))``, the form of a ``!=`` atom.  Rationals are written
``n/d``; every emitted expression fits on one line.
Between tokens the reader skips whitespace and ``;`` comments that run to
the end of the line.  A string is ``"..."`` with ``""`` for one quote, as in
SMT-LIB 2.6, and may span lines.

The reader is one ``findall`` scan of one regular expression into plain
nested lists, the one parsed form: a list is a Python list, and every other
token stays the ``str`` it was read as, so a text costs one object per list.
A string is one token of that scan.  No positions are kept.  The
``read_*`` functions read the node ``parent[index]``, and a reading error
names its node as ``(parent, index)`` in a :class:`Misread`;
:func:`parse_with` turns it into its error class at the node's line and
column, computed only then, by a second scan that walks the lists in step
with the text's tokens.  Terms and constraints are read with explicit
stacks, so their nesting depth is not limited by the recursion limit.
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


# One token per match.  Whitespace matches no alternative, so the scan
# skips it; every other character starts a match.  A string runs from its
# opening quote to the first quote not followed by another, since ``""`` is
# one escaped quote; a quote that starts no such string is a token of its
# own, an unterminated string.
_TOKEN = re.compile(r'[^\s();"][^\s();]*|[()]|;[^\n]*|"(?:[^"]|"")*"(?!")|"')


def parse_all(text: str) -> list:
    """The top-level s-expressions of the text as nested lists of tokens,
    strings unescaped, read from one ``findall``."""
    stack: list = []  # the enclosing lists of the open lists
    top: list = []
    for tok in _TOKEN.findall(text):
        if tok == "(":
            node: list = []
            top.append(node)
            stack.append(top)
            top = node
        elif tok == ")":
            if not stack:
                _unbalanced(text)
            top = stack.pop()
        elif tok[0] not in '";':
            top.append(tok)
        elif tok == '"':
            list(_scan(text))  # raises the unterminated string at its offset
        elif tok[0] == '"':
            top.append('"' + tok[1:-1].replace('""', '"') + '"')
    if stack:
        _unbalanced(text)
    return top


def _scan(text: str):
    """(offset, token) of every token but comments, in text order; raises
    ParseError at the opening quote of an unterminated string."""
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == '"':
            raise ParseError("unterminated string", *_position(text, m.start()))
        if tok[0] != ";":
            yield m.start(), tok


def _unbalanced(text: str):
    """Raise the first unbalanced parenthesis of a text that has one."""
    opened: list = []  # offsets of the open lists
    for offset, tok in _scan(text):
        if tok == "(":
            opened.append(offset)
        elif tok == ")":
            if not opened:
                raise ParseError("unbalanced ')'", *_position(text, offset))
            opened.pop()
    raise ParseError("unbalanced '('", *_position(text, opened[-1]))


class Misread(Exception):
    """``Misread(cls, message, parent, index)``: a reading error of class
    ``cls`` about the node ``parent[index]``, placed when it is reported."""


def _placed(forms: list, text: str):
    """(parent, index, offset) of every node of the forms read from the
    text, in text order."""
    offsets = iter([offset for offset, _ in _scan(text)])
    stack: list = [(forms, i) for i in reversed(range(len(forms)))]
    while stack:
        parent, index = stack.pop()
        offset = next(offsets)
        if parent is not None:  # else a list's ')'
            yield parent, index, offset
            node = parent[index]
            if type(node) is list:
                stack.append((None, 0))
                stack += [(node, i) for i in reversed(range(len(node)))]


def parse_with(text: str, build):
    """``build(forms)`` on the top-level forms of the text, read as nested
    lists; a Misread it raises becomes its error class at the line and
    column of its node."""
    forms = parse_all(text)
    try:
        return build(forms)
    except Misread as exc:
        cls, message, parent, index = exc.args
        offset = next(o for p, i, o in _placed(forms, text) if p is parent and i == index)
        raise cls(message, *_position(text, offset)) from None


def parse_one(text: str):
    forms = parse_all(text)
    if len(forms) != 1:
        raise ParseError(f"expected one expression, found {len(forms)}", 1, 1)
    return forms[0]


def node_str(node) -> str:
    """A node read as nested lists, written back on one line."""
    out = []
    stack: list = [node]  # nodes, and (text,) for the text between them
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            out.append(node[0])
        elif type(node) is str:
            out.append(node)
        else:
            out.append("(")
            stack.append((")",))
            for i, item in enumerate(reversed(node)):
                if i:
                    stack.append((" ",))
                stack.append(item)
    return "".join(out)


def head_name(node):
    """The first token of a list node that starts with one, else None."""
    return node[0] if type(node) is list and node and type(node[0]) is str else None


# ---------------------------------------------------------------------------
# numbers, sorts, variables
# ---------------------------------------------------------------------------


def read_number(parent: list, index: int) -> int | Fraction:
    """An int for an integral literal, else a Fraction (never a float)."""
    tok = parent[index]
    if type(tok) is not str:
        raise Misread(ParseError, "expected a number", parent, index)
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return _rat(Fraction(int(num), int(den)))
        if "." in tok:
            return _rat(Fraction(tok))
        return int(tok)
    except (ValueError, ZeroDivisionError):
        raise Misread(ParseError, f"malformed number {tok!r}", parent, index) from None


def number_str(q: int | Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_SORTS = {"Int": INT, "Real": REAL}


def read_sort(parent: list, index: int):
    node = parent[index]
    sort = _SORTS.get(node) if type(node) is str else None
    if sort is None:
        raise Misread(ParseError, f"unknown sort {node_str(node)}", parent, index)
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
    """Adds k * t to the coefficient dict ``acc`` for every (parent, index,
    k) on ``stack``, t being ``parent[index]``, and returns the sum of their
    constants.  Subterms are read left to right, so the first error raised
    is the first in the text."""
    const = 0
    while stack:
        parent, index, k = stack.pop()
        if k is None:  # a malformed factor, reported once its term is read
            raise parent
        node = parent[index]
        if type(node) is str:
            v = variables.get(node)
            # a number token reads as a number even where a variable has its
            # name; a token that starts with a letter is no number token
            if v is not None and (node[0].isalpha() or not _is_number_token(node)):
                acc[v] = acc.get(v, 0) + k
            elif _is_number_token(node):
                const += k * read_number(parent, index)
            else:
                raise Misread(UndeclaredSymbol, f"undeclared variable {node!r}", parent, index)
            continue
        if not node or type(node[0]) is not str:
            raise Misread(ParseError, "malformed term", parent, index)
        op = node[0]
        n = len(node)
        if op == "+":
            stack += [(node, i, k) for i in range(n - 1, 0, -1)]
        elif op == "-":
            if n == 1:
                raise Misread(ParseError, "'-' needs arguments", parent, index)
            if n == 2:
                stack.append((node, 1, -k))
            else:
                stack += [(node, i, -k) for i in range(n - 1, 1, -1)]
                stack.append((node, 1, k))
        elif op == "*":
            if n != 3:
                raise Misread(ParseError, "'*' takes a constant and a term", parent, index)
            factor, term = 1, 2
            if not (type(node[1]) is str and _is_number_token(node[1])):
                factor, term = 2, 1
                if not (type(node[2]) is str and _is_number_token(node[2])):
                    raise Misread(ParseError, "'*' needs a constant factor", parent, index)
            try:
                q = read_number(node, factor)
            except Misread as exc:
                stack.append((exc, 0, None))
                q = 0
            stack.append((node, term, k * q))
        else:
            raise Misread(ParseError, f"unknown term operator {op!r}", parent, index)
    return const


def read_term(parent: list, index: int, variables: dict) -> LinearTerm:
    """The term ``parent[index]``; ``variables`` maps names to Var."""
    tok = parent[index]
    if type(tok) is str and tok[0].isalpha():  # the common case: a variable
        v = variables.get(tok)
        if v is not None:
            return LinearTerm(((v, 1),), 0)
    acc: dict = {}
    const = _collect([(parent, index, 1)], acc, variables)
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


def read_constraint(parent: list, index: int, variables: dict) -> Constraint:
    """The constraint ``parent[index]``, in negation normal form.  Each node
    is read in a polarity that ``(not c)`` flips for c: negated, an atom or
    constant is read as its negation and an and/or as an or/and, so no
    subtree is negated once built."""
    done: list = []  # the constraints read so far, in text order
    # (parent, index, negated?) of the nodes to read, and (combine, n, None)
    # for the last n done
    stack: list = [(parent, index, False)]
    while stack:
        parent, index, neg = stack.pop()
        if type(parent) is not list:
            args = done[len(done) - index:]
            del done[len(done) - index:]
            done.append(parent(*args))
            continue
        node = parent[index]
        if type(node) is str:
            c = _CONSTANTS.get(node)
            if c is None:
                raise Misread(ParseError, f"unexpected constraint atom {node!r}", parent, index)
            done.append(cnot(c) if neg else c)
            continue
        if not node or type(node[0]) is not str:
            raise Misread(ParseError, "malformed constraint", parent, index)
        op = node[0]
        if op == "and" or op == "or":
            stack.append((cand if (op == "and") != neg else cor, len(node) - 1, None))
            stack += [(node, i, neg) for i in range(len(node) - 1, 0, -1)]
        elif op == "not":
            if len(node) != 2:
                raise Misread(ParseError, "'not' takes one argument", parent, index)
            stack.append((node, 1, not neg))
        elif op in _REL_OPS:
            if len(node) != 3:
                raise Misread(ParseError, f"{op!r} takes two terms", parent, index)
            rel, sign = _REL_OPS[op]
            acc: dict = {}
            const = _collect([(node, 2, -sign), (node, 1, sign)], acc, variables)
            c = atom(LinearTerm(_clean(acc), _rat(const)), rel)
            done.append(cnot(c) if neg else c)
        else:
            raise Misread(ParseError, f"unknown constraint operator {op!r}", parent, index)
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


def read_var_decls(parent: list, index: int, start: int = 0) -> dict:
    """The declarations ``(x Int) (y Real) ...`` from position ``start`` of
    the list ``parent[index]``, as an ordered name-to-Var map."""
    node = parent[index]
    if type(node) is str:
        raise Misread(ParseError, "expected a variable declaration list", parent, index)
    out: dict = {}
    for i in range(start, len(node)):
        d = node[i]
        if type(d) is str or len(d) != 2 or type(d[0]) is not str:
            raise Misread(ParseError, "malformed variable declaration", node, i)
        name = d[0]
        if name in out:
            raise Misread(ParseError, f"duplicate variable {name!r}", node, i)
        out[name] = Var(name, read_sort(d, 1))
    return out


def var_decls_str(variables) -> str:
    return "(" + " ".join(f"({v.name} {sort_str(v.sort)})" for v in variables) + ")"


def model_str(model: dict) -> str:
    entries = " ".join(
        f"({v.name} {number_str(val)})" for v, val in sorted(model.items()))
    return f"(model {entries})"


def read_model(parent: list, index: int, variables: dict) -> dict:
    """The model ``(model (x 1) (y 1/2) ...)``; a name not in ``variables``
    reads as an Int variable."""
    node = parent[index]
    if type(node) is str or not node or node[0] != "model":
        raise Misread(ParseError, "expected (model ...)", parent, index)
    out = {}
    for i in range(1, len(node)):
        e = node[i]
        if type(e) is str or len(e) != 2 or type(e[0]) is not str:
            raise Misread(ParseError, "malformed model entry", node, i)
        v = variables.get(e[0], Var(e[0], INT))
        out[v] = Fraction(read_number(e, 1))
    return out
