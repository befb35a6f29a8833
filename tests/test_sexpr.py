"""S-expression reading and writing for constraints and models."""

import random
import re
from fractions import Fraction

import pytest

from generators import random_constraint, random_term
from test_shortcuts import CNot, _ref_nnf
from hornitp.errors import ParseError, UndeclaredSymbol
from hornitp.sexpr import (
    _placed,
    _position,
    constraint_str,
    model_str,
    number_str,
    parse_all,
    parse_one,
    parse_with,
    read_constraint,
    read_model,
    read_number,
    read_term,
    read_var_decls,
    term_str,
)
from hornitp.terms import (
    FALSE,
    INT,
    REAL,
    TRUE,
    LinearTerm,
    Var,
    cand,
    cnot,
    cor,
    eq,
    evaluate,
    le,
    lt,
    ne,
)

X = Var("x", INT)
Y = Var("y", REAL)
VARS = {"x": X, "y": Y}


def _read(read, text, *args):
    """``read`` on the first node of the text; parse_with places its errors."""
    return parse_with(text, lambda forms: read(forms, 0, *args))


def _preorder(text):
    """(token, or "(" for a list; line; col) of every node of the text, in
    text order, placed by sexpr._placed."""
    forms = parse_all(text)
    return [("(" if type(parent[index]) is list else parent[index], *_position(text, offset))
            for parent, index, offset in _placed(forms, text)]


class TestParser:
    def test_nested_lists(self):
        assert parse_one("(a (b c) d)") == ["a", ["b", "c"], "d"]

    def test_unbalanced_rejected_with_position(self):
        with pytest.raises(ParseError):
            parse_one("(a (b)")
        with pytest.raises(ParseError):
            parse_one("(a)) ")

    def test_positions_after_multiline_string(self):
        # a string literal that spans a newline moves later tokens to the
        # next line, with columns counted from that line's start
        assert [at[1:] for at in _preorder('(a "x\ny" b)')[1:]] == [(1, 2), (1, 4), (2, 4)]
        assert _preorder('(a "x\n\ny")\n(b)')[3] == ("(", 4, 1)

    def test_parse_error_position_after_multiline_string(self):
        with pytest.raises(ParseError) as err:
            parse_all('(a "x\ny" ))')
        assert (err.value.line, err.value.col) == (2, 5)

    def test_doubled_quote_in_string(self):
        text = '(error "say ""hi"" (twice)" x)'
        assert parse_one(text) == ["error", '"say "hi" (twice)"', "x"]
        assert _preorder(text)[3] == ("x", 1, 29)
        with pytest.raises(ParseError):
            parse_all('(a "unterminated "" b)')

    def test_comments_skipped(self):
        assert len(parse_all("; note\n(a) ; trailing\n(b)")) == 2

    def test_numbers(self):
        assert _read(read_number, "-7") == -7
        assert _read(read_number, "2/3") == Fraction(2, 3)
        with pytest.raises(ParseError):
            _read(read_number, "1/0")


# every whitespace character str.isspace accepts separates tokens and counts
# as one column; only "\n" starts a line, also inside strings
READ = [
    ("a\r\n\tb\x0bc\x0cd\xa0e f　g",
     [("a", 1, 1), ("b", 2, 2), ("c", 2, 4), ("d", 2, 6), ("e", 2, 8), ("f", 2, 10),
      ("g", 2, 12)]),
    ('(x"y" "z"w)\n  ;; c (\n"" """" """"""',
     [("(", 1, 1), ('x"y"', 1, 2), ('"z"', 1, 7), ("w", 1, 10), ('""', 3, 1),
      ('"""', 3, 4), ('""""', 3, 9)]),
    ('p "l1\nl2\n\n" q\n  "a""\n""b" r',
     [("p", 1, 1), ('"l1\nl2\n\n"', 1, 3), ("q", 4, 3), ('"a"\n"b"', 5, 3), ("r", 6, 6)]),
    ("; only a comment", []),
    ("(a;c\nb)", [("(", 1, 1), ("a", 1, 2), ("b", 2, 1)]),
    ('(a (b "x)" c)\n  ) d',
     [("(", 1, 1), ("a", 1, 2), ("(", 1, 4), ("b", 1, 5), ('"x)"', 1, 7), ("c", 1, 12),
      ("d", 2, 5)]),
]

UNREADABLE = [
    ('(x"y" "z"w)\n  ;; c (\n"" """" """"""(', "unbalanced '('", 3, 15),
    ('"a" "b', "unterminated string", 1, 5),
    ('(a "x\ny" ))', "unbalanced ')'", 2, 5),
    (")", "unbalanced ')'", 1, 1),
    ("(a\n (b\n  (c)", "unbalanced '('", 2, 2),
]


class TestReaderPositions:
    @pytest.mark.parametrize("text,expected", READ)
    def test_every_node_position(self, text, expected):
        assert _preorder(text) == expected

    @pytest.mark.parametrize("text,message,line,col", UNREADABLE)
    def test_error_message_and_position(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_all(text)
        assert str(err.value) == f"parse error at {line}:{col}: {message}"


# The reader that scanned a text with strings token by token, each string
# read by str.find, and every other text with one findall.
_SPLIT_TOKEN = re.compile(r'[^\s();"][^\s();]*|[()]|;[^\n]*|"')


def _split_parse_all(text):
    stack, top = [], []
    tokens = _SPLIT_TOKEN.findall(text) if '"' not in text else (t for _, t in _split_scan(text))
    for tok in tokens:
        if tok == "(":
            node = []
            top.append(node)
            stack.append(top)
            top = node
        elif tok == ")":
            if not stack:
                _split_unbalanced(text)
            top = stack.pop()
        elif tok[0] not in '";':
            top.append(tok)
        elif tok[0] == '"':
            top.append('"' + tok[1:-1].replace('""', '"') + '"')
    if stack:
        _split_unbalanced(text)
    return top


def _split_scan(text):
    pos = 0
    while pos is not None:
        matches, pos = _SPLIT_TOKEN.finditer(text, pos), None
        for m in matches:
            tok, start = m[0], m.start()
            if tok == '"':
                end = text.find('"', start + 1)
                while end >= 0 and text.startswith('"', end + 1):
                    end = text.find('"', end + 2)
                if end < 0:
                    raise ParseError("unterminated string", *_position(text, start))
                yield start, text[start:end + 1]
                pos = end + 1
                break
            if tok[0] != ";":
                yield start, tok


def _split_unbalanced(text):
    opened = []
    for offset, tok in _split_scan(text):
        if tok == "(":
            opened.append(offset)
        elif tok == ")":
            if not opened:
                raise ParseError("unbalanced ')'", *_position(text, offset))
            opened.pop()
    raise ParseError("unbalanced '('", *_position(text, opened[-1]))


def _parsed(parse, text):
    try:
        return "read", parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


class TestOneTokenizer:
    def test_matches_the_split_reader(self):
        # texts over quotes, escaped quotes, strings, comments (some with
        # quotes) and parentheses
        pieces = ['"', '""', '"a"', '"b""c"', "a", "x1", "(", ")", " ", "\n", ";c\n", ';"\n']
        rng = random.Random(29)
        outcomes = set()
        for _ in range(20_000):
            text = "".join(rng.choices(pieces, k=rng.randrange(13)))
            got = _parsed(parse_all, text)
            assert got == _parsed(_split_parse_all, text), text
            outcomes.add(got[0].split(":")[-1])
        assert outcomes == {"read", " unterminated string", " unbalanced '('", " unbalanced ')'"}


class TestTerms:
    def test_round_trip(self):
        t = LinearTerm.of(X).scale(3) + LinearTerm.of(Y).scale(Fraction(-1, 2)) + 5
        assert _read(read_term, term_str(t), VARS) == t

    def test_minus_accepted_on_input(self):
        t = _read(read_term, "(- x 1)", VARS)
        assert t == LinearTerm.of(X) - 1

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredSymbol):
            _read(read_term, "z", VARS)

    def test_undeclared_variable_reports_its_position(self):
        with pytest.raises(UndeclaredSymbol) as err:
            _read(read_term, "(+ x\n   (* 2 z))", VARS)
        assert str(err.value) == "parse error at 2:9: undeclared variable 'z'"
        assert (err.value.line, err.value.col) == (2, 9)


class TestConstraints:
    def test_true_false(self):
        assert _read(read_constraint, "true", VARS) is TRUE
        assert _read(read_constraint, "false", VARS) is FALSE
        assert constraint_str(TRUE) == "true"

    def test_comparison_directions(self):
        assert _read(read_constraint, "(>= x 1)", VARS) == \
            _read(read_constraint, "(<= 1 x)", VARS)

    def test_disequality_as_negated_equality(self):
        c = ne(LinearTerm.of(X), 1)
        out = constraint_str(c)
        assert out.startswith("(not (=")
        reparsed = _read(read_constraint, out, VARS)
        for v in (0, 1, 2):
            m = {X: Fraction(v)}
            assert evaluate(reparsed, m) == evaluate(c, m)

    def test_round_trip_stable_and_semantics_preserved(self):
        rng = random.Random(19)
        pool = [X, Var("y", INT), Var("z", INT)]
        names = {v.name: v for v in pool}
        for _ in range(200):
            c = random_constraint(rng, pool)
            c1 = _read(read_constraint, constraint_str(c), names)
            c2 = _read(read_constraint, constraint_str(c1), names)
            assert c2 == c1
            for _ in range(10):
                m = {v: Fraction(rng.randint(-4, 4)) for v in pool}
                assert evaluate(c, m) == evaluate(c1, m)

    def test_not_is_read_in_negation_normal_form(self):
        # the reader before constraints were built in negation normal form
        # made a CNot node per not, which to_dnf's pass pushed onto the atoms
        def old_read(node):
            if type(node) is str or node[0] not in ("and", "or", "not"):
                return read_constraint([node], 0, names)
            if node[0] == "not":
                c = old_read(node[1])
                return {TRUE: FALSE, FALSE: TRUE}.get(c) or (c.arg if type(c) is CNot else CNot(c))
            return (cand if node[0] == "and" else cor)(*map(old_read, node[1:]))

        def text(depth):
            k = rng.random()
            if depth == 0 or k < 0.25:
                if k < 0.05:
                    return rng.choice(["true", "false"])
                op = rng.choice(["<=", "<", "=", ">=", ">"])
                lhs, rhs = term_str(random_term(rng, pool)), term_str(random_term(rng, pool))
                return f"({op} {lhs} {rhs})"
            if k < 0.5:
                return f"(not {text(depth - 1)})"
            args = " ".join(text(depth - 1) for _ in range(rng.randint(0, 3)))
            return f"({rng.choice(['and', 'or'])} {args})"

        rng = random.Random(23)
        pool = [X, Var("z", INT), Y]
        names = {v.name: v for v in pool}
        for _ in range(500):
            t = text(5)
            got = _read(read_constraint, t, names)
            want = _ref_nnf(old_read(parse_one(t)), False)
            assert got == want and repr(got) == repr(want), t
            assert "(not (not" not in constraint_str(got) and "(not (<" not in constraint_str(got)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ParseError):
            _read(read_constraint, "(xor x 1)", VARS)


class TestDeclsAndModels:
    def test_var_decls(self):
        decls = _read(read_var_decls, "((a Int) (b Real))")
        assert decls["a"].sort == INT and decls["b"].sort == REAL

    def test_duplicate_decl_rejected(self):
        with pytest.raises(ParseError):
            _read(read_var_decls, "((a Int) (a Int))")

    def test_model_round_trip(self):
        model = {X: Fraction(3), Y: Fraction(-1, 2)}
        out = model_str(model)
        assert _read(read_model, out, VARS) == model

    def test_number_str(self):
        assert number_str(Fraction(4, 2)) == "2"
        assert number_str(Fraction(-1, 3)) == "-1/3"
