"""External interpolation backends: protocol, re-verification, fault handling."""

import shlex
import sys
import threading

import pytest

from hornitp.backend import Backend, external_interpolant, interpolation_request
from hornitp.engine import check_interpolant
from hornitp.errors import BackendError, NotUnsat, VerificationFailed
from hornitp.sexpr import parse_one
from hornitp.terms import INT, LinearTerm, Var, cand, ge, le

X = Var("x", INT)
TX = LinearTerm.of(X)


def _stub(name: str) -> str:
    return f"{shlex.quote(sys.executable)} tests/backends/{name}.py"


class TestRequestFormat:
    def test_line_shape_and_vars(self):
        a = ge(TX, 0)
        b = le(TX, -1)
        line, variables = interpolation_request(a, b)
        node = parse_one(line)
        assert node[0] == "interpolate"
        assert {item[0] for item in node[1:]} == {"vars", "A", "B"}
        assert set(variables) == {"x"}
        assert "\n" not in line


class TestGoodBackend:
    def test_interpolant_verified(self):
        with Backend(_stub("good_backend")) as be:
            itp = be.interpolate(ge(TX, 0), le(TX, -1))
        assert check_interpolant(ge(TX, 0), le(TX, -1), itp.formula) == []

    def test_sat_reply_becomes_not_unsat_with_model(self):
        with Backend(_stub("good_backend")) as be:
            with pytest.raises(NotUnsat) as exc:
                be.interpolate(ge(TX, 0), ge(TX, 5))
        from hornitp.terms import evaluate

        assert evaluate(cand(ge(TX, 0), ge(TX, 5)), exc.value.model)

    def test_many_requests_one_process(self, unsat_pairs):
        with Backend(_stub("good_backend")) as be:
            for a, b in unsat_pairs[:50]:
                itp = external_interpolant(a, b, be)
                assert check_interpolant(a, b, itp.formula) == []

    def test_threads_share_one_process(self):
        # each thread's interpolant separates its own bound; a reply read by
        # the wrong thread fails the local re-verification
        errors = []

        def worker(k):
            try:
                for i in range(10):
                    c = 10 * k + i
                    be.interpolate(ge(TX, c), le(TX, c - 1))
            except Exception as exc:  # reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Backend(_stub("good_backend")) as be:
                threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert errors == []


# one case per branch of external_interpolant, against x >= 0 and x <= -1
REPLIES = [
    ("(a", BackendError, "unparsable backend reply: parse error at 1:1: unbalanced '('"),
    ("(a) (b)", BackendError,
     "unparsable backend reply: parse error at 1:1: expected one expression, found 2"),
    ("hello", BackendError, "malformed backend reply: 'hello'"),
    ("()", BackendError, "malformed backend reply: '()'"),
    ("((x) 1)", BackendError, "malformed backend reply: '((x) 1)'"),
    ('(error "boom" 3)', BackendError, 'backend reported an error: "boom" 3'),
    ("(what)", BackendError, "unknown backend reply kind 'what'"),
    ("(sat)", BackendError, "malformed sat reply: '(sat)'"),
    ("(sat (foo))", BackendError, "malformed sat reply: parse error at 1:6: expected (model ...)"),
    ("(sat (model (x 1/0)))", BackendError,
     "malformed sat reply: parse error at 1:16: malformed number '1/0'"),
    ("(sat (model (x 5)))", VerificationFailed,
     "backend model rejected: it does not satisfy A and B"),
    ("(sat (model))", VerificationFailed, "backend model rejected: it does not satisfy A and B"),
    ("(interpolant)", BackendError, "malformed interpolant reply: '(interpolant)'"),
    ("(interpolant (<= x))", BackendError,
     "unparsable backend interpolant: parse error at 1:14: '<=' takes two terms"),
    ("(interpolant (<= zz 0))", VerificationFailed,
     "backend interpolant uses an undeclared variable: "
     "parse error at 1:18: undeclared variable 'zz'"),
]


class TestReplyContract:
    @pytest.mark.parametrize("reply, cls, message", REPLIES, ids=[r for r, _, _ in REPLIES])
    def test_reply_is_rejected(self, reply, cls, message):
        with Backend(f"{_stub('reply_backend')} {shlex.quote(reply)}") as be:
            with pytest.raises(cls) as exc:
                be.interpolate(ge(TX, 0), le(TX, -1))
        assert type(exc.value) is cls
        assert str(exc.value) == message


class TestSatReplies:
    def test_missing_variable_reads_zero(self):
        with Backend(f"{_stub('reply_backend')} '(sat (model (y 7)))'") as be:
            with pytest.raises(NotUnsat) as exc:
                be.interpolate(ge(TX, 0), le(TX, 0))
        assert exc.value.model[X] == 0

    def test_non_integral_int_value_is_rejected(self):
        # x = 1/2 satisfies 2x >= 1 and 2x <= 1 over the rationals only
        with Backend(f"{_stub('reply_backend')} '(sat (model (x 1/2)))'") as be:
            with pytest.raises(VerificationFailed) as exc:
                be.interpolate(ge(TX.scale(2), 1), le(TX.scale(2), 1))
        assert str(exc.value) == \
            "backend model rejected: Int variable x has the non-integral value 1/2"


class TestFaultyBackends:
    def test_garbage_reply_is_backend_error(self):
        with Backend(_stub("garbage_backend")) as be:
            with pytest.raises(BackendError):
                be.interpolate(ge(TX, 0), le(TX, -1))

    def test_unsound_reply_is_rejected_locally(self):
        # always answers (interpolant true), which fails the B-side check
        with Backend(_stub("unsound_backend")) as be:
            with pytest.raises(VerificationFailed) as exc:
                be.interpolate(ge(TX, 0), le(TX, -1))
        assert "right-contradiction" in str(exc.value)

    def test_dead_process_is_backend_error(self):
        with Backend("false") as be:
            with pytest.raises(BackendError):
                be.interpolate(ge(TX, 0), le(TX, -1))

    def test_unlaunchable_command_is_backend_error(self):
        with pytest.raises(BackendError):
            Backend("/nonexistent/interpolator")

    def test_timeout_is_backend_error(self):
        with Backend("sleep 30", timeout=0.2) as be:
            with pytest.raises(BackendError) as exc:
                be.interpolate(ge(TX, 0), le(TX, -1))
        assert "timed out" in str(exc.value)


class TestClose:
    @pytest.mark.parametrize("command", [_stub("good_backend"), "false"],
                             ids=["running", "exited"])
    def test_close_releases_both_pipes(self, command):
        with Backend(command) as be:
            proc = be._proc
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed
