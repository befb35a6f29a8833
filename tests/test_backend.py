"""External interpolation backends: protocol, re-verification, fault handling."""

import random
import shlex
import sys

import pytest

from generators import random_unsat_pair
from hornitp.backend import Backend, external_interpolant, interpolation_request
from hornitp.engine import check_interpolant, sat
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
        assert node.items[0].value == "interpolate"
        assert {i.items[0].value for i in node.items[1:]} == {"vars", "A", "B"}
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

    def test_many_requests_one_process(self):
        rng = random.Random(99)
        with Backend(_stub("good_backend")) as be:
            for _ in range(50):
                a, b = random_unsat_pair(rng, sat)
                itp = external_interpolant(a, b, be)
                assert check_interpolant(a, b, itp.formula) == []


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
