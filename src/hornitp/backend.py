"""Delegating interpolation to an external process.

The backend is any executable speaking a line-oriented protocol on
stdin/stdout: one request per line,

    (interpolate (vars (v Int|Real)...) (A <constraint>) (B <constraint>))

answered by exactly one of

    (interpolant <constraint>)
    (sat (model (v value)...))
    (error "<message>")

Constraints use the s-expression grammar of :mod:`hornitp.sexpr`.  Every
answer is re-verified locally before being accepted: an interpolant by
check_interpolant, a model by evaluating A and B under it, a missing
variable reading 0.  So a buggy backend can cause VerificationFailed but
never an unsound result.  A handle owns its
process and serves one request at a time; threads sharing a handle take
turns, each holding it from writing its request until its reply is read.
"""

from __future__ import annotations

import os
import selectors
import shlex
import subprocess
import threading
from fractions import Fraction

from .engine import DEFAULT_BRANCH_DEPTH, Interpolant, check_interpolant
from .errors import BackendError, NotUnsat, ParseError, UndeclaredSymbol, VerificationFailed
from .sexpr import (
    constraint_str,
    node_str,
    number_str,
    parse_one,
    parse_with,
    read_constraint,
    read_model,
    var_decls_str,
)
from .terms import DEFAULT_CUBE_LIMIT, INT, Constraint, cand, evaluate, free_vars

DEFAULT_TIMEOUT = 60.0


class Backend:
    """Handle to a backend process (one in-flight request at a time)."""

    def __init__(self, command: str, timeout: float = DEFAULT_TIMEOUT):
        self.command = command
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, bufsize=0)
        except OSError as exc:
            raise BackendError(f"cannot launch backend {command!r}: {exc}") from None
        self._buffer = b""
        self._lock = threading.Lock()

    def request(self, line: str) -> str:
        with self._lock:
            if self._proc.poll() is not None:
                raise BackendError(
                    f"backend exited with status {self._proc.returncode} before the request")
            try:
                self._proc.stdin.write(line.encode() + b"\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError):
                raise BackendError("backend closed its input pipe") from None
            return self._read_line()

    def _read_line(self) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self._proc.stdout, selectors.EVENT_READ)
        try:
            while b"\n" not in self._buffer:
                if not sel.select(self.timeout):
                    raise BackendError(f"backend timed out after {self.timeout}s")
                chunk = os.read(self._proc.stdout.fileno(), 65536)
                if not chunk:
                    status = self._proc.poll()
                    raise BackendError(
                        f"backend closed its output (exit status {status})")
                self._buffer += chunk
        finally:
            sel.close()
        line, self._buffer = self._buffer.split(b"\n", 1)
        try:
            return line.decode()
        except UnicodeDecodeError:
            raise BackendError("backend reply is not valid UTF-8") from None

    def close(self):
        """Close both pipes and reap the process, also when it already exited."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def interpolate(self, a: Constraint, b: Constraint) -> Interpolant:
        return external_interpolant(a, b, self)


def interpolation_request(a: Constraint, b: Constraint) -> tuple:
    """(request line, declared-variable map) for a binary problem."""
    variables = sorted(free_vars(a) | free_vars(b))
    line = (f"(interpolate (vars {var_decls_str(variables)[1:-1]}) "
            f"(A {constraint_str(a)}) (B {constraint_str(b)}))")
    return line, {v.name: v for v in variables}


def external_interpolant(a: Constraint, b: Constraint, backend: Backend,
                         branch_depth: int = DEFAULT_BRANCH_DEPTH,
                         cube_limit: int = DEFAULT_CUBE_LIMIT) -> Interpolant:
    """Same contract as binary_interpolant, answered by the backend process
    and re-verified locally within the budgets."""
    line, variables = interpolation_request(a, b)
    reply = backend.request(line)
    try:
        node = parse_one(reply)
    except ParseError as exc:
        raise BackendError(f"unparsable backend reply: {exc}") from None
    if type(node) is str or not node or type(node[0]) is not str:
        raise BackendError(f"malformed backend reply: {reply!r}")
    kind = node[0]
    if kind == "error":
        detail = " ".join(node_str(x) for x in node[1:])
        raise BackendError(f"backend reported an error: {detail}")
    if kind not in ("sat", "interpolant"):
        raise BackendError(f"unknown backend reply kind {kind!r}")
    if len(node) != 2:
        raise BackendError(f"malformed {kind} reply: {reply!r}")
    if kind == "sat":
        try:
            model = parse_with(reply, lambda forms: read_model(forms[0], 1, variables))
        except ParseError as exc:
            raise BackendError(f"malformed sat reply: {exc}") from None
        model = {v: Fraction(0) for v in variables.values()} | model  # a missing variable reads 0
        for v in variables.values():
            if v.sort is INT and model[v].denominator != 1:
                raise VerificationFailed(
                    f"backend model rejected: Int variable {v.name} "
                    f"has the non-integral value {number_str(model[v])}")
        if not evaluate(cand(a, b), model):
            raise VerificationFailed("backend model rejected: it does not satisfy A and B")
        raise NotUnsat(model, "backend found the conjunction satisfiable")
    try:
        formula = parse_with(reply, lambda forms: read_constraint(forms[0], 1, variables))
    except UndeclaredSymbol as exc:
        raise VerificationFailed(
            f"backend interpolant uses an undeclared variable: {exc}") from None
    except ParseError as exc:
        raise BackendError(f"unparsable backend interpolant: {exc}") from None
    failures = check_interpolant(a, b, formula, branch_depth, cube_limit)
    if failures:
        raise VerificationFailed(
            "backend interpolant rejected: " + ", ".join(failures))
    return Interpolant(formula)
