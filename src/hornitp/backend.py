"""Delegating interpolation to an external process.

The backend is any executable speaking a line-oriented protocol on
stdin/stdout: one request per line,

    (interpolate (vars (v Int|Real)...) (A <constraint>) (B <constraint>))

answered by exactly one of

    (interpolant <constraint>)
    (sat (model (v value)...))
    (error "<message>")

Constraints use the s-expression grammar of :mod:`hornitp.sexpr`.  Every
answer is re-verified locally before being accepted, so a buggy backend can
cause VerificationFailed but never an unsound result.  A handle owns its
process and serves one request at a time.
"""

from __future__ import annotations

import os
import selectors
import shlex
import subprocess

from .engine import Interpolant, check_interpolant
from .errors import BackendError, NotUnsat, ParseError, UndeclaredSymbol, VerificationFailed
from .sexpr import constraint_str, parse_constraint, parse_model, parse_one, var_decls_str
from .terms import Constraint, free_vars

DEFAULT_TIMEOUT = 60.0


class Backend:
    """Single-owner handle to a backend process (one in-flight request)."""

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

    def request(self, line: str) -> str:
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


def external_interpolant(a: Constraint, b: Constraint, backend: Backend) -> Interpolant:
    """Same contract as binary_interpolant, answered by the backend process
    and re-verified locally."""
    line, variables = interpolation_request(a, b)
    reply = backend.request(line)
    try:
        node = parse_one(reply)
    except ParseError as exc:
        raise BackendError(f"unparsable backend reply: {exc}") from None
    if node.is_atom or not node.items or not node.items[0].is_atom:
        raise BackendError(f"malformed backend reply: {reply!r}")
    kind = node.items[0].value
    if kind == "error":
        detail = " ".join(repr(x) for x in node.items[1:])
        raise BackendError(f"backend reported an error: {detail}")
    if kind == "sat":
        if len(node.items) != 2:
            raise BackendError(f"malformed sat reply: {reply!r}")
        model = parse_model(node.items[1], variables)
        raise NotUnsat(model, "backend found the conjunction satisfiable")
    if kind == "interpolant":
        if len(node.items) != 2:
            raise BackendError(f"malformed interpolant reply: {reply!r}")
        try:
            formula = parse_constraint(node.items[1], variables)
        except UndeclaredSymbol as exc:
            raise VerificationFailed(
                f"backend interpolant uses an undeclared variable: {exc}") from None
        except ParseError as exc:
            raise BackendError(f"unparsable backend interpolant: {exc}") from None
        failures = check_interpolant(a, b, formula)
        if failures:
            raise VerificationFailed(
                "backend interpolant rejected: " + ", ".join(failures))
        return Interpolant(formula)
    raise BackendError(f"unknown backend reply kind {kind!r}")
